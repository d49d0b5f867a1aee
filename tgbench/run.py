#!/usr/bin/env python3
"""Build and run the repository benchmark; the last stdout line is the result.

    python3 tgbench/run.py --workload table1_ssl|grade_random|service_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
driver and the hltg library (Release) under .bench_build/; later calls only
re-check the build. With --trace 0 the result carries every end-to-end
metric of BENCHMARK.json; with --trace 1 the driver also records spans,
writes them as a Chrome trace under .bench_build/trace/, and the result
carries every per-layer metric, derived by summarize.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # keep the source directory clean
sys.path.insert(0, HERE)
import summarize  # noqa: E402


def die(msg):
    print("tgbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    bdir = os.path.join(BUILD, "tgbench")
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):  # not configured yet
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "--target", "tgbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "tgbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)

    exe = build()
    rel = lambda p: os.path.relpath(p, ROOT)  # short unix-socket paths
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--work-dir", rel(os.path.join(BUILD, "work")),
           "--ref-dir", rel(os.path.join(HERE, "reference"))]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        trace_path = os.path.join(BUILD, "trace", "%s-%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", rel(trace_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("driver did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        die("driver exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    if args.trace:
        print("traced end-to-end " + json.dumps(result["metrics"], sort_keys=True))
        values, layers = summarize.summarize(trace_path)
        print("layer self time per pass (ms) " + json.dumps(layers, sort_keys=True))
        wanted = spec["per_layer"]
    else:
        values = result["metrics"]
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die("driver reported no value for " + ", ".join(missing))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
