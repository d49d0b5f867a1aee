#!/usr/bin/env python3
"""Perf guard for the benchmark reports.

Compares the *deterministic* effort counters of a fresh run against the
committed baseline and fails when any regresses by more than the
tolerance. Wall-clock fields are never compared with the baseline: CI
machines vary, counters do not - decisions, backtracks, DPTRACE
expansions, nogood literal probes, DPRELAX window evaluations and
batch-simulation pass counts are pure functions of the model and the
configuration. The wall-clock checks are ratios of two phase times
measured in the same run, which hold on any machine.

The report kind is auto-detected from the "bench" field:

  tg_solver  (bench_solver  -> BENCH_tg.json)
      per-config search-effort counters vs baseline, detection equality,
      and a complete warm start: every DPRELAX solve of the warm_start
      config replays from the imported memo (relax_hits == relax_lookups
      > 0), and the replay pays - warm_start spends at most a tenth of
      campaign_scope's DPRELAX time in the same run (dprelax_ns), whatever
      the baseline says. The implication engine must stay cheap: engine_on
      spends at most 1.6x engine_off's CTRLJUST time (ctrljust_ns) in the
      same run.
  campaign   (bench_campaign -> BENCH_campaign.json)
      lane-engine sweep: per-width dropping-pass counters vs baseline,
      width-invariant detections, and the floor on the controller-pass
      reduction wider lanes must buy (256 lanes >= 3x fewer passes than
      64 - the speedup is algorithmic, so it holds on any machine).

Usage: check_bench.py CURRENT.json BASELINE.json [--tolerance 0.10]
Exit: 0 ok, 1 regression or malformed input.
"""

import argparse
import json
import sys

# Lower is better; a rise beyond tolerance is a hot-path regression.
# relax_evals counts the schedule steps DPRELAX's event-driven windows
# evaluate. The generator keeps its windows across solves, so each solve
# diffs against the previous one's variables: a fall-back to a fresh
# window's whole-window sweep per solve multiplies it about tenfold on any
# host.
TG_GUARDED_COUNTERS = ("decisions", "backtracks", "dptrace_expansions",
                       "nogood_comparisons", "relax_evals")
TG_CONFIGS = ("engine_off", "no_reuse", "engine_on", "campaign_scope",
              "warm_start", "campaign_shard")
# A warm start replays every DPRELAX solve: its DPRELAX time must be at
# most 1/N of the cold campaign_scope pass of the same run.
WARM_DPRELAX_SPEEDUP = 10
# The engine shadows every CTRLJUST search: engine_on may spend at most
# this multiple of engine_off's CTRLJUST time of the same run. On a 4-vCPU
# host the engine reads 0.7-1.3; one without its wake table, forward-node
# skip and bounded cuts read 1.8-2.3.
MAX_ENGINE_CTRLJUST_RATIO = 1.6

CAMPAIGN_WIDTHS = (64, 256, 512)
CAMPAIGN_GUARDED_COUNTERS = ("batches", "controller_passes", "gate_evals",
                             "module_evals")
# The dropping-pass win of wider lanes is structural: 256 lanes must cut
# controller passes by at least this factor vs the 64-lane sweep.
MIN_PASS_REDUCTION_256 = 3.0


def check_counter(failures, label, cv, bv, tolerance):
    if cv is None or bv is None:
        failures.append(f"{label}: missing counter")
        return
    limit = bv * (1.0 + tolerance)
    if cv > limit:
        failures.append(f"{label}: {cv} exceeds baseline {bv} "
                        f"by more than {tolerance:.0%}")


def check_tg(cur, base, tolerance, failures):
    if cur.get("errors") != base.get("errors"):
        failures.append(
            f"error-set size differs: current {cur.get('errors')} vs "
            f"baseline {base.get('errors')} - run bench_solver with the "
            "same --quick setting as the baseline")
    if not cur.get("outcomes_identical", False):
        failures.append("detection outcomes diverged between configurations")

    for cfg in TG_CONFIGS:
        c, b = cur.get(cfg), base.get(cfg)
        if c is None or b is None:
            failures.append(f"{cfg}: missing from current or baseline report")
            continue
        if c.get("detected") != b.get("detected"):
            failures.append(f"{cfg}: detected {c.get('detected')} != "
                            f"baseline {b.get('detected')}")
        for key in TG_GUARDED_COUNTERS:
            check_counter(failures, f"{cfg}.{key}", c.get(key), b.get(key),
                          tolerance)

    warm = cur.get("warm_start") or {}
    hits, lookups = warm.get("relax_hits"), warm.get("relax_lookups")
    if not lookups or hits != lookups:
        failures.append(f"warm_start: {hits} of {lookups} DPRELAX solves "
                        "replayed from the imported memo - a warm start "
                        "must replay every one")
    # Both phase times come from one run: the ratio survives machine speed.
    warm_ns = warm.get("dprelax_ns")
    cold_ns = (cur.get("campaign_scope") or {}).get("dprelax_ns")
    if warm_ns is None or cold_ns is None:
        failures.append("warm_start / campaign_scope: dprelax_ns missing")
    elif warm_ns * WARM_DPRELAX_SPEEDUP > cold_ns:
        failures.append(
            f"warm_start: DPRELAX took {warm_ns / 1e6:.1f} ms, more than "
            f"1/{WARM_DPRELAX_SPEEDUP} of campaign_scope's "
            f"{cold_ns / 1e6:.1f} ms - the replayed memo is not paying")
    speedup = f"{cold_ns / warm_ns:.0f}x" if warm_ns and cold_ns else "n/a"

    on_ns = (cur.get("engine_on") or {}).get("ctrljust_ns")
    off_ns = (cur.get("engine_off") or {}).get("ctrljust_ns")
    engine_ratio = "n/a"
    if not on_ns or not off_ns:
        failures.append("engine_on / engine_off: ctrljust_ns missing")
    else:
        engine_ratio = f"{on_ns / off_ns:.2f}x"
        if on_ns > MAX_ENGINE_CTRLJUST_RATIO * off_ns:
            failures.append(
                f"engine_on: CTRLJUST took {on_ns / 1e6:.1f} ms, more than "
                f"{MAX_ENGINE_CTRLJUST_RATIO}x engine_off's "
                f"{off_ns / 1e6:.1f} ms - the implication engine costs more "
                "than it should")
    return (f"{len(TG_CONFIGS)} configs x {len(TG_GUARDED_COUNTERS)} "
            f"counters within {tolerance:.0%} of baseline, warm start "
            f"replayed {hits}/{lookups} relax solves, DPRELAX {speedup} "
            f"faster warm, CTRLJUST engine on/off {engine_ratio}")


def check_campaign(cur, base, tolerance, failures):
    if cur.get("errors") != base.get("errors"):
        failures.append(
            f"error-set size differs: current {cur.get('errors')} vs "
            f"baseline {base.get('errors')} - run bench_campaign with the "
            "same --quick setting as the baseline")

    lanes_cur = cur.get("lane_engine")
    lanes_base = base.get("lane_engine")
    if not isinstance(lanes_cur, dict) or not isinstance(lanes_base, dict):
        failures.append("lane_engine: section missing from current or "
                        "baseline report")
        return ""

    detections = set()
    for width in CAMPAIGN_WIDTHS:
        key = f"lanes_{width}"
        c, b = lanes_cur.get(key), lanes_base.get(key)
        if c is None or b is None:
            failures.append(f"lane_engine.{key}: missing from current or "
                            "baseline report")
            continue
        if c.get("detections") != b.get("detections"):
            failures.append(
                f"lane_engine.{key}: detections {c.get('detections')} != "
                f"baseline {b.get('detections')}")
        detections.add(c.get("detections"))
        for counter in CAMPAIGN_GUARDED_COUNTERS:
            check_counter(failures, f"lane_engine.{key}.{counter}",
                          c.get(counter), b.get(counter), tolerance)
    if len(detections) > 1:
        failures.append(
            f"lane_engine: detections vary with lane width: {detections} - "
            "lane width must never change a simulation outcome")

    reduction = lanes_cur.get("pass_reduction_256_vs_64")
    if reduction is None:
        failures.append("lane_engine.pass_reduction_256_vs_64: missing")
    elif reduction < MIN_PASS_REDUCTION_256:
        failures.append(
            f"lane_engine.pass_reduction_256_vs_64: {reduction:.2f} below "
            f"the {MIN_PASS_REDUCTION_256:.1f}x floor - wider lanes are "
            "not buying fewer controller passes")
    return (f"{len(CAMPAIGN_WIDTHS)} lane widths x "
            f"{len(CAMPAIGN_GUARDED_COUNTERS)} counters within "
            f"{tolerance:.0%} of baseline, pass reduction "
            f"{reduction if reduction is not None else 'n/a'}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional increase per counter")
    args = ap.parse_args()

    with open(args.current) as f:
        cur = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    kind = cur.get("bench")
    if kind != base.get("bench"):
        print(f"perf guard FAILED:\n  - report kinds differ: current "
              f"'{kind}' vs baseline '{base.get('bench')}'")
        return 1

    failures = []
    if kind == "campaign":
        summary = check_campaign(cur, base, args.tolerance, failures)
    elif kind == "tg_solver":
        summary = check_tg(cur, base, args.tolerance, failures)
    else:
        print(f"perf guard FAILED:\n  - unknown report kind '{kind}'")
        return 1

    if failures:
        print("perf guard FAILED:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print(f"perf guard ok ({kind}): {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
