#!/usr/bin/env python3
"""Per-layer metrics from a tgbench Chrome trace.

    python3 tgbench/summarize.py .bench_build/trace/table1_ssl-1.json

A span is named "<layer>.<what>"; each traced pass is a root span
"bench.pass", and every other span reaches its pass through its parent
chain. A span's self time is its duration minus the part of its interval
that its child spans cover. Per-pass figures are reported as the median
over the traced passes; metrics of a layer the workload does not use
read 0.
"""
import json
import statistics
import sys


def _median(values):
    return statistics.median(values) if values else 0.0


def _covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def load(path):
    with open(path) as f:
        doc = json.load(f)
    spans = {}
    for ev in doc["traceEvents"]:
        a = ev["args"]
        spans[a["id"]] = {"name": ev["name"], "parent": a["parent"],
                          "start": a["start_ns"], "end": a["end_ns"],
                          "thread": (ev["pid"], ev["tid"]), "args": a}
    return spans, doc.get("metadata", {})


def self_times(spans):
    kids = {}
    for sid, s in spans.items():
        kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {sid: (s["end"] - s["start"]) -
            _covered(kids.get(sid, []), s["start"], s["end"])
            for sid, s in spans.items()}


def summarize(path):
    """(per-layer metrics, per-layer self ms per pass) of one trace."""
    spans, meta = load(path)
    selft = self_times(spans)

    def pass_of(sid):
        seen = 0
        while sid in spans and spans[sid]["name"] != "bench.pass" and seen < 64:
            sid, seen = spans[sid]["parent"], seen + 1
        return sid if sid in spans else None

    passes = {sid: {} for sid, s in spans.items() if s["name"] == "bench.pass"}
    for sid, s in spans.items():
        p = pass_of(sid)
        if p is not None and p != sid:
            passes[p].setdefault(s["name"], []).append(sid)

    ms = lambda ns: ns / 1e6
    dur = lambda sid: spans[sid]["end"] - spans[sid]["start"]
    arg = lambda sid, key: spans[sid]["args"].get(key, 0)

    per_pass = {}  # metric -> [value per pass]
    layer_self = {}  # layer -> [self ms per pass]

    def put(name, value):
        per_pass.setdefault(name, []).append(value)

    for pid, by_name in passes.items():
        total = lambda name, f: sum(f(x) for x in by_name.get(name, []))
        gen = by_name.get("core.generate", [])
        oracle = by_name.get("triage.oracle", [])
        put("core.generate_ms", ms(total("core.generate", lambda x: selft[x])))
        put("core.dptrace_ms", ms(total("core.dptrace", dur)))
        put("core.ctrljust_ms", ms(total("core.ctrljust", dur)))
        put("core.dprelax_ms", ms(total("core.dprelax", dur)))
        for key in ("decisions", "backtracks"):
            put("core." + key, total("core.generate", lambda x: arg(x, key)))
        gen_ns = total("core.generate", dur)
        aborted_ns = sum(dur(x) for x in gen if not arg(x, "detected"))
        put("core.aborted_share", aborted_ns / gen_ns if gen_ns else 0.0)
        put("solver.probe_ms", ms(total("solver.probe", dur)))
        for key in ("implications", "learned", "nogood_hits", "justcache_hits"):
            put("solver." + key, total("core.generate", lambda x: arg(x, key)))
        put("triage.oracle_ms", ms(total("triage.oracle", dur)))
        put("triage.oracle_calls", len(oracle))
        for camp in by_name.get("errors.campaign", []):
            busy = {}
            for x in gen + oracle:
                busy[spans[x]["thread"]] = busy.get(spans[x]["thread"], 0) + dur(x)
            jobs = max(1, arg(camp, "jobs"))
            put("errors.worker_busy_frac", sum(busy.values()) / (jobs * dur(camp)))
            put("errors.engine_self_ms", ms(dur(camp) - max(busy.values(), default=0)))
        for key in ("batches", "controller_passes", "lanes_evaluated"):
            put("sim." + key, total("sim.detect", lambda x: arg(x, key)))
        evals = total("sim.detect", lambda x: arg(x, "gate_evals"))
        put("gatenet.gate_evals", evals)
        detect_s = total("sim.detect", dur) / 1e9
        put("gatenet.gate_evals_per_s", evals / detect_s if detect_s else 0.0)
        for key in ("cache_hits", "cache_misses", "cache_insertions", "coalesced",
                    "worker_restarts"):
            put("service." + key, arg(pid, key))
        for layer in sorted({n.split(".")[0] for n in by_name} | {"bench"}):
            own = [pid] if layer == "bench" else []
            own += [x for n, xs in by_name.items() if n.split(".")[0] == layer
                    for x in xs]
            layer_self.setdefault(layer, []).append(ms(sum(selft[x] for x in own)))

    out = {name: _median(vals) for name, vals in per_pass.items()}
    for name in ("errors.worker_busy_frac", "errors.engine_self_ms"):
        out.setdefault(name, 0.0)  # no campaign in this workload
    of = lambda name: [s for s in spans.values() if s["name"] == name]
    out["sim.detect_ms"] = _median([ms(selft[sid]) for sid, s in spans.items()
                                    if s["name"] == "sim.detect"])
    out["service.ack_ms"] = _median([ms(s["end"] - s["start"]) for s in of("service.ack")])
    out["service.run_ms"] = _median([ms(s["end"] - s["start"]) for s in of("service.run")])
    misses = [ms(s["end"] - s["start"]) for s in of("service.request")
              if s["args"].get("kind") == "miss"]
    out["service.miss_overhead_ms"] = (_median(misses) - out["service.run_ms"]
                                       if misses else 0.0)
    out["trace.overhead_pct"] = meta.get("trace_overhead_pct", 0.0)
    return out, {layer: _median(v) for layer, v in layer_self.items()}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    metrics, layers = summarize(sys.argv[1])
    print(json.dumps({"per_layer": metrics, "layer_self_ms": layers},
                     indent=1, sort_keys=True))
