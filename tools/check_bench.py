#!/usr/bin/env python3
"""Perf guard for the benchmark reports.

Compares the *deterministic* effort counters of a fresh run against the
committed baseline and fails when any regresses by more than the
tolerance. Wall-clock fields are ignored on purpose: CI machines vary,
counters do not - decisions, backtracks, DPTRACE expansions, nogood
literal probes and batch-simulation pass counts are pure functions of the
model and the configuration.

The report kind is auto-detected from the "bench" field:

  tg_solver  (bench_solver  -> BENCH_tg.json)
      per-config search-effort counters vs baseline, detection equality.
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
TG_GUARDED_COUNTERS = ("decisions", "backtracks", "dptrace_expansions",
                       "nogood_comparisons")
TG_CONFIGS = ("engine_off", "no_reuse", "engine_on", "campaign_scope",
              "warm_start", "campaign_shard")

CAMPAIGN_WIDTHS = (64, 256, 512)
CAMPAIGN_GUARDED_COUNTERS = ("batches", "controller_passes", "gate_evals")
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
    return (f"{len(TG_CONFIGS)} configs x {len(TG_GUARDED_COUNTERS)} "
            f"counters within {tolerance:.0%} of baseline")


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
