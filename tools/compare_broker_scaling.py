#!/usr/bin/env python3
"""Tolerance-based comparison of two pdm.bench_broker.v2 documents.

Usage:
    compare_broker_scaling.py BASELINE CURRENT [--tolerance=0.25]
                              [--metric=aggregate_rounds_per_sec]

Joins the two documents on each series row's "series" key and fails (exit 1)
when CURRENT's metric falls more than TOLERANCE below BASELINE's for any
series, naming every regressed series with both rates and the shortfall.
Improvements never fail, but the series-name sets must match exactly: a
series present in only one document fails in either direction — silently
dropped (a harness regression) and silently added (an unadopted sweep cell
the gate would never arm) alike. Refresh the committed baseline whenever the
sweep grid legitimately changes.

Benchmark rates are hardware-dependent, so absolute comparison is only
meaningful between documents produced on the same machine class. The v2
document records `hardware_concurrency`; when baseline and current disagree
on it, the script prints a prominent notice and exits 0 without comparing
(pass --ignore-hardware-mismatch to force the comparison anyway). To arm
the CI gate, refresh the committed baseline from a runner-produced artifact
(`BENCH_broker_scaling.ci.json`) rather than a dev-box run — see README
"Performance".

Independently of the baseline, CURRENT must scale: when its own
`hardware_concurrency` is at least 4, the own-product t=4/b=1 series must
reach `parallel_efficiency` >= 0.5 (efficiency against the same regime's
t=1 cell in the same document). This floor is checked even when the
hardware-mismatch skip disarms the per-series gate, since it compares the
document only with itself.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys

SCHEMA = "pdm.bench_broker.v2"

# The intra-document scaling floor. 0.5, not higher: with striped metric
# cells, six smoke sweeps on a 4-vCPU VM read 0.60-1.01 (0.24-0.53 before
# striping), and a floor near the low end would flake.
FLOOR_SERIES = "own-product/t=4/b=1"
FLOOR_EFFICIENCY = 0.5
FLOOR_MIN_HARDWARE = 4


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"compare_broker_scaling: cannot read {path}: {err}")
    if doc.get("schema") != SCHEMA:
        sys.exit(
            f"compare_broker_scaling: {path} has schema "
            f"{doc.get('schema')!r}, expected {SCHEMA!r}"
        )
    rows = {}
    for row in doc.get("series", []):
        name = row.get("series")
        if not name:
            sys.exit(f"compare_broker_scaling: {path} has a series row without a name")
        if name in rows:
            sys.exit(f"compare_broker_scaling: {path} repeats series {name!r}")
        rows[name] = row
    if not rows:
        sys.exit(f"compare_broker_scaling: {path} contains no series rows")
    return doc, rows


def efficiency_floor_failure(doc, rows):
    """Returns a failure line when CURRENT misses the scaling floor, else None."""
    hw = doc.get("hardware_concurrency")
    if hw is None or hw < FLOOR_MIN_HARDWARE:
        print(
            f"NOTE: efficiency floor not armed: hardware_concurrency={hw} "
            f"< {FLOOR_MIN_HARDWARE}"
        )
        return None
    row = rows.get(FLOOR_SERIES)
    if row is None:
        return f"  {FLOOR_SERIES}: missing, so the efficiency floor cannot be checked"
    efficiency = row.get("parallel_efficiency")
    if efficiency is None or efficiency < FLOOR_EFFICIENCY:
        return (
            f"  {FLOOR_SERIES}: parallel_efficiency {efficiency!r} is below the "
            f"floor {FLOOR_EFFICIENCY} (hardware_concurrency={hw})"
        )
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression per series (default 0.25)",
    )
    parser.add_argument(
        "--metric",
        default="aggregate_rounds_per_sec",
        help="series field to compare (default aggregate_rounds_per_sec)",
    )
    parser.add_argument(
        "--ignore-hardware-mismatch",
        action="store_true",
        help="compare even when the documents report different "
        "hardware_concurrency (absolute rates are NOT comparable across "
        "machine classes; expect noise)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        sys.exit("compare_broker_scaling: --tolerance must be in [0, 1)")

    base_doc, baseline = load_doc(args.baseline)
    cur_doc, current = load_doc(args.current)
    floor_failure = efficiency_floor_failure(cur_doc, current)

    base_hw = base_doc.get("hardware_concurrency")
    cur_hw = cur_doc.get("hardware_concurrency")
    if (
        base_hw is not None
        and cur_hw is not None
        and base_hw != cur_hw
        and not args.ignore_hardware_mismatch
    ):
        # The ::warning:: line is a GitHub Actions annotation: a silently
        # disarmed gate once hid a dead baseline for a whole PR cycle, so the
        # skip must be loud in the checks UI, not just in a log nobody reads.
        # ONE summary annotation per document, naming every skipped series —
        # per-series annotations drown the checks UI as gates multiply.
        skipped = ", ".join(sorted(baseline))
        print(
            "::warning title=broker scaling gate skipped::baseline "
            f"hardware_concurrency={base_hw} does not match runner {cur_hw}; "
            "the perf gate is NOT armed "
            f"({len(baseline)} series skipped: {skipped}). Refresh the "
            "committed baseline from a CI artifact (README 'Performance')."
        )
        print(
            f"SKIPPED: baseline was recorded with hardware_concurrency={base_hw}, "
            f"current has {cur_hw} — absolute rates are not comparable across "
            "machine classes, so no gate was applied.\n"
            "To arm the gate, refresh the committed baseline from a run on this "
            "machine class (e.g. commit CI's BENCH_broker_scaling.ci.json "
            "artifact as BENCH_broker_scaling.json — README 'Performance'), or "
            "pass --ignore-hardware-mismatch to force the comparison."
        )
        if floor_failure:
            print(f"FAIL: scaling floor missed ({args.current}):\n{floor_failure}")
            return 1
        return 0

    failures = [floor_failure] if floor_failure else []
    improvements = 0
    for name in sorted(baseline):
        base_row = baseline[name]
        if name not in current:
            failures.append(f"  {name}: present in baseline but missing from current")
            continue
        base = base_row.get(args.metric)
        cur = current[name].get(args.metric)
        if base is None or cur is None:
            failures.append(f"  {name}: metric {args.metric!r} missing from a document")
            continue
        if base <= 0:
            # A non-positive baseline metric can never gate anything — it is
            # a broken baseline (truncated run, wrong field), not a slow one.
            # Skipping it silently would disarm the series forever.
            failures.append(
                f"  {name}: baseline {args.metric} is {base!r} (non-positive) — "
                "the baseline is broken; re-record it instead of comparing "
                "against it"
            )
            continue
        ratio = cur / base
        if ratio < 1.0 - args.tolerance:
            failures.append(
                f"  {name}: {args.metric} regressed {100 * (1 - ratio):.1f}% "
                f"(baseline {base:,.0f} -> current {cur:,.0f}, "
                f"tolerance {100 * args.tolerance:.0f}%)"
            )
        elif ratio > 1.0:
            improvements += 1

    # The symmetric half of the set diff: series only in CURRENT. The
    # missing-from-current direction already failed above, row by row.
    for name in sorted(set(current) - set(baseline)):
        failures.append(
            f"  {name}: present in current but missing from baseline — the "
            "series sets must match (refresh the committed baseline to adopt "
            "the new sweep cell)"
        )

    if failures:
        print(
            f"FAIL: {len(failures)} series mismatched, regressed beyond "
            f"{100 * args.tolerance:.0f}% or below the scaling floor "
            f"({args.baseline} -> {args.current}):"
        )
        print("\n".join(failures))
        print(
            "If the slowdown is expected, refresh the committed baseline "
            "(README 'Performance')."
        )
        return 1
    print(
        f"OK: {len(baseline)} series within {100 * args.tolerance:.0f}% of baseline "
        f"({improvements} improved)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
