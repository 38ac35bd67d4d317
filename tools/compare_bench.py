#!/usr/bin/env python3
"""Rule-table comparison of two bench documents of the same schema.

Usage:
    compare_bench.py BASELINE CURRENT [--ignore-hardware-mismatch]

Dispatches on the documents' "schema" field; both must carry the same,
known schema. Every gate is a row of that schema's entry in the SCHEMAS
rule table below: per-series rules (field, better direction, fixed
tolerance), fields that must be 0, and one intra-document gate.

Per-series rules join the documents on each row's "series" key. The series
sets must match in both directions: a series only in BASELINE was silently
dropped, and a series only in CURRENT is a gate that can never arm until the
committed baseline adopts it. A non-positive baseline value fails: a broken
baseline must be re-recorded, not skipped. A latency group whose "count" is 0
in both documents (the resident series never faults) is not gated; one whose
count fell from positive to 0 stopped recording, and fails.

Absolute numbers only compare within one machine class: when the documents
disagree on hardware_concurrency, the per-series rules are skipped with ONE
::warning:: annotation naming every skipped series (pass
--ignore-hardware-mismatch to compare anyway). The must-be-0 fields and the
intra-document gate compare CURRENT with itself, so they always run.

Malformed input (not a JSON object, a non-object series row, a non-numeric
gated value) exits 1 with one line naming the file. Stdlib only.
"""

import argparse
import collections
import json
import sys

LOWER, HIGHER = "lower", "higher"

# One per-series gate: the dotted field path inside a series row, which
# direction is better, the allowed fractional regression, and the name used
# in failure lines.
Rule = collections.namedtuple("Rule", "key better tolerance label",
                              defaults=(None,))

# rules: per-series baseline gates; zero: (field, what it counts) that must
# be 0 in every CURRENT series; intra: gate over CURRENT alone, returning
# (failure lines, summary); readme: where refreshing the baseline is explained.
Schema = collections.namedtuple("Schema", "rules zero intra readme")

FLOOR_SERIES = "own-product/t=4/b=1"
# 0.5, not higher: with striped metric cells, six smoke sweeps on a 4-vCPU VM
# read 0.60-1.01, and a floor near the low end would flake.
FLOOR_EFFICIENCY = 0.5
FLOOR_MIN_HARDWARE = 4
COLD_SERIES, RESIDENT_SERIES = "cold", "resident"
MIN_SAVINGS = 0.35


def number(obj, key, where):
    """Returns obj's dotted `key`, None when absent; exits on a non-number."""
    node = obj
    for part in key.split("."):
        if not isinstance(node, dict):
            break
        node = node.get(part)
        if node is None:
            return None
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            return node
    sys.exit(f"compare_bench: {where}: {key} is {node!r}, not a number")


def scaling_floor(doc, rows, path):
    """CURRENT must scale: own-product t=4/b=1 efficiency against its t=1."""
    hw = number(doc, "hardware_concurrency", path)
    if hw is None or hw < FLOOR_MIN_HARDWARE:
        return [], (f"efficiency floor not armed: hardware_concurrency={hw} "
                    f"< {FLOOR_MIN_HARDWARE}")
    if FLOOR_SERIES not in rows:
        return [f"  {FLOOR_SERIES}: missing, so the efficiency floor cannot "
                "be checked"], None
    efficiency = number(rows[FLOOR_SERIES], "parallel_efficiency",
                        f"{path}: series {FLOOR_SERIES!r}")
    if efficiency is None or efficiency < FLOOR_EFFICIENCY:
        return [f"  {FLOOR_SERIES}: parallel_efficiency {efficiency!r} is below "
                f"the floor {FLOOR_EFFICIENCY} (hardware_concurrency={hw})"], None
    return [], (f"efficiency floor: {FLOOR_SERIES} parallel_efficiency "
                f"{efficiency:.3f} >= {FLOOR_EFFICIENCY}")


def savings_gate(doc, rows, path):
    """The DESIGN.md §12 cold tier's reason to exist: with a residency cap,
    steady-state bytes/product beats every session resident by MIN_SAVINGS
    (both series store shapes packed)."""
    missing = [f"  {path}: required series {name!r} is missing"
               for name in (COLD_SERIES, RESIDENT_SERIES) if name not in rows]
    if missing:
        return missing, None
    resident = rows[RESIDENT_SERIES].get("bytes_per_product")
    cold = rows[COLD_SERIES].get("bytes_per_product")
    if resident is None or cold is None:
        return [f"  {path}: bytes_per_product missing from a series row"], None
    if resident <= 0:
        return [f"  {path}: {RESIDENT_SERIES} bytes_per_product is {resident!r} "
                "(non-positive) — the document is broken; re-record it"], None
    savings = 1.0 - cold / resident
    if savings < MIN_SAVINGS:
        return [f"  {path}: the cold tier saves only {100 * savings:.1f}% "
                f"bytes/product over {RESIDENT_SERIES} (resident {resident:,.0f} "
                f"-> cold {cold:,.0f}); the gate requires >= "
                f"{100 * MIN_SAVINGS:.0f}%"], None
    return [], (f"savings gate: {COLD_SERIES} saves {100 * savings:.1f}% "
                f"bytes/product over {RESIDENT_SERIES} (required >= "
                f"{100 * MIN_SAVINGS:.0f}%)")


SCHEMAS = {
    "pdm.bench_broker.v2": Schema(
        rules=[Rule("aggregate_rounds_per_sec", HIGHER, 0.25)],
        zero=[],
        intra=scaling_floor,
        readme="Performance",
    ),
    # Latency tolerances are loose on purpose: tail quantiles on shared CI
    # runners are noisy, and the gate catches order-of-magnitude regressions
    # (a lost coalescing path, Nagle re-enabled), not 5% jitter.
    "pdm.bench_serving.v1": Schema(
        rules=[Rule(f"latency_ns.{q}", LOWER, 1.0, f"{q} latency")
               for q in ("p50", "p99", "p999")]
        + [Rule("achieved_rounds_per_sec", HIGHER, 0.25)],
        zero=[("errors", "request errors")],
        intra=None,
        readme="Serving over TCP",
    ),
    "pdm.bench_memory.v1": Schema(
        rules=[Rule("bytes_per_product", LOWER, 0.2)]
        + [Rule(f"{group}.{q}", LOWER, 1.0)
           for group in ("resolve_ns", "touch_ns", "fault_in_ns")
           for q in ("p50", "p99")],
        zero=[("touch_errors", "touch errors")],
        intra=savings_gate,
        readme="Memory & scale",
    ),
}


def groups(spec):
    """The latency groups (parents of dotted rule keys), in table order."""
    return list(dict.fromkeys(
        rule.key.rpartition(".")[0] for rule in spec.rules if "." in rule.key))


def load_doc(path):
    """Returns (schema, doc, {series name: row}); exits on malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, ValueError) as err:
        sys.exit(f"compare_bench: cannot read {path}: {err}")
    if not isinstance(doc, dict):
        sys.exit(f"compare_bench: {path} is a JSON {type(doc).__name__}, "
                 "not an object")
    schema = doc.get("schema")
    spec = SCHEMAS.get(schema) if isinstance(schema, str) else None
    if spec is None:
        sys.exit(f"compare_bench: {path} has schema {schema!r}, expected one "
                 f"of {', '.join(sorted(SCHEMAS))}")
    number(doc, "hardware_concurrency", path)
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        sys.exit(f"compare_bench: {path} contains no series rows")
    keys = ([rule.key for rule in spec.rules]
            + [f"{group}.count" for group in groups(spec)]
            + [field for field, _ in spec.zero])
    rows = {}
    for row in series:
        if not isinstance(row, dict):
            sys.exit(f"compare_bench: {path} has a series row that is not an "
                     f"object: {row!r}")
        name = row.get("series")
        if not isinstance(name, str) or not name:
            sys.exit(f"compare_bench: {path} has a series row without a name")
        if name in rows:
            sys.exit(f"compare_bench: {path} repeats series {name!r}")
        for key in keys:
            number(row, key, f"{path}: series {name!r}")
        rows[name] = row
    return schema, doc, rows


def compare_series(spec, name, base_row, cur_row):
    """Applies the per-series rules; returns (failure lines, improvements)."""
    failures, improvements, skip = [], 0, set()
    for group in groups(spec):
        base_n = number(base_row, f"{group}.count", name)
        cur_n = number(cur_row, f"{group}.count", name)
        if base_n == 0 and cur_n == 0:
            skip.add(group)  # never recorded on either side: not a gate
        elif base_n and cur_n == 0:
            skip.add(group)
            failures.append(f"  {name}: {group} stopped recording (baseline "
                            f"count {base_n} -> current 0)")
    for rule in spec.rules:
        if rule.key.rpartition(".")[0] in skip:
            continue
        label = rule.label or rule.key
        base = number(base_row, rule.key, name)
        cur = number(cur_row, rule.key, name)
        if base is None or cur is None:
            failures.append(f"  {name}: {label} missing from a document")
            continue
        if base <= 0:
            failures.append(f"  {name}: baseline {label} is {base!r} "
                            "(non-positive) — the baseline is broken; "
                            "re-record it instead of comparing against it")
            continue
        ratio = cur / base
        worse = ratio - 1.0 if rule.better == LOWER else 1.0 - ratio
        unit = "ns" if "_ns." in rule.key else ""
        if worse > rule.tolerance:
            verb = "rose" if rule.better == LOWER else "regressed"
            failures.append(
                f"  {name}: {label} {verb} {100 * worse:.1f}% (baseline "
                f"{base:,.0f}{unit} -> current {cur:,.0f}{unit}, tolerance "
                f"{100 * rule.tolerance:.0f}%)")
        elif worse < 0.0:
            improvements += 1
    return failures, improvements


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument(
        "--ignore-hardware-mismatch", action="store_true",
        help="apply the per-series rules even when the documents report "
        "different hardware_concurrency (absolute numbers are NOT comparable "
        "across machine classes; expect noise)")
    args = parser.parse_args()

    schema, base_doc, baseline = load_doc(args.baseline)
    cur_schema, cur_doc, current = load_doc(args.current)
    if cur_schema != schema:
        sys.exit(f"compare_bench: schema mismatch: {args.baseline} is "
                 f"{schema!r} but {args.current} is {cur_schema!r}")
    spec = SCHEMAS[schema]

    # Gates over CURRENT alone: they need no baseline, so they always run.
    failures = []
    for name in sorted(current):
        for field, what in spec.zero:
            if current[name].get(field, 0):
                failures.append(f"  {name}: current run reported "
                                f"{current[name][field]} {what}")
    if spec.intra:
        intra_failures, summary = spec.intra(cur_doc, current, args.current)
        failures += intra_failures
        if summary:
            print(summary)

    base_hw = base_doc.get("hardware_concurrency")
    cur_hw = cur_doc.get("hardware_concurrency")
    skipped = (base_hw is not None and cur_hw is not None and base_hw != cur_hw
               and not args.ignore_hardware_mismatch)
    improvements = 0
    if skipped:
        # A GitHub Actions annotation: a silently disarmed gate once hid a
        # dead baseline for a whole PR cycle, so the skip must be loud in the
        # checks UI. ONE per document, naming every skipped series.
        print(f"::warning title={schema} baseline gate skipped::baseline "
              f"hardware_concurrency={base_hw} does not match runner {cur_hw}; "
              f"the baseline comparison is NOT armed ({len(baseline)} series "
              f"skipped: {', '.join(sorted(baseline))}"
              f"{'; the intra-document gate still ran' if spec.intra else ''}). "
              "Refresh the committed baseline from a CI artifact "
              f"(README '{spec.readme}').")
        print(f"SKIPPED: baseline was recorded with hardware_concurrency="
              f"{base_hw}, current has {cur_hw} — absolute numbers are not "
              "comparable across machine classes, so no baseline rule was "
              "applied. To arm the gate, commit CI's *.ci.json artifact as the "
              f"baseline (README '{spec.readme}'), or pass "
              "--ignore-hardware-mismatch to force the comparison.")
    else:
        for name in sorted(baseline):
            if name not in current:
                failures.append(f"  {name}: present in baseline but missing "
                                "from current")
                continue
            series_failures, improved = compare_series(
                spec, name, baseline[name], current[name])
            failures += series_failures
            improvements += improved
        for name in sorted(set(current) - set(baseline)):
            failures.append(f"  {name}: present in current but missing from "
                            "baseline — the series sets must match (refresh "
                            "the committed baseline to adopt the new series)")

    if failures:
        print(f"FAIL: {len(failures)} {schema} gate failure(s) "
              f"({args.baseline} -> {args.current}):")
        print("\n".join(failures))
        print("If the change is expected, refresh the committed baseline "
              f"(README '{spec.readme}').")
        return 1
    if skipped:
        print(f"OK: the gates over {args.current} alone passed")
    else:
        print(f"OK: {len(baseline)} {schema} series within tolerance "
              f"({improvements} metrics improved)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
