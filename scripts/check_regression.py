#!/usr/bin/env python3
"""Same-host A/B perf gate over paired uvolt-bench-v1 documents.

Usage:
    scripts/check_regression.py --base B1.json ... --head H1.json ...
    scripts/check_regression.py --selftest

The i-th base and head documents form one pair: two runs of the two
builds on one host, back to back (scripts/ci.sh's perf leg runs nine
pairs and alternates which side runs first, so neither side always
gets the warm or the cold slot). For every benchmark present in all documents the gate
takes, per pair, the ratio of head to base min wall ns/iter (the
scheduler-noise floor, the most stable statistic the bench framework
reports) and fails the benchmark when the median of those ratios
exceeds 1 + its tolerance from TOLERANCES (DEFAULT_TOLERANCE for the
rest). The median over pairs lets one host-wide slow episode in a
minority of the pairs pass. Benchmarks present on one side only are
listed as added/removed and not gated.

Exit status: 0 all pass, 1 regression(s), 2 bad input.
"""

import argparse
import json
import statistics
import sys

SCHEMA = "uvolt-bench-v1"
DEFAULT_TOLERANCE = 0.5

# Per-benchmark tolerances: the largest median paired ratio - 1 that
# passes. Each listed band of 0.1, 0.2 or 0.3 is one that the median of
# nine pairs, resampled from the measured A/A pairs of one tree built
# twice (EXPERIMENTS.md), exceeds less than once in 2000 draws. Rows
# without such a band keep the one they had under the absolute-baseline
# gate (DEFAULT_TOLERANCE unless listed), as do the memo-hit and
# serving rows.
TOLERANCES = {
    "BM_MnistEvalScalar": 0.1,
    "BM_DeviceFaultCountFreshJitter": 0.2,
    "BM_FleetFanout0Workers": 0.2,
    "BM_FleetFanout1Worker": 0.2,
    "BM_FvmCacheHit": 0.2,
    "BM_QuantizeMnistModel": 0.2,
    "BM_CrcFrameEncode": 0.2,
    "BM_SecdedDecode": 0.2,
    "BM_KMeansClustering": 0.2,
    "BM_IcbpPlacement": 0.2,
    "BM_MnistInference": 0.2,
    "BM_MnistEvalBatched8Workers": 0.2,
    # A/A allows 0.1, but a relink that moves the AVX-512 kernel reads
    # up to 1.13 with no change to the NN code.
    "BM_MnistEvalBatched": 0.2,
    "BM_FleetFanout8Workers": 0.3,
    # Spreads from 0.6 to 1.2 us between runs of one binary.
    "BM_BramReadbackAtVcrash": 0.35,
    # One ~10 ns memo hit each: a few ns of host noise is a large
    # fraction.
    "BM_DeviceFaultCountMemoHit": 0.35,
    "BM_SweepInnerLoopMemoHitTelemetryOff": 0.35,
    # One closed-loop run whose tail is set by whichever campaigns
    # land in it, and whose coalescing follows the thread timing.
    "SV_ServeE2EP50": 1.5,
    "SV_ServeE2EP99": 1.5,
}


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot load '{path}': {err}")
    if doc.get("schema") != SCHEMA:
        sys.exit(f"error: '{path}' has schema {doc.get('schema')!r}, "
                 f"want {SCHEMA!r}")
    return {bench["name"]: float(bench.get("wall", {}).get("min_ns", 0.0))
            for bench in doc.get("benchmarks", [])}


def gate(base_docs, head_docs):
    """Judge paired {name: min_ns} documents.

    Returns (rows, failures, added, removed): rows are (name, median
    ratio or None, tolerance, ok) in head order; a row whose base min
    is zero in some pair is not gated (ratio None).
    """
    in_base = set.intersection(*(set(doc) for doc in base_docs))
    in_head = set.intersection(*(set(doc) for doc in head_docs))
    rows, failures = [], []
    for name in head_docs[0]:
        if name not in in_base or name not in in_head:
            continue
        tolerance = TOLERANCES.get(name, DEFAULT_TOLERANCE)
        if any(base[name] <= 0.0 for base in base_docs):
            rows.append((name, None, tolerance, True))
            continue
        ratio = statistics.median(head[name] / base[name] for base, head
                                  in zip(base_docs, head_docs))
        ok = ratio <= 1.0 + tolerance
        rows.append((name, ratio, tolerance, ok))
        if not ok:
            failures.append(name)
    return (rows, failures, sorted(in_head - in_base),
            sorted(in_base - in_head))


def report(rows, failures, added, removed):
    print(f"{'benchmark':<40} {'median head/base':>16} {'tolerance':>9}  "
          "verdict")
    for name, ratio, tolerance, ok in rows:
        shown = "n/a" if ratio is None else f"{ratio:.3f}"
        verdict = ("SKIP (zero base)" if ratio is None
                   else "ok" if ok else "REGRESSION")
        print(f"{name:<40} {shown:>16} {tolerance:>9.2f}  {verdict}")
    for name in added:
        print(f"note: '{name}' is new (not gated)")
    for name in removed:
        print(f"note: '{name}' is gone from head (not gated)")
    for name in failures:
        print(f"REGRESSION: {name}", file=sys.stderr)


def selftest():
    """The gate's own contract, on synthetic documents."""
    names = ["BM_SecdedDecode", "BM_CrcFrameEncode", "BM_KMeansClustering"]
    wobble = [1.00, 1.03, 0.98, 1.02, 0.97]  # same-host run-to-run noise

    def docs(shift, scale=lambda pair, name: 1.0, extra=()):
        return [{name: 1000.0 * wobble[(pair + i + shift) % 5] *
                 scale(pair, name)
                 for i, name in enumerate(names + list(extra))}
                for pair in range(5)]

    base = docs(0)
    cases = [
        ("A/A passes", docs(1), []),
        ("1.3x on one row fails",
         docs(1, lambda pair, name:
              1.3 if name == "BM_SecdedDecode" else 1.0),
         ["BM_SecdedDecode"]),
        ("one 1.6x host-wide episode passes",
         docs(1, lambda pair, name: 1.6 if pair == 2 else 1.0), []),
    ]
    ok = True
    for label, head, want in cases:
        failures = gate(base, head)[1]
        ok &= failures == want
        print(f"selftest: {label}: failures {failures} "
              f"({'ok' if failures == want else 'WRONG'})")
    head = [{name: ns for name, ns in doc.items() if name != names[2]}
            for doc in docs(1, extra=["BM_New"])]
    _, failures, added, removed = gate(base, head)
    listed = (failures, added, removed) == ([], ["BM_New"], [names[2]])
    ok &= listed
    print(f"selftest: added/removed listed, not gated: added {added}, "
          f"removed {removed} ({'ok' if listed else 'WRONG'})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", default=[], metavar="DOC")
    parser.add_argument("--head", nargs="+", default=[], metavar="DOC")
    parser.add_argument("--selftest", action="store_true",
                        help="check the gate on synthetic documents")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.base or len(args.base) != len(args.head):
        print("error: need one --head document per --base document",
              file=sys.stderr)
        return 2

    rows, failures, added, removed = gate([load(p) for p in args.base],
                                          [load(p) for p in args.head])
    print(f"# perf gate: {len(args.base)} same-host pair(s), metric: "
          "median over pairs of head/base min wall ns/iter")
    report(rows, failures, added, removed)
    if failures:
        return 1
    print(f"all {len(rows)} shared benchmark(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
