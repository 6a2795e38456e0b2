#!/usr/bin/env python3
"""Throughput regression guard.

Compares a freshly measured BENCH_throughput.json against the
committed baseline and fails (exit 1) when aggregate accesses/sec
regressed by more than the allowed percentage.

Usage:
    throughput_guard.py BASELINE.json NEW.json [--max-regression-pct N]
                        [--filter substr,substr,...]

When a filter is given (or the NEW json was produced by a filtered
bench run and only carries a case subset), the aggregate is
recomputed from the per-case sums restricted to cases present in
BOTH documents, so a filtered smoke run compares apples to apples
against the full committed baseline.

Environment:
    ATHENA_REGRESSION_PCT   overrides the threshold (useful on noisy
                            shared CI runners; the committed baseline
                            is measured on a quiet box)
    ATHENA_BENCH_FILTER     same comma-separated substring list the
                            bench accepts; applied as --filter when
                            the flag is absent, so the guard and the
                            bench run it checks share one knob
    ATHENA_SKIP_THROUGHPUT_GUARD=1   skips the check entirely

The committed baseline and the CI runner are different machines, so
the guard is a coarse parachute against order-of-magnitude
regressions (an accidentally quadratic loop, a debug build slipping
into Release), not a precision gate — precision comparisons are done
with alternated perfbench pairs against the parent build
(perfbench/README.md).
"""

import argparse
import json
import os
import sys


def rate(doc: dict) -> float:
    return float(doc.get("accesses_per_sec", 0.0))


def case_matches(name: str, tokens: list) -> bool:
    return not tokens or any(t and t in name for t in tokens)


def subset_rate(doc: dict, names: set) -> float:
    """Aggregate accesses/sec over the named case subset."""
    acc = 0.0
    wall = 0.0
    for c in doc.get("cases", []):
        if c["name"] in names and c.get("wall_seconds"):
            acc += float(c["accesses"])
            wall += float(c["wall_seconds"])
    return acc / wall if wall > 0.0 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--max-regression-pct", type=float,
                        default=10.0)
    parser.add_argument(
        "--filter", default=os.environ.get("ATHENA_BENCH_FILTER", ""),
        help="comma-separated case-name substrings (the bench's "
             "ATHENA_BENCH_FILTER syntax); restricts the comparison "
             "to matching cases and recomputes the aggregate over "
             "the intersection")
    parser.add_argument(
        "--advisory", action="store_true",
        help="report the comparison but always exit 0 — for "
             "cross-machine comparisons (e.g. hosted CI runners vs "
             "a committed dev-box baseline) where absolute rates "
             "are not commensurable")
    args = parser.parse_args()
    advisory = (args.advisory or
                os.environ.get("ATHENA_GUARD_ADVISORY") == "1")

    if os.environ.get("ATHENA_SKIP_THROUGHPUT_GUARD") == "1":
        print("throughput_guard: skipped "
              "(ATHENA_SKIP_THROUGHPUT_GUARD=1)")
        return 0

    pct = args.max_regression_pct
    env_pct = os.environ.get("ATHENA_REGRESSION_PCT")
    if env_pct:
        pct = float(env_pct)

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    tokens = [t.strip() for t in args.filter.split(",") if t.strip()]
    base_cases = {c["name"]: c for c in base.get("cases", [])}
    new_names = {c["name"] for c in new.get("cases", [])}
    common = {n for n in new_names
              if n in base_cases and case_matches(n, tokens)}

    if tokens or new_names != set(base_cases):
        # Filtered (or subset) run: compare only the intersection so
        # a smoke job measuring two cases is not judged against the
        # full 15-case baseline aggregate.
        if not common:
            print("throughput_guard: no common cases after filter "
                  f"{tokens}; nothing to compare")
            return 0
        base_rate = subset_rate(base, common)
        new_rate = subset_rate(new, common)
        print(f"throughput_guard: comparing case subset "
              f"{sorted(common)}")
    else:
        base_rate, new_rate = rate(base), rate(new)
    if base_rate <= 0.0:
        print("throughput_guard: baseline has no accesses_per_sec; "
              "nothing to compare")
        return 0

    change = (new_rate / base_rate - 1.0) * 100.0
    floor = base_rate * (1.0 - pct / 100.0)
    print(f"throughput_guard: baseline {base_rate:,.0f} acc/s, "
          f"new {new_rate:,.0f} acc/s ({change:+.1f}%), "
          f"allowed regression {pct:.0f}%")

    # Per-case detail for the log (cases are matched by name; new
    # cases are informational only).
    for c in new.get("cases", []):
        b = base_cases.get(c["name"])
        if not b or not b.get("wall_seconds"):
            continue
        if not case_matches(c["name"], tokens):
            continue
        br = b["accesses"] / b["wall_seconds"]
        nr = c["accesses"] / c["wall_seconds"]
        print(f"  {c['name']}: {nr:,.0f} vs {br:,.0f} "
              f"({(nr / br - 1) * 100.0:+.1f}%)")

    if new_rate < floor:
        if advisory:
            print(f"throughput_guard: WARN (advisory) — regression "
                  f"exceeds {pct}% (floor {floor:,.0f} acc/s); not "
                  "failing because this comparison crosses machines")
            return 0
        print(f"throughput_guard: FAIL — regression exceeds {pct}% "
              f"(floor {floor:,.0f} acc/s). Override with "
              "ATHENA_REGRESSION_PCT for known-noisy runners.")
        return 1
    print("throughput_guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
