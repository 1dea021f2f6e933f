#!/usr/bin/env python
"""Fail CI when sweep throughput regresses against the committed baseline.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_5.json \
        --current bench-current.json \
        --max-regression 0.25

Both files are ``pytest-benchmark`` JSON dumps.  For every benchmark
name present in both, the best (minimum) observed time is compared; the
check fails if any gated benchmark is more than ``--max-regression``
slower than the baseline.  Minimum times are used because they are the
least noise-sensitive statistic a 3-round run offers; the allowance is
generous for the same reason.  Benchmarks present in only one file are
reported but never fail the check, so adding a benchmark does not
require regenerating the baseline in the same commit.

Throughput rates are gated alongside the times: every ``extra_info``
key ending in ``_per_s`` (``accesses_per_s``, ``events_per_s``, ...)
present in both files is compared as a higher-is-better number with the
same fractional allowance.  The rates catch the failure mode raw times
cannot — a change that shrinks the measured work and its wall time
together looks fine by time but shows up as a rate drop.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_minimums(path: str) -> dict[str, float]:
    with open(path) as handle:
        payload = json.load(handle)
    return {
        bench["fullname"]: bench["stats"]["min"]
        for bench in payload["benchmarks"]
    }


def load_rates(path: str) -> dict[str, dict[str, float]]:
    """Per-benchmark ``extra_info`` throughput rates (higher is better)."""
    with open(path) as handle:
        payload = json.load(handle)
    return {
        bench["fullname"]: {
            key: float(value)
            for key, value in bench.get("extra_info", {}).items()
            if key.endswith("_per_s") and isinstance(value, (int, float))
        }
        for bench in payload["benchmarks"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional slowdown (0.25 = 25%% slower)",
    )
    parser.add_argument(
        "--gate", default="",
        help="only benchmarks whose name contains this substring can fail "
             "the check; others are reported informationally (default: all "
             "gate). The ~10 ms micro-benchmarks are noisier than the "
             "allowance, so CI gates the sweep throughput only.",
    )
    args = parser.parse_args(argv)

    baseline = load_minimums(args.baseline)
    current = load_minimums(args.current)
    baseline_rates = load_rates(args.baseline)
    current_rates = load_rates(args.current)

    failed = False
    for name in sorted(baseline):
        if name not in current:
            print(f"SKIP (not in current run): {name}")
            continue
        old, new = baseline[name], current[name]
        change = new / old - 1.0
        gated = args.gate in name
        status = "ok" if gated else "info"
        if change > args.max_regression and gated:
            status = "REGRESSION"
            failed = True
        print(
            f"{status:>10}  {name}: {old * 1e3:.2f} ms -> {new * 1e3:.2f} ms "
            f"({change:+.1%})"
        )
        old_rates = baseline_rates.get(name, {})
        new_rates = current_rates.get(name, {})
        for key in sorted(set(old_rates) & set(new_rates)):
            old_r, new_r = old_rates[key], new_rates[key]
            drop = 1.0 - new_r / old_r
            status = "ok" if gated else "info"
            if drop > args.max_regression and gated:
                status = "REGRESSION"
                failed = True
            print(
                f"{status:>10}  {name} [{key}]: {old_r:,.0f} -> {new_r:,.0f} "
                f"({-drop:+.1%})"
            )
    for name in sorted(set(current) - set(baseline)):
        print(f"NEW (no baseline): {name}")

    if failed:
        print(
            f"FAILED: at least one benchmark regressed more than "
            f"{args.max_regression:.0%}",
            file=sys.stderr,
        )
        return 1
    print("All gated benchmarks within the regression allowance.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
