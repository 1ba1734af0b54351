#!/usr/bin/env python3
"""Run the whole identity battery at generous ranges and print a summary.

This is the long-form version of ``core3 selfcheck``: wider sweeps, one
line per family with instance count and wall time.  Exits 1 if any
family reports a counterexample and 2 on a usage error, as ``core3`` does.
"""

import argparse
import sys
import time

from core3.identities import run_family


def battery(k_max: int, n_max: int) -> list[tuple[str, dict]]:
    """(family, options) in run order, every family a registered verify name."""
    wide = {"kmax": k_max, "nmax": n_max}
    return [
        ("cross-validate", {"nmax": 2000}),
        *(("a3-even-power", {"p": p, "kmax": 2 * k_max, "nmax": n_max}) for p in (2, 5, 11)),
        ("BN", {"kmax": k_max + 1, "nmax": n_max}),
        ("lin", {"nmax": 500}),
        *((f"{counter}relation-{variant}", {"p": p, **wide}) for p in (2, 5, 7, 11, 13)
          for counter in ("", "B3-") for variant in ("general", "coprime")),
        ("B3-relation-coprime", {"p": 3, **wide}),
        ("A3-residues", wide),
        ("B3-ids", {"kmax": k_max + 1, "nmax": n_max}),
        ("B3-residues", wide),
        ("xia-congruence", {"nmax": 1000}),
        *(("xia-conjecture", {"p": p, "j": j, "alphamax": 1, "nmax": 50})
          for p in (3, 5, 7) for j in (1, 2)),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=4)
    parser.add_argument("--nmax", type=int, default=200)
    args = parser.parse_args()
    if args.kmax < 1:
        parser.error("--kmax must be >= 1")
    if args.nmax < 0:
        parser.error("--nmax must be >= 0")

    failed = 0
    total = 0
    grand_start = time.perf_counter()
    try:
        for family, options in battery(args.kmax, args.nmax):
            for report in run_family(family, options):
                total += 1
                status = "ok" if report.passed else "FAIL"
                print(f"{report.family:<32} {report.checked:>8} instances "
                      f"{report.seconds:>7.2f}s  {status}")
                if not report.passed:
                    failed += 1
                    for failure in report.failures[:5]:
                        print(f"    counterexample {failure.inputs}: "
                              f"{failure.lhs} != {failure.rhs}")
    except ValueError as exc:
        # precondition violations from the library are usage errors, as in the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"\n{total - failed}/{total} families clean "
          f"in {time.perf_counter() - grand_start:.2f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
