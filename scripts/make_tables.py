#!/usr/bin/env python3
"""Generate value tables for the three counting functions.

Writes one CSV per kind (a3, A3, B3) into an output directory, computed by
the requested method, and cross-checks every row against the closed-form
route before writing.

Example:
    python scripts/make_tables.py --nmax 1000 --method series --out tables/
"""

import argparse
import sys
from pathlib import Path

from core3.routes import KINDS, METHODS, Config, table_values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=1000)
    parser.add_argument("--method", choices=METHODS, default="formula")
    parser.add_argument("--out", type=Path, default=Path("tables"))
    args = parser.parse_args()
    if args.nmax < 0:
        parser.error("--nmax must be >= 0")

    args.out.mkdir(parents=True, exist_ok=True)
    try:
        for kind in KINDS:
            values = table_values(kind, args.method, args.nmax, Config(order=args.nmax))
            closed = table_values(kind, "formula", args.nmax)
            for n, (value, expected) in enumerate(zip(values, closed)):
                if value != expected:
                    print(f"mismatch: {kind}({n}) {value} != {expected}", file=sys.stderr)
                    return 1
            path = args.out / f"{kind}.csv"
            with path.open("w") as handle:
                handle.write("kind,n,value,method\n")
                for n, value in enumerate(values):
                    handle.write(f"{kind},{n},{value},{args.method}\n")
            print(f"wrote {path} ({len(values)} rows, cross-checked)")
    except ValueError as exc:
        # precondition violations from the library are usage errors, as in the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
