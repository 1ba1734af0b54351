"""Command-line front end.

Subcommands: ``compute`` (one value), ``table`` (CSV or JSONL stream),
``verify`` (one identity family), ``selfcheck`` (cross-validation plus the
whole identity battery, with per-family timing; ``--wide`` runs the
long-form battery).  Both batteries are data in ``identities``.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 stdout
closed early by its reader (128 + SIGPIPE).  Values are
always printed as decimal strings so downstream JSON consumers never hit
the 53-bit number limit.  Output ordering is deterministic: ascending n,
JSON keys fixed as kind, n, value, method.
"""

import argparse
import json
import os
import sys

from . import __version__, arith
from .identities import FAMILIES, run_family, selfcheck_battery, wide_battery
from .routes import (DEFAULT_BRUTE_CAP, DEFAULT_ORDER, KINDS, MAX_BRUTE_CAP, METHODS, Config,
                     UsageError, point_value, table_values)

ENV_BRUTE_CAP = "CORE3_BRUTE_CAP"


# the verify flags, each an option of some family in identities.FAMILIES
_VERIFY_FLAGS = ("p", "j", "kmax", "nmax", "alphamax")


def _make_config(args) -> Config:
    # every subcommand has --brute-cap; only compute and table, whose routes
    # read the series order budget, have --order
    order = getattr(args, "order", DEFAULT_ORDER)
    if order < 1:
        raise UsageError("--order must be >= 1")
    if args.brute_cap is not None:
        source, raw = "--brute-cap", args.brute_cap
    else:
        source, raw = ENV_BRUTE_CAP, os.environ.get(ENV_BRUTE_CAP, DEFAULT_BRUTE_CAP)
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise UsageError(f"{source} must be an integer >= 0, got {raw!r}")
    if cap > MAX_BRUTE_CAP:
        raise UsageError(f"{source} must be at most {MAX_BRUTE_CAP}, got {raw!r}")
    return Config(order=order, brute_cap=cap)


def _record(kind: str, n: int, value: int, method: str) -> dict:
    return {"kind": kind, "n": n, "value": str(value), "method": method}


def _jsonl_lines(kind: str, values: list[int], method: str):
    """``json.dumps(_record(kind, n, value, method))`` plus a newline per row,
    formatted directly: kind and method are argparse choices, which need no
    JSON escaping, and a value is the decimal string of an int."""
    return (f'{{"kind": "{kind}", "n": {n}, "value": "{value}", "method": "{method}"}}\n'
            for n, value in enumerate(values))


def _cmd_compute(args, cfg: Config) -> int:
    value = point_value(args.kind, args.method, args.n, cfg)
    print(json.dumps(_record(args.kind, args.n, value, args.method)))
    return 0


def _cmd_table(args, cfg: Config) -> int:
    values = table_values(args.kind, args.method, args.nmax, cfg)
    out = sys.stdout
    if args.format == "csv":
        out.write("kind,n,value,method\n")
        out.writelines(f"{args.kind},{n},{value},{args.method}\n"
                       for n, value in enumerate(values))
    else:
        out.writelines(_jsonl_lines(args.kind, values, args.method))
    return 0


def _summary_line(report) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (f"{report.family}: checked={report.checked} "
            f"failures={report.failed} {status}")


def _cmd_verify(args, cfg: Config) -> int:
    options = {flag: getattr(args, flag) for flag in _VERIFY_FLAGS}
    reports = run_family(args.family, {**options, "brute_cap": cfg.brute_cap})
    for report in reports:
        print(_summary_line(report))
    print(json.dumps({"reports": [r.as_dict() for r in reports]}))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_selfcheck(args, cfg: Config) -> int:
    if args.wide:
        battery = wide_battery(4 if args.kmax is None else args.kmax, args.nmax,
                               cfg.brute_cap)
    elif args.kmax is not None:
        raise UsageError("--kmax needs --wide")
    else:
        battery = selfcheck_battery(args.nmax, cfg.brute_cap)
    total = 0
    failed = 0
    for family, options in battery:
        for report in run_family(family, options):
            total += 1
            status = "PASS" if report.passed else "FAIL"
            print(f"{report.family:<32} checked={report.checked:<8} "
                  f"{status}  [{report.seconds:.2f}s]")
            if not report.passed:
                failed += 1
                for failure in report.failures[:5]:
                    print(f"    counterexample {failure.inputs}: "
                          f"{failure.lhs} != {failure.rhs}")
    print(f"selfcheck: {total - failed}/{total} families passed")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="core3",
        description=("Count 3-core partitions (a3), pairs (A3) and triples (B3) "
                     "by independent methods, and verify their identity families."),
        epilog=(f"Environment: {ENV_BRUTE_CAP} sets the brute-force cap "
                f"(default {DEFAULT_BRUTE_CAP}, at most {MAX_BRUTE_CAP}); flags take "
                "precedence over it. "
                "Formula point queries factorize without a sieve: Miller-Rabin "
                "on the prime bases 2..41 and Pollard-Brent rho.  An argument "
                f"with a factor of at least {arith.PSI_13} that no base shows "
                "composite, or one that rho cannot split within its budget, is "
                "refused with exit code 2."))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=True):
        if order:
            p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                           help=f"series order budget (default {DEFAULT_ORDER})")
        p.add_argument("--brute-cap", type=int, default=None, dest="brute_cap",
                       help=f"brute-force cap (default {DEFAULT_BRUTE_CAP}, "
                            f"at most {MAX_BRUTE_CAP})")

    p_compute = sub.add_parser("compute", help="compute one value")
    p_compute.add_argument("kind", choices=KINDS)
    p_compute.add_argument("n", type=int)
    p_compute.add_argument("--method", choices=METHODS, default="formula")
    common(p_compute)
    p_compute.set_defaults(handler=_cmd_compute, parser=p_compute)

    p_table = sub.add_parser("table", help="emit values for 0 <= n < nmax")
    p_table.add_argument("kind", choices=KINDS)
    p_table.add_argument("--nmax", type=int, required=True)
    p_table.add_argument("--method", choices=METHODS, default="formula")
    p_table.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    common(p_table)
    p_table.set_defaults(handler=_cmd_table, parser=p_table)

    p_verify = sub.add_parser("verify", help="verify one identity family")
    p_verify.add_argument("family", help="one of: " + ", ".join(FAMILIES))
    for flag in _VERIFY_FLAGS:
        p_verify.add_argument(f"--{flag}", type=int, default=None)
    common(p_verify, order=False)
    p_verify.set_defaults(handler=_cmd_verify, parser=p_verify)

    p_self = sub.add_parser("selfcheck",
                            help="cross-validate all methods and run every family")
    p_self.add_argument("--nmax", type=int, default=200)
    p_self.add_argument("--wide", action="store_true",
                        help="the long-form battery: wider ranges, more primes")
    p_self.add_argument("--kmax", type=int, default=None,
                        help="largest k of the --wide battery (default 4)")
    common(p_self, order=False)
    p_self.set_defaults(handler=_cmd_selfcheck, parser=p_self)

    return parser


def main(argv=None) -> int:
    args, extras = _build_parser().parse_known_args(argv)
    if extras:
        # the subcommand's parser reports them, with its own usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        cfg = _make_config(args)
        return args.handler(args, cfg)
    except ValueError as exc:
        # precondition violations from the library are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    try:
        code = main()
        # flush here, so a reader that closed the pipe early is met below
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)
