"""Command-line front end.

Subcommands: ``compute`` (one value), ``table`` (CSV or JSONL stream),
``verify`` (one identity family), ``selfcheck`` (cross-validation plus the
whole identity battery, with per-family timing; ``--wide`` runs the
long-form battery).  Both batteries are data in ``identities``.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 stdout
closed early by its reader (128 + SIGPIPE).  Rows, in ascending n, fill one
template per format, one %-format per block of rows; values are decimal
strings, so JSON readers never hit the 53-bit limit; keys are kind, n, value, method.

Each subcommand's arguments are one table, ``_COMMANDS``.  A well-formed
argv (exact flag names, each with its value, every value valid and every
required argument present) is parsed from it directly; anything else, help
and ``--version`` included, goes to the argparse parser built from the same
table, which writes every usage line, help text and error.  So argparse, and
the gettext and locale modules it loads, are imported only when needed.
"""

import os
import sys
from types import SimpleNamespace

from . import __version__, arith
from .identities import FAMILIES, run_family, selfcheck_battery, wide_battery
from .routes import (DEFAULT_BRUTE_CAP, DEFAULT_ORDER, KINDS, MAX_BRUTE_CAP, METHODS, Config,
                     UsageError, point_value, table_windows)

# the verify flags, each an option of some family in identities.FAMILIES
_VERIFY_FLAGS = ("p", "j", "kmax", "nmax", "alphamax")
# table rows written by one %-format and one write.  Measured on a 2-core Xeon,
# writing 345 500 rows window by window to /dev/null in process, medians of 11
# interleaved runs: in blocks of 2**10, the a3 CSV, A3 CSV, B3 JSONL and A3
# Lambert tables took 0.27, 0.38, 0.47 and 0.30 s and peaked at 15.6, 16.9,
# 16.4 and 15.6 MB of RSS; at 2**12, 0.27, 0.39, 0.49 and 0.30 s and 15.7,
# 16.8, 17.2, 15.8 MB; at 2**14, 0.28, 0.41, 0.51, 0.31 s and 17.3, 19.4, 21.3, 17.6 MB.
_BLOCK = 1 << 10


def _row(fmt: str, kind: str, method: str) -> str:
    """A table row in ``fmt``, %d for its n and value; a JSONL row as json.dumps writes
    it, plus a newline: kind and method, choices the parsers check, need no escaping."""
    if fmt == "csv":
        return f"{kind},%d,%d,{method}\n"
    return f'{{"kind": "{kind}", "n": %d, "value": "%d", "method": "{method}"}}\n'


def _cmd_compute(args, cfg: Config) -> int:
    value = point_value(args.kind, args.method, args.n, cfg)
    sys.stdout.write(_row("jsonl", args.kind, args.method) % (args.n, value))
    return 0


def _cmd_table(args, cfg: Config) -> int:
    windows = table_windows(args.kind, args.method, args.nmax, cfg)
    row = _row(args.format, args.kind, args.method)
    out = sys.stdout
    # written with the first window, so a table whose first window fails
    # leaves stdout empty; one that fails later ends after the windows before
    header = "kind,n,value,method\n" if args.format == "csv" else ""
    # one %-format per block on n and value interleaved; a full block's made once
    full = (row * _BLOCK, [0] * (2 * _BLOCK))
    n = 0
    for values in windows:
        out.write(header)
        header = ""
        for start in range(0, len(values), _BLOCK):
            size = min(_BLOCK, len(values) - start)
            template, fields = full if size == _BLOCK else (row * size, [0] * (2 * size))
            fields[::2] = range(n + start, n + start + size)
            fields[1::2] = values[start:start + size]
            out.write(template % tuple(fields))
        n += len(values)
    out.write(header)
    return 0


def _summary_line(report) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (f"{report.family}: checked={report.checked} "
            f"failures={report.failed} {status}")


def _cmd_verify(args, cfg: Config) -> int:
    import json  # here, so that no other command pays for it

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


# each subcommand's help, handler and arguments, the arguments as the keyword
# arguments of argparse's add_argument: _build_parser hands them to argparse,
# and _parse_well_formed reads them for an argv that needs no argparse
_ORDER = ("--order", {"type": int, "default": DEFAULT_ORDER,
                      "help": f"series order budget (default {DEFAULT_ORDER})"})
_BRUTE_CAP = ("--brute-cap", {"type": int, "default": DEFAULT_BRUTE_CAP,
                              "help": f"brute-force cap (default {DEFAULT_BRUTE_CAP}, "
                                      f"at most {MAX_BRUTE_CAP})"})
_COMMANDS = {
    "compute": ("compute one value", _cmd_compute, (
        ("kind", {"choices": KINDS}),
        ("n", {"type": int}),
        ("--method", {"choices": METHODS, "default": "formula"}),
        _ORDER, _BRUTE_CAP)),
    "table": ("emit values for 0 <= n < nmax", _cmd_table, (
        ("kind", {"choices": KINDS}),
        ("--nmax", {"type": int, "required": True}),
        ("--method", {"choices": METHODS, "default": "formula"}),
        ("--format", {"choices": ("csv", "jsonl"), "default": "csv"}),
        _ORDER, _BRUTE_CAP)),
    "verify": ("verify one identity family", _cmd_verify, (
        ("family", {"help": "one of: " + ", ".join(FAMILIES)}),
        *((f"--{flag}", {"type": int, "default": None}) for flag in _VERIFY_FLAGS),
        _BRUTE_CAP)),
    "selfcheck": ("cross-validate all methods and run every family", _cmd_selfcheck, (
        ("--nmax", {"type": int, "default": 200}),
        ("--wide", {"action": "store_true", "default": False,
                    "help": "the long-form battery: wider ranges, more primes"}),
        ("--kmax", {"type": int, "default": None,
                    "help": "largest k of the --wide battery (default 4)"}),
        _BRUTE_CAP)),
}


def _build_parser():
    # argparse, and the gettext and locale its messages load, cost a point
    # query about 6 ms; only help, --version and usage errors pay for them
    import argparse

    parser = argparse.ArgumentParser(
        prog="core3",
        description=("Count 3-core partitions (a3), pairs (A3) and triples (B3) "
                     "by independent methods, and verify their identity families."),
        epilog=("Formula point queries factorize without a sieve: Miller-Rabin "
                "on the prime bases 2..41 and Pollard-Brent rho.  An argument "
                f"with a factor of at least {arith.PSI_13} that no base shows "
                "composite, or one that rho cannot split within its budget, is "
                "refused with exit code 2."))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, options in arguments:
            p.add_argument(name, **options)
        p.set_defaults(handler=handler, parser=p)
    return parser


def _parse_well_formed(argv: list[str]):
    """The attributes argparse sets for ``argv`` (its ``parser`` aside), or
    None unless argv is a subcommand followed by exact flag names, each but
    ``--wide`` with its value as the next token, and its positionals, every
    value converted and checked as argparse would and every required argument
    present.  Any token that starts with "-" and is not a flag declines, as
    does one in a value or positional slot: argparse decides those."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    flags = {name: options for name, options in arguments if name.startswith("-")}
    slots = iter([argument for argument in arguments if argument[0] not in flags])
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, options = token, flags.get(token)
            if options is None:
                return None
            if options.get("action") == "store_true":
                given[name] = True
                continue
            token = next(tokens, "-")  # a flag with no value declines below
            if token.startswith("-"):
                return None
        else:
            name, options = next(slots, (None, None))
            if name is None:
                return None
        try:
            value = options.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[name] = value
    if next(slots, None) is not None or any(
            options.get("required") and name not in given for name, options in flags.items()):
        return None
    # each dest as argparse derives it from the positional or --long-flag
    attrs = {name.lstrip("-").replace("-", "_"): given.get(name, options.get("default"))
             for name, options in arguments}
    return SimpleNamespace(command=argv[0], **attrs, handler=handler)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_well_formed(argv)
    if args is None:
        args, extras = _build_parser().parse_known_args(argv)
        if extras:
            # the subcommand's parser reports them, with its own usage line
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        # every subcommand has --brute-cap; only compute and table, whose routes
        # read the series order budget, have --order
        cfg = Config(getattr(args, "order", DEFAULT_ORDER), args.brute_cap)
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
