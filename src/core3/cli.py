"""Command-line front end.

Subcommands: ``compute`` (one value), ``table`` (CSV or JSONL stream),
``verify`` (one identity family), ``selfcheck`` (cross-validation plus the
whole identity battery, with per-family timing; ``--wide`` runs the
long-form battery).  Both batteries are data in ``identities``.

Exit codes: 0 success, 1 a verification failure or an internal check that
failed (``internal error: ...`` on stderr), 2 usage error, 141 stdout closed
early by its reader (128 + SIGPIPE).  A finished run flushes stdout
and stderr and ends with ``os._exit``, skipping the interpreter's teardown,
unless a trace or profile function or a ``sys.monitoring`` tool is set;
help, ``--version``, argparse's usage errors, a closed pipe and an uncaught
exception exit normally.  Rows, in ascending n, fill one template per
format, one %-format per block of rows; values are decimal strings, so JSON
readers never hit the 53-bit limit; keys are kind, n, value, method.

A formula or Lambert table of more than one window is shared out over one
forked worker per usable CPU, P = min(CPUs, windows), each pinned to a CPU
of its own: worker r computes windows r, r + P, ... and formats their rows
into its own pipe, and the parent writes the windows in order, so stdout,
stderr and the exit code are those of one process.  A worker's exception
is pickled down its pipe and raised by the parent at that window.  A
worker never writes to ``sys.stdout`` and ends by ``os._exit``, so nothing
of the parent, buffered output included, runs or flushes in it; the
parent kills and reaps every worker on every path.  Series and brute
tables, a table of one window, one CPU, no ``os.fork``, or a trace or
profile function or ``sys.monitoring`` tool keep the one-process path.

Each subcommand's arguments are one table, ``_COMMANDS``.  A well-formed
argv (exact flag names, each with its value, every value valid and every
required argument present) is parsed from it directly; anything else, help
and ``--version`` included, goes to the argparse parser built from the same
table, which writes every usage line, help text and error.  So argparse, and
the gettext and locale modules it loads, are imported only when needed.

A command imports only the modules it runs: ``compute`` and ``table`` reach
``arith`` through ``routes``, which imports ``series`` and ``lambert`` only
for a table of their method; ``verify`` and ``selfcheck`` import
``identities`` when they run, and the argparse parser when it lists the
families in the help of ``verify``; ``identities`` imports the engines only
for the structural checks.
"""

import os
import sys
from types import SimpleNamespace

from . import __version__, arith
from .routes import (DEFAULT_BRUTE_CAP, KINDS, MAX_BRUTE_CAP, MAX_SERIES_ORDER, METHODS,
                     Config, UsageError, point_value, table_window, table_windows)

# the verify flags, each an option of some family in identities.FAMILIES
_VERIFY_FLAGS = ("p", "j", "kmax", "nmax", "alphamax")
# table rows written by one %-format and one write.  Measured on a 2-core Xeon,
# writing 345 500 rows window by window to /dev/null in process, medians of 11
# interleaved runs: in blocks of 2**10, the a3 CSV, A3 CSV, B3 JSONL and A3
# Lambert tables took 0.27, 0.38, 0.47 and 0.30 s; at 2**12, 0.27, 0.39, 0.49
# and 0.30 s; at 2**14, 0.28, 0.41, 0.51 and 0.31 s.  With one window alive
# at a time they peak end to end at 14.7, 15.1, 15.2 and 14.7 MB of RSS in
# blocks of 2**10, 14.8, 15.3, 15.8 and 15.1 MB at 2**12 and 16.0, 17.3, 20.5
# and 17.4 MB at 2**14 (medians of 7; `compute A3 6`: 14.2 MB).
_BLOCK = 1 << 10


def _row(fmt: str, kind: str, method: str) -> str:
    """A table row in ``fmt``, %d for its n and value; a JSONL row as json.dumps writes
    it, plus a newline: kind and method, choices the parsers check, need no escaping."""
    if fmt == "csv":
        return f"{kind},%d,%d,{method}\n"
    return f'{{"kind": "{kind}", "n": %d, "value": "%d", "method": "{method}"}}\n'


def _cmd_compute(args, cfg: Config) -> int:
    value = point_value(args.kind, args.method, args.n, cfg)
    # n was parsed under the int-to-str limit (4300 digits by default), and a
    # count has at most about twice its digits: lift the limit for this one
    # conversion, about 1 ms at 8600 digits, and restore it for in-process callers
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        row = _row("jsonl", args.kind, args.method) % (args.n, value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(row)
    return 0


def _rows(row: str, n: int, values):
    """The rows of a window whose first n is ``n``, as one string per block of
    _BLOCK rows: one %-format per block on n and value interleaved, a full
    block's template made once."""
    full = (row * _BLOCK, [0] * (2 * _BLOCK))
    for start in range(0, len(values), _BLOCK):
        size = min(_BLOCK, len(values) - start)
        template, fields = full if size == _BLOCK else (row * size, [0] * (2 * size))
        fields[::2] = range(n + start, n + start + size)
        fields[1::2] = values[start:start + size]
        yield template % tuple(fields)


def _cpus() -> list[int]:
    """The CPUs this process may run on."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return sorted(getaffinity(0)) if getaffinity else list(range(os.cpu_count() or 1))


def _hooked() -> bool:
    """Whether a profiler, tracer, debugger or coverage tool is hooked in: by
    a trace or profile function or, from Python 3.12, by a sys.monitoring
    tool id (0-5)."""
    monitoring = getattr(sys, "monitoring", None)
    return sys.gettrace() is not None or sys.getprofile() is not None or (
        monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6)))


def _cmd_table(args, cfg: Config) -> int:
    # every refusal is made here, before any window is computed or worker forked
    windows = table_windows(args.kind, args.method, args.nmax, cfg)
    rows = table_window(args.kind, args.method, args.nmax)
    count = -(-args.nmax // rows) if rows else 0
    cpus = _cpus()[:count]
    row = _row(args.format, args.kind, args.method)
    out = sys.stdout
    # written with the first window, so a table whose first window fails
    # leaves stdout empty; one that fails later ends after the windows before
    header = "kind,n,value,method\n" if args.format == "csv" else ""
    if len(cpus) > 1 and hasattr(os, "fork") and not _hooked():
        _write_shared(args, cfg, rows, count, cpus, row, header)
        return 0
    n = 0
    for values in windows:
        out.write(header)
        header = ""
        out.writelines(_rows(row, n, values))
        n += len(values)
        # let the window go before the next one is computed
        values = None
    out.write(header)
    return 0


# a frame on a worker's pipe: its size, signed, in _FRAME bytes, then its
# bytes.  Rows have a positive size, the end of a window 0, and a failure the
# negative size of the exception, pickled
_FRAME = 8
_WINDOW_END = bytes(_FRAME)


def _frame(data: bytes, sign: int = 1) -> bytes:
    return (sign * len(data)).to_bytes(_FRAME, "little", signed=True) + data


def _serve(pipe, args, cfg: Config, rows: int, count: int, share: int, shares: int,
           row: str) -> None:
    """A worker's part: windows share, share + shares, ... of the table, each
    as frames of rows on ``pipe`` and its end, or the exception that ended them."""
    try:
        for index, values in zip(range(share, count, shares), table_windows(
                args.kind, args.method, args.nmax, cfg, share, shares)):
            for text in _rows(row, index * rows, values):
                pipe.write(_frame(text.encode()))
            pipe.write(_WINDOW_END)
            # the parent waits for the window's end, which must not wait in
            # the buffer for the next window
            pipe.flush()
            values = None
    except Exception as exc:
        import pickle
        pipe.write(_frame(pickle.dumps(exc), -1))


def _read_frame(pipe, index: int) -> bytes:
    """The next frame of rows of window ``index`` on ``pipe``, b"" at the
    window's end; a worker's exception is raised here."""
    head = pipe.read(_FRAME)
    size = int.from_bytes(head, "little", signed=True)
    data = pipe.read(abs(size))
    if len(head) < _FRAME or len(data) < abs(size):
        raise ChildProcessError(f"the table worker of window {index} ended before it")
    if size < 0:
        import pickle
        raise pickle.loads(data)
    return data


def _write_shared(args, cfg: Config, rows: int, count: int, cpus: list[int], row: str,
                  header: str) -> None:
    """The table by one forked worker per CPU of ``cpus``, worker r filling
    windows r, r + shares, ... into its own pipe, shares the number of
    workers; the windows are written here, in order."""
    import signal

    out = sys.stdout
    shares = len(cpus)
    pipes, pids = [], []
    try:
        for share, cpu in enumerate(cpus):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the worker: its own pipe's write end is all it keeps, and it
                # never returns, so nothing of the parent runs in it again
                code = 1
                try:
                    os.close(read)
                    for pipe in pipes:
                        pipe.close()
                    # each worker on a CPU of its own: Linux wakes a pipe's
                    # reader on its writer's CPU, so unpinned workers ran by
                    # turns on the parent's
                    try:
                        os.sched_setaffinity(0, {cpu})
                    except (AttributeError, OSError):
                        pass
                    with open(write, "wb") as pipe:
                        _serve(pipe, args, cfg, rows, count, share, shares, row)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            os.close(write)
            pipes.append(open(read, "rb"))
        for index in range(count):
            pipe = pipes[index % shares]
            data = _read_frame(pipe, index)
            out.write(header)
            header = ""
            while data:
                out.write(data.decode())
                data = _read_frame(pipe, index)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            # a worker may still be filling a window or waiting on its pipe
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _summary_line(report) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (f"{report.family}: checked={report.checked} "
            f"failures={report.failed} {status}")


def _cmd_verify(args, cfg: Config) -> int:
    import json  # here, so that no other command pays for it

    from .identities import run_family

    options = {flag: getattr(args, flag) for flag in _VERIFY_FLAGS}
    reports = run_family(args.family, {**options, "brute_cap": cfg.brute_cap})
    for report in reports:
        print(_summary_line(report))
    print(json.dumps({"reports": [r.as_dict() for r in reports]}))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_selfcheck(args, cfg: Config) -> int:
    from .identities import run_family, selfcheck_battery, wide_battery

    if args.wide:
        battery = wide_battery(4 if args.kmax is None else args.kmax, args.nmax)
    elif args.kmax is not None:
        raise UsageError("--kmax needs --wide")
    else:
        battery = selfcheck_battery(args.nmax)
    # every report before any line, so that a family refused partway through
    # the battery leaves stdout empty, as verify does; the brute cap is run-wide
    reports = [report for family, options in battery
               for report in run_family(family, {**options, "brute_cap": cfg.brute_cap})]
    failed = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.family:<32} checked={report.checked:<8} "
              f"{status}  [{report.seconds:.2f}s]")
        if not report.passed:
            failed += 1
            for failure in report.failures[:5]:
                print(f"    counterexample {failure.inputs}: "
                      f"{failure.lhs} != {failure.rhs}")
    print(f"selfcheck: {len(reports) - failed}/{len(reports)} families passed")
    return 1 if failed else 0


# each subcommand's help, handler and arguments, the arguments as the keyword
# arguments of argparse's add_argument: _build_parser hands them to argparse,
# and _parse_well_formed reads them for an argv that needs no argparse
_ORDER = ("--order", {"type": int, "default": MAX_SERIES_ORDER,
                      "help": f"series order budget (default and most {MAX_SERIES_ORDER})"})
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
        ("family", {}),  # its help, the family names, is added by _build_parser
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

    from .identities import FAMILIES

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
            if name == "family":
                options = {**options, "help": "one of: " + ", ".join(FAMILIES)}
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
        # every subcommand has --brute-cap; only compute and table, whose series
        # route reads the order budget, have --order
        cfg = Config(getattr(args, "order", MAX_SERIES_ORDER), args.brute_cap)
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
    sys.stderr.flush()
    # both streams are out, so skip the interpreter's teardown, which frees
    # every module and object (about 10 ms a run); a profiler, tracer,
    # debugger or coverage tool writes its report at exit, so under one the
    # exit is normal
    if not _hooked():
        os._exit(code)
    sys.exit(code)
