"""The golden-output corpus: each argv of ``argvs()``, run in process through
``core3.cli.main``, and its exit code, stdout and stderr, as ``golden.json``
records them.  ``test_golden.py`` compares every argv with its entry.

    PYTHONPATH=src python tests/golden.py

rewrites ``golden.json`` from the code as it stands.
"""

import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from core3 import cli
from core3.identities import FAMILIES
from core3.routes import KINDS, MAX_SERIES_ORDER, MAX_TABLE_TERMS, METHODS

CORPUS = Path(__file__).with_name("golden.json")
# an output shorter than this is stored whole, so that a mismatch shows a diff
FULL_BELOW = 4096
# selfcheck's wall time per report, the one part of any output that varies
_SECONDS = re.compile(r"\[\d+\.\d\ds\]")


def perfbench_argvs(seeds) -> list[list[str]]:
    """Every argv of passes 0 and 1 of every perfbench workload at each seed,
    in order, each once."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # the oracle values only judge outputs, and the argvs do not read them:
    # a point query's value reads 0, and a table's digest renders no row
    stub = SimpleNamespace(lambert=SimpleNamespace(
        tuple_series=lambda k, order: SimpleNamespace(coeffs=defaultdict(int))))
    argvs = {}
    for seed in seeds:
        for workload in workloads.WORKLOADS.values():
            bench = workload(seed, stub)
            for index in range(2):
                argvs.update((tuple(command.argv), None) for command in bench.pass_commands(index))
    return [list(argv) for argv in argvs]


def argvs() -> list[list[str]]:
    """Every argv of the corpus, in order, each once."""
    prime = str(10**24 + 7)  # below psi_13, its powers past it
    groups = [
        # help texts and the version, argparse's
        [["--help"], ["--version"], *([command, "--help"] for command in cli._COMMANDS)],
        # the closed forms, at 10**20 past 2**64, and at 3n+2 = 2000003 * 2000029
        [["compute", kind, str(n)] for kind in KINDS for n in (0, 6, 10**6, 10**20)],
        [["compute", "A3", str((2000003 * 2000029 - 2) // 3)]],
        # every route and format across the formula table's windows of 2**13
        # rows, at the default budgets: each route answers, brute force to
        # --brute-cap 40
        [["table", kind, "--nmax", str(n), "--method", method, "--format", fmt]
         for kind in KINDS for method in METHODS for fmt in ("csv", "jsonl")
         for n in ((0, 1, 41) if method == "brute" else (0, 1, 8191, 8192, 8193, 16384, 16385))],
        # every family at its defaults, and the batteries
        [["verify", family] for family in FAMILIES],
        [["selfcheck"], ["selfcheck", "--nmax", "40"], ["selfcheck", "--wide"],
         ["selfcheck", "--wide", "--kmax", "1", "--nmax", "5"]],
        # routes and budgets at chosen points
        [["compute", "B3", "0", "--method", "brute"], ["compute", "a3", "3", "--method", "series"],
         ["compute", "a3", "1"], ["compute", "a3", "20", "--method", "brute"],
         ["compute", "B3", "0", "--method", "brute", "--brute-cap", "0"],
         ["compute", "a3", "6", "--method", "brute", "--brute-cap", "60"],
         ["table", "a3", "--nmax", "5"], ["table", "A3", "--nmax", "0"],
         ["table", "B3", "--nmax", "4", "--format", "jsonl"],
         ["table", "A3", "--nmax", "20", "--method", "lambert"],
         ["table", "a3", "--nmax", "4097"],
         # past the old series order budget of 2000, with no --order
         ["compute", "a3", "2000", "--method", "lambert"],
         ["table", "B3", "--nmax", "20000", "--method", "series"],
         ["table", "A3", "--nmax", "100000", "--method", "lambert"],
         # a count of about 4516 digits, past the int-to-str limit
         ["compute", "B3", str(2**7500 - 1)],
         *(["table", "a3", "--method", method, "--nmax", "50", "--order", "50"]
           for method in ("series", "lambert")),
         # argvs that only the argparse parser reads
         ["table", "a3", "--nm", "3"], ["table", "a3", "--nmax=3", "--format", "jsonl"]],
        # sweeps at chosen points: the sieve at scale, a cofactor prime past
        # the square root of the form's last term, coprime terms left out
        [["verify", "xia-congruence", "--nmax", "200"],
         ["verify", "BN", "--kmax", "2", "--nmax", "50"],
         ["verify", "B3-residues", "--kmax", "100", "--nmax", "2000"],
         ["verify", "cross-validate", "--nmax", "50", "--brute-cap", "20"],
         ["verify", "cross-validate", "--nmax", "61", "--brute-cap", "60"],
         ["verify", "relation-general", "--p", prime, "--kmax", "1", "--nmax", "1"],
         ["verify", "B3-relation-general", "--p", prime, "--kmax", "3", "--nmax", "1"],
         *(["verify", family, "--p", p, "--kmax", "4", "--nmax", "300"]
           for family, p in (("relation-coprime", prime), ("B3-relation-coprime", prime),
                             ("relation-coprime", "5"), ("relation-coprime", "2"),
                             ("B3-relation-coprime", "7")))],
        # refusals of a budget, each one error line
        [*(["compute", "a3", "5", flag, value]
           for flag, value in (("--brute-cap", "-1"), ("--brute-cap", "61"), ("--order", "0"))),
         ["compute", "a3", "-1"], ["compute", "a3", "100", "--method", "brute"],
         ["compute", "B3", "1", "--method", "brute", "--brute-cap", "0"],
         *(["compute", "a3", "61", "--method", "brute", "--brute-cap", cap]
           for cap in ("60", "61", "1000")),
         ["table", "a3", "--nmax", "-3"], ["table", "a3", "--nmax", "50", "--method", "brute"],
         ["table", "a3", "--nmax", "50", "--method", "brute", "--brute-cap", "9"],
         ["table", "a3", "--nmax", "30", "--method", "series", "--order", "10"]],
        # refusals at the series route's ceiling
        [["table", "B3", "--nmax", str(MAX_SERIES_ORDER + 1), "--method", "series",
          "--order", str(MAX_SERIES_ORDER + 1)],
         ["compute", "B3", str(MAX_SERIES_ORDER), "--method", "series",
          "--order", str(MAX_SERIES_ORDER + 1)],
         ["verify", "cross-validate", "--nmax", str(MAX_SERIES_ORDER + 1)],
         ["selfcheck", "--nmax", str(MAX_SERIES_ORDER + 1)]],
        # refusals at the table ceiling, before any sieve or progression, on
        # both streamed routes; a formula point query has no such ceiling
        [*(["table", kind, "--nmax", str(n), *lambert]
           for kind, n in (("A3", MAX_TABLE_TERMS + 1), ("a3", 10**16))
           for lambert in ([], ["--method", "lambert", "--order", str(n)])),
         ["compute", "B3", str(MAX_TABLE_TERMS), "--method", "lambert",
          "--order", str(MAX_TABLE_TERMS + 1)],
         ["compute", "A3", str(MAX_TABLE_TERMS)]],
        # refusals at the sweep and Xia ceilings, before any instance
        [*(["verify", *args, "--nmax", "0"] for args in (
            ["BN", "--kmax", str(10**12)], ["relation-general", "--p", "5", "--kmax", "3000"],
            ["B3-ids", "--kmax", "4095"], ["BN", "--kmax", "1024"],
            ["B3-residues", "--kmax", "880"], ["relation-coprime", "--p", "2", "--kmax", "3000"])),
         *(["verify", "xia-conjecture", "--p", "3", "--j", j, "--alphamax", "0", "--nmax", "0"]
           for j in ("5169", "9100", str(10**12))),
         *(["selfcheck", "--wide", "--kmax", kmax, "--nmax", "1"] for kmax in ("600", "2000"))],
        # Xia's conjecture at scale, each alpha read from one sieve over 6n+1
        [["verify", "xia-conjecture", "--p", p, "--j", j, "--nmax", "2000"]
         for p in ("3", "5", "7") for j in ("1", "2")],
        # refusals at the instance ceiling, before any instance: arguments of
        # about 40 bits, and a family held to it as a whole
        [*(["verify", family, "--nmax", str(10**12)] for family in FAMILIES
           if family != "structural"),
         ["verify", "xia-conjecture", "--alphamax", str(10**12)],
         ["verify", "B3-residues", "--kmax", "104", "--nmax", "2000"]],
        # refusals of a family's flags
        [["verify", "relation-general", "--p", "3"], ["verify", "relation-general", "--p", "4"],
         ["verify", "no-such-family"], ["verify", "relation-coprime", "--p", "2", "--nmax", "0"],
         *(["verify", family, flag, value, "--nmax", "3"] for family, flag, value in (
             ("lin", "--p", "7"), ("BN", "--alphamax", "2"), ("xia-congruence", "--kmax", "9"))),
         *(["verify", family, "--nmax", "-1"]
           for family in ("lin", "BN", "xia-congruence", "relation-general")),
         *(["verify", *args] for args in (
             ["relation-general", "--kmax", "-1"], ["A3-residues", "--kmax", "-1"],
             ["B3-residues", "--kmax", "-1"], ["a3-even-power", "--kmax", "1"],
             ["BN", "--kmax", "0"], ["B3-ids", "--kmax", "0"], ["xia-conjecture", "--j", "0"],
             ["xia-conjecture", "--alphamax", "-1"], ["xia-conjecture", "--nmax", "-1"],
             ["cross-validate", "--nmax", "0"])),
         ["selfcheck", "--nmax", "0"], ["selfcheck", "--kmax", "1"],
         *(["selfcheck", "--wide", "--kmax", kmax, "--nmax", nmax]
           for kmax, nmax in (("0", "5"), ("1", "-1"), ("1", "0")))],
        # refusals by argparse, with the usage line of the parser that reads them
        [[], ["nosuch"], ["compute", "c4", "1"], ["table", "a3"],
         ["compute", "a3", "1", "--brute-cap", "banana"],
         ["verify", "lin", "--order", "5"], ["selfcheck", "--order", "5"],
         ["verify", "lin", "--bogus", "1"], ["table", "a3", "--nmax", "3", "--bogus"]],
        perfbench_argvs((0, 1)),
    ]
    unique = {tuple(argv): None for group in groups for argv in group}
    return [list(argv) for argv in unique]


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``cli.main(argv)`` at a terminal
    80 columns wide, selfcheck's timings masked as ``[x.xxs]``."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its help to COLUMNS less 2
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's help, version and usage errors
            code = exc.code or 0
    return code, _SECONDS.sub("[x.xxs]", out.getvalue()), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def entry(code: int, out: str, err: str) -> dict:
    """An argv's record in the corpus: its exit code, the digest and size of
    its stdout and the digest of its stderr, and each stream as its lines
    where it is shorter than FULL_BELOW."""
    record = {"code": code, "stdout_sha256": _sha256(out), "stdout_bytes": len(out.encode()),
              "stderr_sha256": _sha256(err)}
    for name, text in (("stdout", out), ("stderr", err)):
        if len(text) < FULL_BELOW:
            record[name] = text.splitlines(keepends=True)
    return record


def load() -> dict:
    """{shlex.join(argv): entry} as ``golden.json`` holds it."""
    return json.loads(CORPUS.read_text())


def mismatch(key: str, expected: dict) -> str | None:
    """None if the argv ``key`` writes what ``expected`` records, else a
    report that names the argv and shows each field that differs, a stored
    stream as a diff of its lines."""
    got = entry(*run(shlex.split(key)))
    if got == expected:
        return None
    lines = [f"{key!r} differs from the corpus:"]
    for field in sorted(expected.keys() | got.keys()):
        old, new = expected.get(field), got.get(field)
        if old == new:
            continue
        if isinstance(old, list) and isinstance(new, list):
            lines += difflib.unified_diff(old, new, f"{field} recorded", f"{field} now",
                                          lineterm="")
        else:
            lines.append(f"{field}: {old!r} recorded, {new!r} now")
    return "\n".join(line.rstrip("\n") for line in lines)


def first_mismatch(corpus: dict) -> str | None:
    """The report of the first argv, in corpus order, that writes something
    other than its entry, or None if every one matches."""
    for key, expected in corpus.items():
        report = mismatch(key, expected)
        if report is not None:
            return report
    return None


def main() -> None:
    corpus = {shlex.join(argv): entry(*run(argv)) for argv in argvs()}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")


if __name__ == "__main__":
    main()
