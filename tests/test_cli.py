import contextlib
import csv
import decimal
import io
import json
import os
import pstats
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from itertools import chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from core3 import arith, cli, identities, lambert, routes, series
from core3.cli import KINDS, METHODS, Config, UsageError, main
from core3.routes import MAX_SERIES_ORDER, MAX_TABLE_TERMS

CORPUS = golden.load()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def matches_corpus(*argvs):
    """Each argv writes the exit code, stdout and stderr that the
    golden-output corpus records for it."""
    for argv in argvs:
        key = shlex.join(argv)
        report = golden.mismatch(key, CORPUS[key])
        assert report is None, report


def test_compute_formula():
    matches_corpus(["compute", "A3", "6"])


def test_compute_brute():
    matches_corpus(["compute", "B3", "0", "--method", "brute"])


def test_compute_series():
    matches_corpus(["compute", "a3", "3", "--method", "series"])


def test_compute_all_methods_agree(capsys):
    values = set()
    for method in ("formula", "series", "lambert", "brute"):
        code, out, _ = run_cli(capsys, "compute", "B3", "7", "--method", method)
        assert code == 0
        values.add(json.loads(out)["value"])
    assert len(values) == 1


def test_compute_usage_errors():
    # the last, an unknown kind, is an argparse error
    matches_corpus(["compute", "a3", "100", "--method", "brute"], ["compute", "a3", "-1"],
                   ["compute", "c4", "1"])


def test_table_csv():
    matches_corpus(["table", "a3", "--nmax", "5"])


def test_table_jsonl():
    matches_corpus(["table", "B3", "--nmax", "4", "--format", "jsonl"])


def test_table_empty_range():
    matches_corpus(["table", "A3", "--nmax", "0"])


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("method", ["formula", "lambert"])
@pytest.mark.parametrize("kind", KINDS)
def test_table_bytes_do_not_depend_on_the_windows(capsys, monkeypatch, kind, method, fmt):
    def tables():
        return [run_cli(capsys, "table", kind, "--nmax", str(n), "--method", method,
                        "--format", fmt, "--order", str(max(n, 1)))
                for n in (0, 1, 15, 16, 17, 33, 50)]

    default = tables()
    # windows of 16 rows (8 * 2 for the formula table's one side) cross 0 to
    # 3 boundaries above, each in one block and then in blocks of 5 rows
    monkeypatch.setattr(arith, "_SIDE_WINDOW", 2)
    monkeypatch.setattr(lambert, "_WINDOW", 16)
    assert tables() == default
    monkeypatch.setattr(cli, "_BLOCK", 5)
    assert tables() == default


def _on_cpus(monkeypatch, cpus: int) -> list:
    """Let ``table`` see ``cpus`` CPUs; the list returned logs each fork."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(cli, "_cpus", lambda: list(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(cpus) or fork())
    return forks


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("method", ["formula", "lambert"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_table_shared_out_over_workers_writes_the_same_bytes(capsys, monkeypatch, kind,
                                                               method, fmt):
    # windows of 16 rows: the tables cross 0 to 3 window boundaries, and one
    # of 2 to 4 windows is shared out over 2 or 3 workers, one per CPU
    monkeypatch.setattr(arith, "_SIDE_WINDOW", 2)
    monkeypatch.setattr(lambert, "_WINDOW", 16)
    sizes = (0, 1, 15, 16, 17, 33, 50)

    def tables(cpus):
        forks = _on_cpus(monkeypatch, cpus)
        written = [run_cli(capsys, "table", kind, "--nmax", str(n), "--method", method,
                           "--format", fmt) for n in sizes]
        workers = [min(cpus, -(-n // 16)) for n in sizes]
        assert len(forks) == sum(p for p in workers if p > 1)
        return written

    one = tables(1)
    assert [code for code, _, _ in one] == [0] * len(sizes)
    assert tables(2) == one
    assert tables(3) == one


def test_a_rule_broken_in_a_workers_window_fails_as_in_one_process(capsys, monkeypatch):
    # windows of 16 rows; sigma's rule at the prime 53 = 3*17 + 2, read at
    # n = 17 alone below 50, is one too large: window 1, a worker's, fails
    # its division by 3 in the fork as it does in one process
    monkeypatch.setattr(arith, "_SIDE_WINDOW", 2)
    rule = arith._sigma_prime_power
    monkeypatch.setattr(arith, "_sigma_prime_power", lambda p, a: rule(p, a) + (p == 53))
    runs = []
    for cpus in (1, 2, 3):
        forks = _on_cpus(monkeypatch, cpus)
        runs.append(run_cli(capsys, "table", "A3", "--nmax", "50"))
        assert len(forks) == (cpus if cpus > 1 else 0)
    code, out, err = runs[0]
    assert code == 1
    assert err == ("internal error: A3 closed form at n=17 is 55, not divisible by 3; "
                   "implementation bug\n")
    assert out == "kind,n,value,method\n" + "".join(
        f"A3,{n},{arith.pair_count(n)},formula\n" for n in range(16))
    assert runs[1] == runs[2] == runs[0]


# runs the CLI on two CPUs, whatever the host has: a table of several
# windows is shared out over two workers
_ON_TWO_CPUS = """
from core3 import cli
cli._cpus = lambda: [0, 1]
cli.entry_point()
"""


def test_closing_the_pipe_of_a_shared_out_table_leaves_no_process():
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _ON_TWO_CPUS, "table", "A3", "--nmax", "10000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        assert proc.stdout.readline() == b"kind,n,value,method\n"
        proc.stdout.close()
        code = proc.wait(timeout=5)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 141
    assert time.perf_counter() - start < 5
    assert b"Traceback" not in err
    # the workers were reaped with their parent: the session's group is empty
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_a_profiled_table_profiles_every_window(tmp_path):
    # under a profile function the table is not shared out: the profile
    # holds the sieve of each of its three windows of 2**13 rows
    profile = tmp_path / "prof"
    result = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(profile),
                             "-m", "core3", "table", "A3", "--nmax", str(2 * 8192 + 1)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    assert result.returncode == 0, result.stderr
    calls = {name: nc for (path, _, name), (_, nc, *_) in pstats.Stats(str(profile)).stats.items()
             if path.endswith("arith.py")}
    assert calls["_side"] == 3


@pytest.mark.parametrize("kind", KINDS)
def test_a_lambert_point_query_fills_only_its_last_window(monkeypatch, kind):
    # a progression of step 1 and weight 0 reaches every window, so its
    # weights are asked for once for each window filled, and at no other
    k = routes.TUPLE_SIZE[kind]
    filled = []

    def weights(weight, j, terms):
        filled.append((j, terms))
        return repeat(weight, terms)

    build = lambert._TUPLE_PROGRESSIONS[k]
    monkeypatch.setitem(lambert._TUPLE_PROGRESSIONS, k,
                        lambda order: chain(build(order), ([0, 1, 0, 0, weights],)))
    for n in (16383, 16384, 16385, 999999):
        filled.clear()
        assert routes.point_value(kind, "lambert", n) == getattr(arith, arith.COUNTERS[kind])(n)
        lo = n - n % lambert.tuple_window(k, n + 1)
        assert filled == [(lo, n + 1 - lo)]


class _NullStream(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("argv, bound_kb", [
    (["A3"], 600),
    (["B3", "--format", "jsonl"], 580),
    (["A3", "--method", "lambert", "--order", "24576"], 450),
], ids=["A3-csv", "B3-jsonl", "A3-lambert"])
def test_a_table_holds_one_window_at_a_time(monkeypatch, argv, bound_kb):
    # six windows of 2**12 rows, each let go by the sieve and by the writer
    # before the next is computed.  Traced peaks on CPython 3.11: A3 461 KB,
    # B3 501 KB and Lambert 383 KB, against 753, 661 and 511 KB with the
    # previous window alive while the next was built.  A formula table, one
    # side, reads 8 * arith._SIDE_WINDOW rows a window.  On one CPU the
    # windows are computed in this process, as each worker of a shared-out
    # table computes its own
    monkeypatch.setattr(arith, "_SIDE_WINDOW", 1 << 9)
    monkeypatch.setattr(lambert, "_WINDOW", 1 << 12)
    monkeypatch.setattr(cli, "_cpus", lambda: [0])
    monkeypatch.setattr(sys, "stdout", _NullStream())
    argv = ["table", *argv, "--nmax", str(6 << 12)]
    assert main(argv) == 0  # imports and caches, outside the traced run
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_kb << 10


def test_table_deterministic():
    matches_corpus(*[["table", "A3", "--nmax", "20", "--method", "lambert"]] * 2)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", KINDS)
def test_table_routes_write_the_formula_csv(capsys, kind, method):
    # every budget admits n = 40, so each route writes the whole table
    code, out, _ = run_cli(capsys, "table", kind, "--nmax", "41", "--method", method,
                           "--order", "41", "--brute-cap", "41")
    assert code == 0
    _, formula, _ = run_cli(capsys, "table", kind, "--nmax", "41")
    assert len(formula.splitlines()) == 42
    assert out == formula.replace(",formula\n", f",{method}\n")


@pytest.mark.parametrize("argv", [
    ["--nmax", "-3"],
    ["--nmax", "50", "--method", "brute"],
    # the flag that hint names is one this front end reads
    ["--nmax", "50", "--method", "brute", "--brute-cap", "9"],
], ids=["negative-nmax", "brute-cap", "brute-cap-flag"])
def test_table_refusals_are_one_error_line(argv):
    matches_corpus(["table", "a3", *argv])


def test_table_respects_order_budget():
    matches_corpus(["table", "a3", "--nmax", "30", "--method", "series", "--order", "10"])


@pytest.mark.parametrize("argv", [
    ["table", "B3", "--nmax", str(MAX_SERIES_ORDER + 1)],
    ["compute", "B3", str(MAX_SERIES_ORDER)],
], ids=["table", "compute"])
def test_series_route_past_its_ceiling_is_refused_before_it_starts(capsys, monkeypatch, argv):
    def refused(*args):
        raise AssertionError("the series route ran past its ceiling")

    monkeypatch.setattr(series, "core_tuple_series", refused)
    order = str(MAX_SERIES_ORDER + 1)
    code, out, err = run_cli(capsys, *argv, "--method", "series", "--order", order)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"ceiling of {MAX_SERIES_ORDER} terms" in err
    # library callers meet the same ceiling
    with pytest.raises(UsageError, match=f"ceiling of {MAX_SERIES_ORDER} terms"):
        routes.table_values("a3", "series", MAX_SERIES_ORDER + 1,
                            Config(order=MAX_SERIES_ORDER + 1))


@pytest.mark.parametrize("argv", [
    ["table", "B3", "--nmax", str(MAX_SERIES_ORDER + 1)],
    ["compute", "B3", str(MAX_SERIES_ORDER)],
], ids=["table", "compute"])
def test_the_series_ceiling_hint_runs(capsys, argv):
    # the hint names the route that answers the request at its defaults
    order = str(MAX_SERIES_ORDER + 1)
    code, out, err = run_cli(capsys, *argv, "--method", "series", "--order", order)
    assert (code, out) == (2, "")
    hint = re.search(r"; (--method lambert) streams the same table\n$", err)
    code, out, err = run_cli(capsys, *argv, *hint.group(1).split())
    assert (code, err) == (0, "")
    last = arith.triple_count(MAX_SERIES_ORDER)
    if argv[0] == "table":
        assert out.count("\n") == MAX_SERIES_ORDER + 2
        assert out.endswith(f"\nB3,{MAX_SERIES_ORDER},{last},lambert\n")
    else:
        assert json.loads(out)["value"] == str(last)


def test_the_lambert_route_is_not_bounded_by_the_series_order(capsys):
    code, out, err = run_cli(capsys, "compute", "a3", "2000", "--method", "lambert")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == str(arith.core_count(2000))


def test_a_count_past_the_int_to_str_limit_is_written(capsys):
    # n has 2258 digits, under the 4300-digit parse limit; its B3 has about 4516
    n = 2**7500 - 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "compute", "B3", str(n))
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    value = json.loads(out)["value"]
    assert len(value) > 4300
    # Decimal reads the digits exactly, whatever the int-to-str limit
    assert int(decimal.Decimal(value)) == arith.triple_count(n)


@pytest.mark.parametrize("argv", [
    ["table", "A3", "--nmax", str(MAX_TABLE_TERMS + 1)],
    ["table", "a3", "--nmax", str(10**16), "--format", "jsonl"],
    ["table", "B3", "--nmax", str(10**16), "--method", "lambert", "--order", str(10**16)],
    ["compute", "A3", str(MAX_TABLE_TERMS), "--method", "lambert",
     "--order", str(MAX_TABLE_TERMS + 1)],
], ids=["formula", "formula-1e16", "lambert-1e16", "lambert-point"])
def test_requests_past_the_table_ceiling_are_refused_before_any_window(capsys, monkeypatch,
                                                                       argv):
    for module, name in ((arith, "count_windows"), (lambert, "tuple_windows")):
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert re.fullmatch(f"error: [^\n]* exceeds the table ceiling of {MAX_TABLE_TERMS} terms\n",
                        err)


def test_the_table_ceiling_admits_a_table_of_its_size(monkeypatch):
    # each stub window holds the size it was asked for, whatever its share
    monkeypatch.setattr(arith, "count_windows", lambda kind, n_max, *share: iter([[n_max]]))
    monkeypatch.setattr(lambert, "tuple_windows", lambda k, order, *share: iter([[order]]))
    cfg = Config(order=MAX_TABLE_TERMS)
    for method in ("formula", "lambert"):
        assert routes.table_values("A3", method, MAX_TABLE_TERMS, cfg) == [MAX_TABLE_TERMS]
    assert routes.point_value("A3", "lambert", MAX_TABLE_TERMS - 1, cfg) == MAX_TABLE_TERMS
    # a formula point query has no ceiling
    assert routes.point_value("A3", "formula", 10**20) == arith.pair_count(10**20)


@pytest.mark.parametrize("argv", [
    ["verify", "cross-validate", "--nmax", str(MAX_SERIES_ORDER + 1)],
    ["selfcheck", "--nmax", str(MAX_SERIES_ORDER + 1)],
], ids=["verify", "selfcheck"])
def test_cross_validate_past_the_series_ceiling_is_refused_before_any_lane(capsys,
                                                                          monkeypatch, argv):
    monkeypatch.setattr(routes, "table_values", lambda *args: pytest.fail("a lane was built"))
    assert run_cli(capsys, *argv)[:2] == (2, "")


def test_verify_pass():
    matches_corpus(["verify", "xia-congruence", "--nmax", "200"])


def test_verify_bn():
    matches_corpus(["verify", "BN", "--kmax", "2", "--nmax", "50"])


def test_verify_rejects_p3():
    matches_corpus(["verify", "relation-general", "--p", "3"])


def test_verify_unknown_family():
    matches_corpus(["verify", "no-such-family"])


def test_verify_with_no_instance_is_a_usage_error():
    # at p = 2 the coprime sweep skips m = 0 (2 divides 3*0 + 2), leaving nothing
    matches_corpus(["verify", "relation-coprime", "--p", "2", "--nmax", "0"])


@pytest.mark.parametrize("j", ["5169", "9100", str(10**12)])
def test_xia_conjecture_past_its_ceiling_is_refused_before_any_instance(capsys, monkeypatch,
                                                                        j):
    # 3^5169 is the first power of 3 past XIA_MAX_BITS; at j = 9100 the report's
    # k0 would pass CPython's 4300-digit limit on writing an int in decimal
    monkeypatch.setattr(arith, "progression_counts",
                        lambda *args: pytest.fail("a value was read"))
    assert run_cli(capsys, "verify", "xia-conjecture", "--p", "3", "--j", j,
                   "--alphamax", "0", "--nmax", "0")[:2] == (2, "")


@pytest.mark.parametrize("argv", [["--nmax", str(10**12)], ["--alphamax", str(10**12)],
                                  ["--p", "3", "--j", "5168", "--alphamax", str(2**21)]])
def test_xia_conjecture_past_its_instance_ceiling_is_refused_before_any_instance(
        capsys, monkeypatch, argv):
    # at p^j of 2**13 bits, refused before 2^(2k0) mod 3p^j, 1.4 s of work, is built
    monkeypatch.setattr(arith, "progression_counts",
                        lambda *args: pytest.fail("a value was read"))
    code, out, err = run_cli(capsys, "verify", "xia-conjecture", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: xia-conjecture-p3-j")
    assert err.endswith(f" instances, past the sweep ceiling of "
                        f"{identities.SWEEP_MAX_INSTANCES} instances\n")


@pytest.mark.parametrize("family", [name for name in identities.FAMILIES if name not in (
    "xia-conjecture", "cross-validate", "structural")])
def test_sweep_past_its_instance_ceiling_is_refused_before_any_instance(capsys, monkeypatch,
                                                                        family):
    # arguments of about 40 bits, far inside the argument ceiling
    monkeypatch.setattr(arith, "progression_counts",
                        lambda *args: pytest.fail("an instance ran"))
    code, out, err = run_cli(capsys, "verify", family, "--nmax", str(10**12))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.endswith(f" instances, past the sweep ceiling of "
                        f"{identities.SWEEP_MAX_INSTANCES} instances\n")


def test_a_family_is_held_to_the_instance_ceiling_as_a_whole(capsys, monkeypatch):
    # B3-residues at --kmax 104 --nmax 2000 checks 105*(4+6)*2001 = 2101050
    # instances, its two reports 840420 and 1260630
    monkeypatch.setattr(arith, "progression_counts",
                        lambda *args: pytest.fail("an instance ran"))
    assert run_cli(capsys, "verify", "B3-residues", "--kmax", "104", "--nmax", "2000") == (
        2, "", "error: B3-residues-5, B3-residues-7 would check 2101050 instances, past the "
        f"sweep ceiling of {identities.SWEEP_MAX_INSTANCES} instances\n")


@pytest.mark.parametrize("argv, family", [
    (["BN", "--kmax", str(10**12)], "BN-1"),
    (["relation-general", "--p", "5", "--kmax", "3000"], "A3-relation-general-p5"),
    (["B3-ids", "--kmax", "4095"], "B3-1"),
    # a family is refused before any of its reports, where its first relation
    # alone is inside the ceiling
    (["BN", "--kmax", "1024"], "BN-2"),
    (["B3-residues", "--kmax", "880"], "B3-residues-7"),
    # a sweep that would check no instance is held to the ceiling first: 2
    # divides 3*0 + 2, so --nmax 0 skips every instance
    (["relation-coprime", "--p", "2", "--kmax", "3000"], "A3-relation-coprime-p2"),
])
def test_sweep_past_its_ceiling_is_refused_before_any_instance(capsys, monkeypatch, argv,
                                                               family):
    monkeypatch.setattr(arith, "progression_counts",
                        lambda *args: pytest.fail("an instance ran"))
    code, out, err = run_cli(capsys, "verify", *argv, "--nmax", "0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {family} reads an argument of ")
    assert err.endswith(f" bits, past the sweep ceiling of {identities.SWEEP_MAX_BITS} bits\n")


@pytest.mark.parametrize("family, flag, value", [
    ("lin", "--p", "7"), ("BN", "--alphamax", "2"), ("xia-congruence", "--kmax", "9")])
def test_verify_refuses_an_option_its_family_does_not_take(family, flag, value):
    matches_corpus(["verify", family, flag, value, "--nmax", "3"])


@pytest.mark.parametrize("argv", [["verify", "lin"], ["selfcheck"]])
def test_order_is_refused_where_no_route_reads_it(argv):
    matches_corpus([*argv, "--order", "5"])


# the subcommand's parser reports them, with its own usage line
@pytest.mark.parametrize("argv", [
    ["verify", "lin", "--bogus", "1"], ["table", "a3", "--nmax", "3", "--bogus"],
    ["selfcheck", "--order", "5"]], ids=["argv0---bogus 1", "argv1---bogus", "argv2---order 5"])
def test_unknown_option_is_reported_by_the_subcommand(argv):
    matches_corpus(argv)


def test_selfcheck_small():
    matches_corpus(["selfcheck", "--nmax", "40"])


def test_selfcheck_rejects_empty_range():
    matches_corpus(["selfcheck", "--nmax", "0"])


def test_brute_cap_zero_admits_n_zero_alone():
    matches_corpus(*(["compute", "B3", n, "--method", "brute", "--brute-cap", "0"]
                     for n in ("0", "1")))


@pytest.mark.parametrize("cap", ["61", "1000"], ids=["flag", "flag-far-past"])
def test_brute_cap_above_the_walk_ceiling_is_refused(cap):
    matches_corpus(["compute", "a3", "61", "--method", "brute", "--brute-cap", cap])


def test_brute_cap_at_the_ceiling_is_accepted():
    # at the ceiling the refusal does not ask for a larger cap
    matches_corpus(*(["compute", "a3", n, "--method", "brute", "--brute-cap", "60"]
                     for n in ("6", "61")))


def test_env_brute_cap(monkeypatch):
    # CORE3_BRUTE_CAP is not read: whatever it holds, the default cap stands
    for raw in ("10", "banana", "61", "-1"):
        monkeypatch.setenv("CORE3_BRUTE_CAP", raw)
        matches_corpus(["compute", "a3", "20", "--method", "brute"])


def test_env_rejects_garbage(monkeypatch):
    # garbage is refused where the cap is read, on the flag; the variable
    # is not read, so garbage there is no cap and no error
    monkeypatch.setenv("CORE3_BRUTE_CAP", "banana")
    matches_corpus(["compute", "a3", "1"], ["compute", "a3", "1", "--brute-cap", "banana"])


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "core3", "compute", "a3", "4"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == "2"


# runs `python -m core3` on its argv and, at the os._exit that ends a finished
# run or at the normal exit of a help text or usage error, writes the modules
# loaded since runpy was imported as the last line of stderr.  It reads
# sys.modules, not -X importtime, which misses a submodule imported by
# `from . import x` or by the package's __getattr__.
_MODULES_AT_EXIT = """
import os, runpy, sys
before = set(sys.modules)
def loaded():
    print(*sorted(set(sys.modules) - before), file=sys.stderr, flush=True)
def hard_exit(code, exit=os._exit):
    loaded()
    exit(code)
os._exit = hard_exit
try:
    runpy.run_module("core3", run_name="__main__", alter_sys=True)
finally:
    loaded()
"""


def _loaded_modules(*argv: str, flags=(), code: int = 0) -> set[str]:
    """The modules ``python *flags -m core3 *argv`` loads; it must exit with ``code``."""
    result = subprocess.run([sys.executable, *flags, "-c", _MODULES_AT_EXIT, *argv],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == code, result.stderr[-2000:]
    return set(result.stderr.splitlines()[-1].split())


# what a formula point query loads of core3 (core3/__main__.py runs as
# __main__): partitions holds the brute-force cap's ceiling, which routes
# reads at import
_FORMULA = {"core3", "core3.cli", "core3.routes", "core3.arith", "core3.partitions"}
_ENGINES = {"core3.series", "core3.lambert"}
_IDENTITIES = _FORMULA | {"core3.identities"}
_ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv, code, core3_modules, reads", [
    (["compute", "A3", "6"], 0, _FORMULA, set()),
    (["table", "a3", "--nmax", "10"], 0, _FORMULA, set()),
    (["compute", "A3", "6", "--method", "brute"], 0, _FORMULA, set()),
    (["compute", "A3", "6", "--method", "series"], 0, _FORMULA | {"core3.series"}, set()),
    (["table", "B3", "--nmax", "10", "--method", "series"], 0, _FORMULA | {"core3.series"},
     set()),
    (["table", "a3", "--nmax", "10", "--method", "lambert"], 0, _FORMULA | _ENGINES, set()),
    (["verify", "lin", "--nmax", "10"], 0, _IDENTITIES, {"json"}),
    (["verify", "structural"], 0, _IDENTITIES | _ENGINES, {"json"}),
    (["selfcheck", "--nmax", "5"], 0, _IDENTITIES | _ENGINES, set()),
    (["--help"], 0, _IDENTITIES, _ARGPARSE),
    (["table", "a3"], 2, _IDENTITIES, _ARGPARSE),
], ids=["compute", "table", "brute", "series", "series-table", "lambert-table", "verify",
        "verify-structural", "selfcheck", "help", "usage-error"])
def test_point_commands_import_only_what_they_run(argv, code, core3_modules, reads):
    # each engine loads only for a command that runs it, and the identity
    # registry only for verify, selfcheck and the argparse parser, whose help
    # of verify lists the families; dataclasses pulls in inspect (and with it
    # ast, dis and tokenize), json is read by verify alone, and a well-formed
    # argv is parsed without argparse, whose messages load gettext and locale;
    # every help text and usage error is argparse's
    own = _loaded_modules(*argv, code=code)
    assert {name for name in own if name.partition(".")[0] == "core3"} == core3_modules
    forbidden = {"dataclasses", "inspect", "json", "argparse", "gettext", "locale"}
    assert own & forbidden == reads


def test_a_point_query_imports_neither_typing_nor_re():
    # under -S no site hook has loaded either already; typing alone costs a
    # point query about 13 ms, and re is loaded by typing
    own = _loaded_modules("compute", "A3", "6", flags=["-S"])
    assert "core3.arith" in own
    assert not own & {"typing", "re"}


def test_a_sweep_imports_no_typing():
    # verify loads json, and with it re, but the identity registry's records
    # are collections.namedtuples
    own = _loaded_modules("verify", "lin", "--nmax", "3", flags=["-S"])
    assert "core3.identities" in own
    assert "typing" not in own


_VALUES = st.one_of(st.sampled_from([0, -1, 2**53 + 1, -(2**53 + 1), 10**30 - 1, -(3**63)]),
                    st.integers())
_WINDOWS = st.lists(st.lists(_VALUES, max_size=12), max_size=4)


def _stdout_of(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _written_tables(kind, method, fmt, windows) -> set:
    """The exit code and stdout of ``table`` over the rows of ``windows``, in
    blocks of 1 row, of 5 rows (full and partial) and of the default size,
    larger than any window here."""
    argv = ["table", kind, "--nmax", str(sum(map(len, windows))), "--method", method,
            "--format", fmt]
    written = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "table_windows", lambda *args: iter(windows))
        for block in (1, 5, cli._BLOCK):
            patch.setattr(cli, "_BLOCK", block)
            written.add(_stdout_of(argv))
    return written


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(windows=_WINDOWS, value=_VALUES,
       n=st.one_of(st.just(10**30), st.integers(min_value=0)))
def test_jsonl_lines_equal_json_dumps(kind, method, windows, value, n):
    def line(n, value):
        return json.dumps({"kind": kind, "n": n, "value": str(value), "method": method}) + "\n"

    rows = enumerate(chain.from_iterable(windows))
    expected = "".join(line(n, v) for n, v in rows)
    assert _written_tables(kind, method, "jsonl", windows) == {(0, expected)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "point_value", lambda *args: value)
        assert _stdout_of(["compute", kind, str(n), "--method", method]) == (0, line(n, value))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(windows=_WINDOWS)
def test_csv_lines_equal_csv_writer(kind, method, windows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["kind", "n", "value", "method"])
    writer.writerows([kind, n, v, method] for n, v in enumerate(chain.from_iterable(windows)))
    assert _written_tables(kind, method, "csv", windows) == {(0, buffer.getvalue())}


@pytest.mark.parametrize("family", ["lin", "BN", "xia-congruence", "relation-general"])
def test_verify_rejects_negative_nmax(family):
    matches_corpus(["verify", family, "--nmax", "-1"])


@pytest.mark.parametrize("message, check", [
    ("--kmax must be >= 0", lambda: identities.check_A3_relations(5, -1, 10)),
    ("--kmax must be >= 0", lambda: identities.check_A3_residue_families(-1, 10)),
    ("--kmax must be >= 0", lambda: identities.check_B3_residue_families(-1, 10)),
    ("--kmax must be >= 2", lambda: identities.check_a3_even_power(2, 1, 10)),
    ("--kmax must be >= 1", lambda: identities.check_baruah_nath(0, 10)),
    ("--kmax must be >= 1", lambda: identities.check_b3_power_families(0, 10)),
    ("--j must be >= 1", lambda: identities.check_xia_conjecture(3, 0, 1, 10)),
    ("--alphamax must be >= 0", lambda: identities.check_xia_conjecture(3, 1, -1, 10)),
    ("--nmax must be >= 0", lambda: identities.check_xia_conjecture(3, 1, 1, -1)),
    ("--nmax must be >= 1", lambda: identities.cross_validate(0)),
], ids=["relation", "A3-residues", "B3-residues", "a3-even-power", "BN", "B3-ids", "xia-j",
        "xia-alphamax", "xia-nmax", "cross-validate"])
def test_family_refusals_name_the_flag(message, check):
    # a library caller meets the family's own bound in the words of the flag
    # that sets it, as the command line does (the corpus holds those refusals)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check()


def test_closed_pipe_exits_quietly():
    # far more output than a pipe buffers, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "core3", "table", "B3", "--nmax", "50000", "--format", "jsonl"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert json.loads(first)["n"] == 0
    assert b"Traceback" not in err


def test_closing_the_pipe_after_one_line_of_a_huge_table_ends_it_at_once():
    # the table is written window by window, so the reader's close is met
    # after the first window, not after ten million rows are computed
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "core3", "table", "A3", "--nmax", "10000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"kind,n,value,method\n"
        proc.stdout.close()
        code = proc.wait(timeout=5)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 141
    assert time.perf_counter() - start < 5
    assert b"Traceback" not in err



class _HardExit(Exception):
    """Raised by a stand-in for os._exit, which would end the test process."""


@pytest.mark.parametrize("argv, code, out, err", [
    (["compute", "A3", "6"], 0,
     b'{"kind": "A3", "n": 6, "value": "14", "method": "formula"}\n', b""),
    (["compute", "A3", "6", "--order", "0"], 2, b"", b"error: --order must be >= 1\n"),
], ids=["done", "refused"])
def test_a_finished_run_flushes_both_streams_then_skips_teardown(monkeypatch, argv, code,
                                                                 out, err):
    # buffered streams over bytes: only a flush moves text to the bytes
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2)]
    exits = []

    def hard_exit(status):
        exits.append((status, *(stream.buffer.getvalue() for stream in streams)))
        raise _HardExit

    monkeypatch.setattr(cli.os, "_exit", hard_exit)
    monkeypatch.setattr(sys, "argv", ["core3", *argv])
    monkeypatch.setattr(sys, "stdout", streams[0])
    monkeypatch.setattr(sys, "stderr", streams[1])
    # a coverage run sets a trace function or a monitoring tool, and with it
    # the normal exit
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    if hasattr(sys, "monitoring"):
        monkeypatch.setattr(sys.monitoring, "get_tool", lambda tool_id: None)
    with pytest.raises(_HardExit):
        cli.entry_point()
    assert exits == [(code, out, err)]


@pytest.mark.parametrize("argv, code", [(["compute", "A3", "6"], 0),
                                        (["compute", "A3", "6", "--order", "0"], 2)],
                         ids=["done", "refused"])
@pytest.mark.parametrize("hook", ["profile", "trace"])
def test_under_a_profile_or_trace_function_the_exit_is_normal(capsys, monkeypatch, argv,
                                                              code, hook):
    # a profiler, tracer or debugger writes its report at exit
    monkeypatch.setattr(cli.os, "_exit", lambda status: pytest.fail("os._exit was called"))
    monkeypatch.setattr(sys, "argv", ["core3", *argv])
    get, set_ = getattr(sys, f"get{hook}"), getattr(sys, f"set{hook}")
    previous = get()
    set_(lambda *args: None)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
    finally:
        set_(previous)
    assert exc.value.code == code
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(sys, "monitoring"), reason="sys.monitoring is new in 3.12")
@pytest.mark.parametrize("tool_id", range(6))
@pytest.mark.parametrize("argv, code", [(["compute", "A3", "6"], 0),
                                        (["compute", "A3", "6", "--order", "0"], 2)],
                         ids=["done", "refused"])
def test_under_a_monitoring_tool_the_exit_is_normal(capsys, monkeypatch, argv, code, tool_id):
    # coverage under COVERAGE_CORE=sysmon sets no trace or profile function
    monkeypatch.setattr(cli.os, "_exit", lambda status: pytest.fail("os._exit was called"))
    monkeypatch.setattr(sys, "argv", ["core3", *argv])
    if sys.monitoring.get_tool(tool_id) is not None:
        pytest.skip(f"tool id {tool_id} is held by {sys.monitoring.get_tool(tool_id)}")
    sys.monitoring.use_tool_id(tool_id, "core3-test")
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
    finally:
        sys.monitoring.free_tool_id(tool_id)
    assert exc.value.code == code
    capsys.readouterr()


def test_a_reader_of_the_whole_pipe_gets_every_row():
    argv = ["table", "B3", "--nmax", "50000", "--format", "jsonl"]
    result = subprocess.run([sys.executable, "-m", "core3", *argv],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == _stdout_of(argv)[1]
    assert len(result.stdout.splitlines()) == 50000


# breaks lin at every n: 3 more at 2**2 keeps sigma's divisibility by 3
_BROKEN_SIGMA = """
from core3 import arith, cli
rule = arith._sigma_prime_power
arith._sigma_prime_power = lambda p, a: rule(p, a) + 3 * (p == 2 and a == 2)
cli.entry_point()
"""


def test_a_failed_verification_writes_its_reports_line_before_it_exits():
    # stdout to a pipe is block-buffered: the exit must come after its flush
    result = subprocess.run([sys.executable, "-c", _BROKEN_SIGMA, "verify", "lin", "--nmax", "10"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1, result.stderr
    summary, last = result.stdout.splitlines()
    assert summary == "lin: checked=11 failures=11 FAIL"
    assert [report["passed"] for report in json.loads(last)["reports"]] == [False]
    assert result.stdout.endswith("\n")


def test_a_profiled_run_writes_its_profile(tmp_path):
    profile = tmp_path / "prof"
    result = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(profile),
                             "-m", "core3", "compute", "A3", "6"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["value"] == "14"
    assert any(name == "pair_count" for _, _, name in pstats.Stats(str(profile)).stats)


# runs its argv as a command, its output discarded, then prints the peak RSS
# in kB of that command or any process it waited for, a forked worker of a
# table among them; ru_maxrss starts from the forking process's own, so the
# launcher is a small process of its own
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _peak_rss_kb(*command: str) -> int:
    result = subprocess.run([sys.executable, "-c", _PEAK_RSS, *command], check=True,
                            capture_output=True, text=True)
    return int(result.stdout)


_LINUX = pytest.mark.skipif(not sys.platform.startswith("linux"),
                            reason="ru_maxrss is in kB on Linux")


@_LINUX
def test_the_peak_rss_counts_a_forked_workers_peak():
    # a worker that fills 32 MB and is reaped by its parent, which holds little
    grandchild = ("import os\npid = os.fork()\nif pid == 0:\n"
                  "    data = b'x' * (32 << 20)\n    os._exit(0)\nos.waitpid(pid, 0)\n")
    assert _peak_rss_kb(sys.executable, "-c", grandchild) >= 32 << 10


@_LINUX
@pytest.mark.parametrize("argv", [
    ["table", "A3", "--nmax", "1000000", "--method", "formula", "--order", "1000000"],
    ["table", "A3", "--nmax", "1000000", "--method", "lambert", "--order", "1000000"],
    ["compute", "A3", "999999", "--method", "lambert", "--order", "1000000"],
], ids=["formula", "lambert", "lambert-point"])
def test_a_million_row_table_peaks_near_a_point_query(argv):
    # one window at a time in each process: the rows written, or passed on
    # the way to the last, leave no trace in memory
    core3 = (sys.executable, "-m", "core3")
    point = _peak_rss_kb(*core3, "compute", "A3", "6")
    assert _peak_rss_kb(*core3, *argv) - point <= 8 * 1024


def _argparse_attrs(argv: list[str]):
    """What argparse's ``parse_known_args`` sets for ``argv``, its ``parser``
    aside, or None where ``main`` would exit on a help text, the version, a
    usage error or an unrecognized argument."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extras = cli._build_parser().parse_known_args(argv)
        except SystemExit:
            return None
    if extras:
        return None
    attrs = vars(args)
    del attrs["parser"]
    return attrs


_FLAGS = sorted({name for _, _, arguments in cli._COMMANDS.values()
                 for name, _ in arguments if name.startswith("-")})
_VALUES = [*KINDS, *METHODS, "csv", "jsonl", "lin", "BN", "nosuch",
           "0", "5", "12", "-1", "1_000", " 7", "+5", "", "0x10"]
_TOKENS = st.one_of(
    st.sampled_from([*cli._COMMANDS, *_FLAGS, *_VALUES, "-h", "--help", "--version", "--",
                     "-", "--nm", "--meth", "--wid", "--brute", "--order=5", "--nmax=2"]),
    st.builds("{}={}".format, st.sampled_from(_FLAGS), st.sampled_from(_VALUES)),
    st.text(max_size=6))


@st.composite
def _well_formed_argvs(draw):
    """A subcommand with its positionals and some of its flags, each given a
    choice or a value that is often an int, in any order: often well formed,
    sometimes not."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    groups = []
    for name, options in cli._COMMANDS[command][2]:
        if "choices" in options:
            value = draw(st.sampled_from(options["choices"]))
        else:
            value = draw(st.one_of(st.integers(0, 50).map(str), st.sampled_from(_VALUES)))
        if not name.startswith("-"):
            groups.append([value])
        elif options.get("required") or draw(st.booleans()):
            groups.append([name] if options.get("action") else [name, value])
    positionals = [g for g in groups if not g[0].startswith("-")]
    flags = draw(st.permutations([g for g in groups if g[0].startswith("-")]))
    # the positionals keep their order, the flags go anywhere around them
    cuts = sorted(draw(st.lists(st.integers(0, len(flags)), min_size=len(positionals),
                                max_size=len(positionals))))
    argv, start = [command], 0
    for cut, positional in zip(cuts, positionals):
        argv += [token for group in flags[start:cut] for token in group] + positional
        start = cut
    return argv + [token for group in flags[start:] for token in group]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_well_formed_argvs(),
                 st.lists(_TOKENS, max_size=7),
                 st.builds(lambda argv, extra: argv + extra, _well_formed_argvs(),
                           st.lists(_TOKENS, min_size=1, max_size=2))))
def test_the_fast_parser_sets_what_argparse_sets_or_declines(argv):
    ours = cli._parse_well_formed(argv)
    if ours is not None:
        # argparse accepts it too, with the same attributes and no others
        assert vars(ours) == _argparse_attrs(argv)


def test_every_perfbench_argv_is_parsed_without_argparse():
    argvs = golden.perfbench_argvs((0, 1))
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
    for argv in argvs:
        ours = cli._parse_well_formed(argv)
        assert ours is not None, argv
        assert vars(ours) == _argparse_attrs(argv)
