import contextlib
import csv
import importlib.util
import io
import json
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from core3 import arith, cli, identities, lambert, routes, series
from core3.cli import KINDS, METHODS, Config, UsageError, main
from core3.routes import MAX_SERIES_ORDER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_formula(capsys):
    code, out, _ = run_cli(capsys, "compute", "A3", "6")
    assert code == 0
    record = json.loads(out)
    assert record == {"kind": "A3", "n": 6, "value": "14", "method": "formula"}
    assert list(record) == ["kind", "n", "value", "method"]


def test_compute_brute(capsys):
    code, out, _ = run_cli(capsys, "compute", "B3", "0", "--method", "brute")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_compute_series(capsys):
    code, out, _ = run_cli(capsys, "compute", "a3", "3", "--method", "series")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_compute_all_methods_agree(capsys):
    values = set()
    for method in ("formula", "series", "lambert", "brute"):
        code, out, _ = run_cli(capsys, "compute", "B3", "7", "--method", method)
        assert code == 0
        values.add(json.loads(out)["value"])
    assert len(values) == 1


def test_compute_usage_errors(capsys):
    assert run_cli(capsys, "compute", "a3", "100", "--method", "brute")[0] == 2
    assert run_cli(capsys, "compute", "a3", "-1")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "c4", "1"])  # unknown kind is an argparse error
    assert exc.value.code == 2


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "a3", "--nmax", "5")
    assert code == 0
    assert out == ("kind,n,value,method\n"
                   "a3,0,1,formula\n"
                   "a3,1,1,formula\n"
                   "a3,2,2,formula\n"
                   "a3,3,0,formula\n"
                   "a3,4,2,formula\n")


def test_table_jsonl(capsys):
    code, out, _ = run_cli(capsys, "table", "B3", "--nmax", "4",
                           "--format", "jsonl")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    values = [json.loads(line)["value"] for line in lines]
    assert values == ["1", "3", "9", "13"]
    for line in lines:
        assert list(json.loads(line)) == ["kind", "n", "value", "method"]


def test_table_empty_range(capsys):
    code, out, _ = run_cli(capsys, "table", "A3", "--nmax", "0")
    assert code == 0
    assert out == "kind,n,value,method\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("method", ["formula", "lambert"])
@pytest.mark.parametrize("kind", KINDS)
def test_table_bytes_do_not_depend_on_the_windows(capsys, monkeypatch, kind, method, fmt):
    def tables():
        return [run_cli(capsys, "table", kind, "--nmax", str(n), "--method", method,
                        "--format", fmt, "--order", str(max(n, 1)))
                for n in (0, 1, 15, 16, 17, 33, 50)]

    default = tables()
    # windows of 16 cross 0 to 3 boundaries above, each in one block and then
    # in blocks of 5 rows
    monkeypatch.setattr(arith, "_WINDOW", 16)
    monkeypatch.setattr(lambert, "_WINDOW", 16)
    assert tables() == default
    monkeypatch.setattr(cli, "_BLOCK", 5)
    assert tables() == default


def test_table_deterministic(capsys):
    first = run_cli(capsys, "table", "A3", "--nmax", "20", "--method", "lambert")
    second = run_cli(capsys, "table", "A3", "--nmax", "20", "--method", "lambert")
    assert first == second


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


@pytest.mark.parametrize("argv, message", [
    (["--nmax", "-3"], "--nmax must be >= 0"),
    (["--nmax", "50", "--method", "brute"],
     "--nmax 50 exceeds the brute-force cap 40; raise --brute-cap"),
    # the flag that hint names is one this front end reads
    (["--nmax", "50", "--method", "brute", "--brute-cap", "9"],
     "--nmax 50 exceeds the brute-force cap 9; raise --brute-cap"),
], ids=["negative-nmax", "brute-cap", "brute-cap-flag"])
def test_table_refusals_are_one_error_line(capsys, argv, message):
    assert run_cli(capsys, "table", "a3", *argv) == (2, "", f"error: {message}\n")


def test_table_respects_order_budget(capsys):
    code, _, err = run_cli(capsys, "table", "a3", "--nmax", "30",
                           "--method", "series", "--order", "10")
    assert code == 2
    assert "order budget" in err


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


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "xia-congruence", "--nmax", "200")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("PASS")
    payload = json.loads(lines[-1])
    assert payload["reports"][0]["failures"] == []


def test_verify_bn(capsys):
    code, out, _ = run_cli(capsys, "verify", "BN", "--kmax", "2", "--nmax", "50")
    assert code == 0
    payload = json.loads(out.splitlines()[-1])
    assert [r["family"] for r in payload["reports"]] == ["BN-1", "BN-2", "BN-3"]


def test_verify_rejects_p3(capsys):
    code, _, err = run_cli(capsys, "verify", "relation-general", "--p", "3")
    assert code == 2
    assert "p must be" in err


def test_verify_unknown_family(capsys):
    code, _, err = run_cli(capsys, "verify", "no-such-family")
    assert code == 2
    assert "unknown family" in err


def test_verify_with_no_instance_is_a_usage_error(capsys):
    # at p = 2 the coprime sweep skips m = 0 (2 divides 3*0 + 2), leaving nothing
    code, out, err = run_cli(capsys, "verify", "relation-coprime", "--p", "2", "--nmax", "0")
    assert code == 2
    assert out == ""
    assert err == "error: A3-relation-coprime-p2 checked no instance; raise --nmax\n"


@pytest.mark.parametrize("j", ["5169", "9100", str(10**12)])
def test_xia_conjecture_past_its_ceiling_is_refused_before_any_instance(capsys, monkeypatch,
                                                                        j):
    # 3^5169 is the first power of 3 past XIA_MAX_BITS; at j = 9100 the report's
    # k0 would pass CPython's 4300-digit limit on writing an int in decimal
    monkeypatch.setattr(identities, "_collect", lambda *args: pytest.fail("an instance ran"))
    code, out, err = run_cli(capsys, "verify", "xia-conjecture", "--p", "3", "--j", j,
                             "--alphamax", "0", "--nmax", "0")
    assert (code, out) == (2, "")
    assert err == (f"error: p^j = 3^{j} is past this check's ceiling of "
                   f"{identities.XIA_MAX_BITS} bits\n")


@pytest.mark.parametrize("argv, family", [
    (["BN", "--kmax", str(10**12)], "BN-1"),
    (["relation-general", "--p", "5", "--kmax", "3000"], "A3-relation-general-p5"),
    (["B3-ids", "--kmax", "4095"], "B3-1"),
    # a family is refused before any of its reports, where its first relation
    # alone is inside the ceiling
    (["BN", "--kmax", "1024"], "BN-2"),
    (["B3-residues", "--kmax", "880"], "B3-residues-7"),
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
def test_verify_refuses_an_option_its_family_does_not_take(capsys, family, flag, value):
    code, out, err = run_cli(capsys, "verify", family, flag, value, "--nmax", "3")
    assert (code, out, err) == (2, "", f"error: family {family!r} takes no {flag}\n")


@pytest.mark.parametrize("argv", [["verify", "lin"], ["selfcheck"]])
def test_order_is_refused_where_no_route_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--order", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv, extras", [
    (["verify", "lin", "--bogus", "1"], "--bogus 1"),
    (["table", "a3", "--nmax", "3", "--bogus"], "--bogus"),
    (["selfcheck", "--order", "5"], "--order 5")])
def test_unknown_option_is_reported_by_the_subcommand(capsys, argv, extras):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: core3 {argv[0]} ")
    assert err.endswith(f"core3 {argv[0]}: error: unrecognized arguments: {extras}\n")


def test_selfcheck_small(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--nmax", "40")
    assert code == 0
    assert "cross-validate" in out
    assert "FAIL" not in out
    assert "families passed" in out


def test_selfcheck_rejects_empty_range(capsys):
    assert run_cli(capsys, "selfcheck", "--nmax", "0")[0] == 2


def test_brute_cap_zero_admits_n_zero_alone(capsys):
    code, out, _ = run_cli(capsys, "compute", "B3", "0", "--method", "brute", "--brute-cap", "0")
    assert code == 0
    assert json.loads(out)["value"] == "1"
    code, _, err = run_cli(capsys, "compute", "B3", "1", "--method", "brute", "--brute-cap", "0")
    assert code == 2
    assert "cap 0" in err


@pytest.mark.parametrize("cap", ["61", "1000"], ids=["flag", "flag-far-past"])
def test_brute_cap_above_the_walk_ceiling_is_refused(capsys, cap):
    code, out, err = run_cli(capsys, "compute", "a3", "61", "--method", "brute",
                             "--brute-cap", cap)
    assert (code, out, err) == (2, "", f"error: --brute-cap must be at most 60, got {cap}\n")


def test_brute_cap_at_the_ceiling_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "compute", "a3", "6", "--method", "brute", "--brute-cap", "60")
    assert (code, json.loads(out)["value"]) == (0, "2")
    # at the ceiling the refusal does not ask for a larger cap
    code, _, err = run_cli(capsys, "compute", "a3", "61", "--method", "brute", "--brute-cap", "60")
    assert (code, err) == (
        2, "error: n=61 exceeds the brute-force cap 60; --brute-cap is at most 60\n")


def test_env_brute_cap(capsys, monkeypatch):
    # CORE3_BRUTE_CAP is not read: whatever it holds, the default cap stands
    expected = (0, '{"kind": "a3", "n": 20, "value": "2", "method": "brute"}\n', "")
    for raw in ("10", "banana", "61", "-1"):
        monkeypatch.setenv("CORE3_BRUTE_CAP", raw)
        assert run_cli(capsys, "compute", "a3", "20", "--method", "brute") == expected


def test_env_rejects_garbage(capsys, monkeypatch):
    # garbage is refused where the cap is read, on the flag; the variable
    # is not read, so garbage there is no cap and no error
    monkeypatch.setenv("CORE3_BRUTE_CAP", "banana")
    assert run_cli(capsys, "compute", "a3", "1") == (
        0, '{"kind": "a3", "n": 1, "value": "1", "method": "formula"}\n', "")
    with pytest.raises(SystemExit) as exc:
        main(["compute", "a3", "1", "--brute-cap", "banana"])
    assert exc.value.code == 2
    assert "argument --brute-cap: invalid int value: 'banana'" in capsys.readouterr().err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "core3", "compute", "a3", "4"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == "2"


def _imported_modules(*args: str, code: int = 0) -> set[str]:
    """The modules ``python -X importtime *args`` reports importing; it must
    exit with ``code``."""
    result = subprocess.run([sys.executable, "-X", "importtime", *args],
                            capture_output=True, text=True)
    assert result.returncode == code, result.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("imported package")}


@pytest.mark.parametrize("argv, reads", [
    (["compute", "A3", "6"], set()),
    (["table", "a3", "--nmax", "10"], set()),
    (["verify", "lin", "--nmax", "10"], {"json"}),
    (["selfcheck", "--nmax", "5"], set()),
], ids=["compute", "table", "verify", "selfcheck"])
def test_point_commands_import_only_what_they_run(argv, reads):
    # dataclasses pulls in inspect (and with it ast, dis and tokenize), json
    # is read by verify alone, and a well-formed argv is parsed without
    # argparse, whose messages load gettext and locale
    own = _imported_modules("-m", "core3", *argv) - _imported_modules("-c", "pass")
    assert "core3.cli" in own
    forbidden = {"dataclasses", "inspect", "json", "argparse", "gettext", "locale"}
    assert own & forbidden == reads


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["table", "a3"], 2)],
                         ids=["help", "usage-error"])
def test_help_and_usage_errors_import_argparse(argv, code):
    # the fallback is real: argparse writes every help text and usage error
    assert "argparse" in _imported_modules("-m", "core3", *argv, code=code)


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
def test_verify_rejects_negative_nmax(capsys, family):
    code, out, err = run_cli(capsys, "verify", family, "--nmax", "-1")
    assert code == 2
    assert out == ""
    assert "--nmax" in err


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


# runs the CLI on its argv, then reports the process's peak RSS in kB on stderr
_PEAK_RSS = """
import sys
from core3.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")),
          file=sys.stderr)
sys.exit(code)
"""


def _reports_peak_rss() -> bool:
    try:
        with open("/proc/self/status") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


def _peak_rss_kb(*argv: str) -> int:
    result = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], check=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return int(result.stderr)


@pytest.mark.skipif(not _reports_peak_rss(), reason="no VmHWM in /proc/self/status")
@pytest.mark.parametrize("argv", [
    ["table", "A3", "--nmax", "1000000", "--method", "formula", "--order", "1000000"],
    ["table", "A3", "--nmax", "1000000", "--method", "lambert", "--order", "1000000"],
    ["compute", "A3", "999999", "--method", "lambert", "--order", "1000000"],
], ids=["formula", "lambert", "lambert-point"])
def test_a_million_row_table_peaks_near_a_point_query(argv):
    # one window at a time: the rows written, or passed on the way to the
    # last, leave no trace in memory
    point = _peak_rss_kb("compute", "A3", "6")
    assert _peak_rss_kb(*argv) - point <= 8 * 1024


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


def _perfbench_argvs() -> list[list[str]]:
    """Every argv of every perfbench workload at seed 0, each pass."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # the oracle values only judge outputs; the argvs do not read them
    stub = SimpleNamespace(lambert=SimpleNamespace(
        tuple_series=lambda k, order: SimpleNamespace(coeffs=(0,) * order)))
    argvs = []
    for workload in workloads.WORKLOADS.values():
        bench = workload(0, stub)
        for index in range(workload.MIN_PASSES):
            argvs += [command.argv for command in bench.pass_commands(index)]
    return argvs


def test_every_perfbench_argv_is_parsed_without_argparse():
    argvs = _perfbench_argvs()
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
    for argv in argvs:
        ours = cli._parse_well_formed(argv)
        assert ours is not None, argv
        assert vars(ours) == _argparse_attrs(argv)
