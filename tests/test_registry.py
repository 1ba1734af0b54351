"""The route and family registries, the relation evaluator, the selfcheck
batteries, and the documents that read the registries."""

import json
import re
import time
from pathlib import Path

import pytest

from core3 import arith, cli, identities, lambert, partitions, routes, series
from core3.cli import (FAMILIES, KINDS, METHODS, Config, main, point_value, run_family,
                       table_values)
from core3.identities import Relation, _sweep

ROOT = Path(__file__).resolve().parent.parent

# (family, checked) of ``core3 selfcheck --nmax 40``, recorded before the
# identity families became Relation data
SELFCHECK_40 = [
    ("cross-validate", 360), ("q-split", 1), ("square-kernel", 1),
    ("pair-fold-cross-term", 1), ("a3-even-power-p2", 82), ("a3-even-power-p5", 82),
    ("BN-1", 123), ("BN-2", 123), ("BN-3", 123), ("lin", 501),
    ("A3-relation-general-p2", 164), ("A3-relation-coprime-p2", 80),
    ("A3-relation-general-p5", 164), ("A3-relation-coprime-p5", 132),
    ("A3-relation-general-p7", 164), ("A3-relation-coprime-p7", 140),
    ("A3-residues-5", 492), ("A3-residues-7", 738),
    ("B3-1", 123), ("B3-2", 123), ("B3-3", 123),
    ("B3-relation-general-p2", 164), ("B3-relation-coprime-p2", 84),
    ("B3-relation-general-p5", 164), ("B3-relation-coprime-p5", 132),
    ("B3-relation-general-p7", 164), ("B3-relation-coprime-p7", 144),
    ("B3-relation-coprime-p3", 164), ("B3-residues-5", 492), ("B3-residues-7", 738),
    ("xia-congruence", 2002), ("xia-conjecture-p3-j1", 204), ("xia-conjecture-p5-j1", 204),
]


def test_selfcheck_checked_counts_are_pinned(capsys):
    assert main(["selfcheck", "--nmax", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [re.match(r"^(\S+)\s+checked=(\d+)\s+PASS\s+\[\d+\.\d\ds\]$", line)
            for line in lines[:-1]]
    assert all(rows), lines
    assert [(m[1], int(m[2])) for m in rows] == SELFCHECK_40
    assert lines[-1] == f"selfcheck: {len(SELFCHECK_40)}/{len(SELFCHECK_40)} families passed"


def _lin(coefficient, **fields):
    return Relation("lin", "A3", lambda k, r: ((8, 6), ((coefficient, 2, 1),)), **fields)


@pytest.mark.parametrize("fields, first", [
    ({}, {"n": 0}),
    # 3m+2 is even exactly when m is, so m = 0 is skipped
    ({"coprime_to": 2}, {"n": 1}),
    ({"ks": range(2, 4), "residues": (1, 2), "base": 3, "labels": {"p": 5}},
     {"p": 5, "k": 2, "r": 1, "n": 0}),
])
def test_wrong_relation_fails_at_first_instance(fields, first):
    # A3(8n+6) == 7*A3(2n+1), so coefficient 6 is wrong for every n
    report = _sweep({"n_max": 9}, 9, _lin(6, **fields))
    assert not report.passed
    assert report.failures[0].inputs == first
    assert list(report.failures[0].inputs) == list(first)
    assert len(report.failures) == report.checked
    assert report.as_dict()["failures"][0]["inputs"] == first


def test_modulus_compares_residues():
    # A3(8n+4) is 0 mod 4 but not always 0 mod 16: A3(4) = 8
    report = _sweep({}, 3, Relation("mod", "A3", lambda k, r: ((8, 4), ()), modulus=16,
                                    labels={"modulus": 16}))
    assert report.failures[0].inputs == {"modulus": 16, "n": 0}
    assert (report.failures[0].lhs, report.failures[0].rhs) == (8, 0)


def test_non_integral_coefficient_raises():
    rel = Relation("bad", "A3", lambda k, r: ((1, 0), ((identities._exact(7, 2), 1, 0),)))
    with pytest.raises(ArithmeticError):
        _sweep({}, 3, rel)


def test_reports_are_timed_one_by_one():
    started = time.perf_counter()
    reports = identities.check_baruah_nath(3, 100)
    wall = time.perf_counter() - started
    assert all(r.seconds > 0 for r in reports)
    assert sum(r.seconds for r in reports) <= wall
    assert set(reports[0].as_dict()) == {"family", "params", "checked", "failures", "passed"}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_family_verifies(family, capsys):
    # the brute cap is run-wide: every family takes it, and only
    # cross-validate reads it
    assert main(["verify", family, "--nmax", "5", "--brute-cap", "3"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["reports"] and all(r["passed"] for r in payload["reports"])


def test_batteries_name_registered_families_and_options():
    batteries = {"selfcheck": identities.selfcheck_battery(200, 40),
                 "wide": identities.wide_battery(4, 200, 40)}
    for name, battery in batteries.items():
        for family, options in battery:
            assert family in FAMILIES, (name, family)
            # run_family refuses an option its family does not take; this
            # finds a misspelt one without running the battery
            assert set(options) <= set(FAMILIES[family].defaults), (name, family, options)


def test_routes_agree_for_every_kind_and_method():
    for kind in KINDS:
        reference = table_values(kind, "formula", 12)
        for method in METHODS:
            assert table_values(kind, method, 12) == reference
            assert [point_value(kind, method, n) for n in range(12)] == reference


def test_route_budgets():
    cfg = Config(order=10, brute_cap=10)
    assert point_value("a3", "series", 9, cfg) == table_values("a3", "series", 10, cfg)[9]
    assert point_value("a3", "brute", 10, cfg) == arith.core_count(10)
    for call in (lambda: point_value("a3", "lambert", 10, cfg),
                 lambda: table_values("a3", "series", 11, cfg),
                 lambda: point_value("a3", "brute", 11, cfg),
                 lambda: table_values("a3", "brute", 12, cfg)):
        with pytest.raises(cli.UsageError, match="exceeds"):
            call()
    # the closed form has no budget, and an empty table asks nothing
    assert point_value("a3", "formula", 10**6, cfg) == arith.core_count(10**6)
    assert table_values("a3", "series", 0, cfg) == []


def test_registries_look_functions_up_when_called(monkeypatch):
    # tracers rebind module attributes; a registry holding the objects found
    # at import would bypass them
    calls = []
    original = arith.pair_count

    def counted(n, *args):
        calls.append(n)
        return original(n, *args)

    monkeypatch.setattr(arith, "pair_count", counted)
    assert run_family("lin", {"nmax": 3})[0].passed
    assert len(calls) == 8
    assert point_value("A3", "formula", 6) == original(6)
    assert len(calls) == 8 + 1
    # the formula table route is one count_table call, not one counter per row
    tables = []
    monkeypatch.setattr(arith, "count_table",
                        lambda kind, n_max: tables.append((kind, n_max)) or [7] * n_max)
    assert table_values("A3", "formula", 4) == [7] * 4
    assert tables == [("A3", 4)]
    stub = identities.IdentityReport("stub", {}, 1)
    monkeypatch.setattr(identities, "check_lin", lambda n_max: stub)
    assert run_family("lin", {}) == [stub]


def _off_by_one_at_7(original, route):
    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        if route == "brute":
            return result + (args[0] == 7)
        return result + series.monomial(result.order, 7)
    return wrong


@pytest.mark.parametrize("module, name, route", [
    (series, "core_tuple_series", "series"),
    (lambert, "tuple_series", "lambert"),
    (partitions, "brute_tuple_count", "brute"),
])
def test_cross_validate_reads_every_route_from_the_registry(module, name, route,
                                                            monkeypatch):
    monkeypatch.setattr(module, name, _off_by_one_at_7(getattr(module, name), route))
    report = identities.cross_validate(20, brute_cap=10)
    # series and Lambert for n < 20, brute for n <= 10, per kind
    assert report.checked == 3 * (20 + 20 + 11)
    assert [f.inputs for f in report.failures] == [
        {"kind": kind, "n": 7, "route": route} for kind in KINDS]


@pytest.mark.parametrize("run", [
    lambda: table_values("B3", "brute", 41),
    lambda: identities.cross_validate(200),
], ids=["table", "cross-validate"])
def test_brute_lane_is_one_walk(run, walks):
    # every row of every kind reads one walk to the top n, t = 3
    run()
    assert walks == [(40, 3)]


@pytest.mark.parametrize("call", [
    lambda: run_family("cross-validate", {"nmax": 80, "brute_cap": 80}),
    lambda: run_family("lin", {"nmax": 3, "brute_cap": 61}),
    lambda: identities.cross_validate(62, brute_cap=61),
    lambda: table_values("a3", "brute", 62, Config(brute_cap=61)),
    lambda: point_value("B3", "brute", 61, Config(brute_cap=61)),
], ids=["run_family", "run_family-dropped", "cross_validate", "table_values", "point_value"])
def test_library_callers_meet_the_brute_cap_ceiling(call, walks):
    # the ceiling of the command line, refused before any walk starts
    with pytest.raises(routes.UsageError,
                       match=f"^brute_cap must be at most {routes.MAX_BRUTE_CAP}, got (61|80)$"):
        call()
    assert walks == []
    assert Config(brute_cap=routes.MAX_BRUTE_CAP).brute_cap == routes.MAX_BRUTE_CAP


def test_selfcheck_wide_end_to_end(capsys):
    assert main(["selfcheck", "--wide", "--kmax", "1", "--nmax", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "selfcheck: 43/43 families passed"


@pytest.mark.parametrize("argv, message", [
    (["--wide", "--kmax", "0", "--nmax", "5"], "--kmax must be >= 1"),
    (["--wide", "--kmax", "1", "--nmax", "-1"], "--nmax must be >= 1"),
    # at n_max = 0 the coprime sweep at p = 2 would check no instance
    (["--wide", "--kmax", "1", "--nmax", "0"], "--nmax must be >= 1"),
    (["--kmax", "1"], "--kmax needs --wide"),
], ids=["kmax-0", "nmax-negative", "nmax-0", "kmax-without-wide"])
def test_selfcheck_refuses_before_any_family_runs(argv, message, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_family", lambda *args: pytest.fail("a family ran"))
    started = time.perf_counter()
    assert main(["selfcheck", *argv]) == 2
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_selfcheck_prints_at_most_five_counterexamples(capsys, monkeypatch):
    original = arith.pair_count
    monkeypatch.setattr(arith, "pair_count", lambda n: original(n) + (n == 6))
    assert main(["selfcheck", "--nmax", "10", "--brute-cap", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    shown = []  # counterexample lines under each FAIL row
    for line in lines[:-1]:
        if line.startswith("    counterexample {"):
            shown[-1] += 1
        elif re.match(r"^\S+\s+checked=\d+\s+FAIL\s", line):
            shown.append(0)
    assert shown and all(1 <= count <= 5 for count in shown)
    assert 5 in shown  # BN-2 has six failures: A3(6) is A3(4n+2) and A3(n)
    assert re.fullmatch(r"selfcheck: (\d+)/33 families passed", lines[-1])[1] == str(
        33 - len(shown))


@pytest.mark.parametrize("call, message", [
    (lambda: identities.run_family("nope", {}), "unknown family 'nope'; known families: "),
    (lambda: identities.run_family("lin", {"nmax": -1}), "--nmax must be >= 0"),
    (lambda: identities.run_family("relation-coprime", {"p": 2, "nmax": 0}),
     "A3-relation-coprime-p2 checked no instance"),
    (lambda: identities.run_family("lin", {"nmax": 3, "p": 7}), "family 'lin' takes no --p"),
    (lambda: routes.table_values("a3", "formula", -1), "--nmax must be >= 0"),
])
def test_library_callers_get_the_cli_refusals(call, message):
    with pytest.raises(routes.UsageError, match=re.escape(message)):
        call()


def test_verify_help_lists_the_registry(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    # argparse may wrap the help text anywhere, hyphens included
    text = "".join(capsys.readouterr().out.split())
    assert "oneof:" + ",".join(FAMILIES) in text


def test_readme_lists_the_registry():
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Known `verify` families:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", paragraph) == list(FAMILIES)
