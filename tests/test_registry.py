"""The route and family registries, the relation evaluator, the selfcheck
batteries, and the documents that read the registries."""

import json
import re
import time
from itertools import chain
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from core3 import arith, cli, identities, lambert, partitions, routes, series
from core3.cli import KINDS, METHODS, Config, main, point_value
from core3.identities import FAMILIES, Relation, _sweep, run_family
from core3.routes import table_values
from oracles import failures_per_k_r

ROOT = Path(__file__).resolve().parent.parent

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


def test_failure_list_keeps_the_first_and_counts_the_rest(monkeypatch):
    # A3(n) == 2*A3(n) fails at every n, since A3(n) >= 1
    n_max = 10**4
    report = _sweep({"n_max": n_max}, n_max,
                    Relation("wrong", "A3", lambda k, r: ((1, 0), ((2, 1, 0),))))
    assert report.checked == report.failed == n_max + 1
    assert [f.inputs for f in report.failures] == [
        {"n": n} for n in range(identities.MAX_FAILURES)]
    assert report.dropped == n_max + 1 - identities.MAX_FAILURES
    data = report.as_dict()
    assert list(data) == ["family", "params", "checked", "failures", "failures_total", "passed"]
    assert data["failures_total"] == n_max + 1
    assert cli._summary_line(report) == f"wrong: checked={n_max + 1} failures={n_max + 1} FAIL"
    # cross-validate's a3 series lane one too large at n < 150
    original = routes.table_values
    monkeypatch.setattr(routes, "table_values", lambda kind, method, *args: [
        v + (kind == "a3" and method == "series" and n < 150)
        for n, v in enumerate(original(kind, method, *args))])
    broken = identities.cross_validate(200)
    assert (len(broken.failures), broken.failed) == (identities.MAX_FAILURES, 150)
    assert [f.inputs for f in broken.failures] == [
        {"kind": "a3", "n": n, "route": "series"} for n in range(identities.MAX_FAILURES)]
    # a report that dropped nothing writes no total
    assert "failures_total" not in _sweep({}, 9, _lin(6)).as_dict()


@pytest.mark.parametrize("relation", [
    _lin(7),
    _lin(7, coprime_to=2),
    Relation("A3-5", "A3", identities._A3_terms(5, True), range(4), residues=(0, 1, 2, 3, 4),
             base=5, coprime_to=5),
    Relation("B3-7", "B3", identities._B3_terms(7, False), range(1, 3), coprime_to=7),
    Relation("B3-3", "B3", identities._B3_terms(3, True), range(3), residues=(0, 2), base=9,
             coprime_to=3),
    Relation("A3-4", "A3", identities._A3_terms(2, True), range(3), base=2, coprime_to=4),
], ids=["lin", "lin-coprime-2", "A3-residues-5", "B3-general-7", "B3-base-9", "A3-coprime-4"])
def test_relation_count_and_extent_are_the_sweep_box(relation):
    s, t = arith._PROGRESSIONS[relation.kind][:2]
    for n_max in (-1, 0, 1, 2, 7, 50):
        kept, arguments = 0, []
        for k in relation.ks:
            for r in relation.residues:
                (a, b), terms = relation.terms(k, r)
                for n in range(n_max + 1):
                    m = relation.base * n + (r or 0)
                    arguments += [a * m + b] + [ai * m + bi for _, ai, bi in terms]
                    p = relation.coprime_to
                    kept += p is None or (s * m + t) % p != 0
        assert relation.count(n_max) == kept, n_max
        assert relation.extent(n_max) == max(arguments, default=None), n_max
        assert _sweep({}, n_max, relation).checked == kept, n_max


def test_extent_stops_at_the_first_side_past_the_ceiling():
    # so a sweep with a huge k_max is refused without building 2**k_max
    built = []

    def terms(k, r):
        built.append(k)
        return (2**k, 0), ((1, 1, 0),)

    relation = Relation("powers", "A3", terms, range(10**12))
    assert relation.extent(1) == 2**identities.SWEEP_MAX_BITS
    assert built == list(range(identities.SWEEP_MAX_BITS + 1))


def test_a_sweep_that_checks_nothing_reads_no_value(capsys, monkeypatch):
    for name in ("progression_counts", "core_count", "pair_count", "triple_count",
                 "_closed_form", "factorize"):
        monkeypatch.setattr(arith, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    assert main(["verify", "relation-coprime", "--p", "2", "--nmax", "0"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: A3-relation-coprime-p2 checked no instance; raise --nmax\n")


# every family that sweeps relations, at its defaults and as the default
# battery runs it: all of them read arith.progression_counts
_SWEEPS = [(name, {}) for name in FAMILIES
           if name not in ("cross-validate", "structural", "xia-conjecture")]
_SWEEPS += [(name, options) for name, options in identities.selfcheck_battery(200)
            if name not in ("cross-validate", "structural", "xia-conjecture")]


@pytest.mark.parametrize("broken", [False, True])
def test_reports_do_not_depend_on_the_path_a_side_takes(broken, monkeypatch):
    if broken:
        # wrong prime-power rules, still divisible where the closed form
        # divides, so that the reports compared carry failures
        for name, wrong in (("_core_prime_power", lambda p, a: p == 7),
                            ("_sigma_prime_power", lambda p, a: 3 * (p == 11 and a == 1)),
                            ("weighted_divisor_sum_prime_power",
                             lambda p, k: p == 5 and k == 2)):
            rule = getattr(arith, name)
            monkeypatch.setattr(arith, name, lambda p, e, rule=rule, wrong=wrong:
                                rule(p, e) + wrong(p, e))

    def reports():
        return [run_family(name, options) for name, options in _SWEEPS]

    tops = []
    progression_counts = arith.progression_counts

    def logged(kind, sides, count):
        tops.extend(step * (count - 1) + offset for step, offset in sides)
        return progression_counts(kind, sides, count)

    monkeypatch.setattr(arith, "progression_counts", logged)
    reference = reports()
    failed = sum(r.failed for family in reference for r in family)
    assert failed > 0 if broken else failed == 0
    # every top is small enough to sieve outright
    assert max(tops) < 10**9
    with monkeypatch.context() as patch:
        patch.setattr(arith, "_SIEVE_CROSSOVER", 0)
        patch.setattr(arith, "_primes_upto", lambda bound: pytest.fail("a side was sieved"))
        assert reports() == reference
    with monkeypatch.context() as patch:
        patch.setattr(arith, "_SIEVE_CROSSOVER", float("inf"))
        patch.setattr(arith, "_closed_form", lambda *args: pytest.fail("a point count ran"))
        assert reports() == reference


def test_every_k_of_each_relation_residue_shares_one_primitive_form(monkeypatch):
    # each family's sides of every k at one residue r are g*(alpha*n + beta)
    # for one primitive form alpha*n + beta, so a sweep can read every k of a
    # (relation, r) from one sieve: with no cap on the ks per call, each call
    # carries them all, and the engine would refuse sides on two forms
    monkeypatch.setattr(identities, "_KS_PER_CALL", 10**9)
    forms = []
    progression_counts = arith.progression_counts

    def logged(kind, sides, count):
        a, b = arith._PROGRESSIONS[kind][:2]
        forms.append({(a * step // gcd(a * step, a * offset + b),
                       (a * offset + b) // gcd(a * step, a * offset + b))
                      for step, offset in sides})
        return progression_counts(kind, sides, count)

    monkeypatch.setattr(arith, "progression_counts", logged)
    wide = [(name, options) for name, options in identities.wide_battery(4, 5)
            if name not in ("cross-validate", "structural", "xia-conjecture")]
    for name, options in _SWEEPS + wide:
        run_family(name, options)
    assert forms and all(len(f) == 1 for f in forms)


@pytest.mark.parametrize("per_call", [1, 3, None])
@pytest.mark.parametrize("max_failures, n_max", [(None, 300), (300, 30)])
def test_failures_keep_the_per_k_r_order_across_calls(per_call, max_failures, n_max,
                                                       monkeypatch):
    # B3-residues at p reads B3 at p^k*(p*n + r + 1) on its left, which p
    # divides exactly k times, and p^k's true rule in its coefficient.  A rule
    # raised at 5**2, 5**3 and 5**dense, past the ks of one call, fails
    # B3-residues-5 at every n of those k and B3-residues-7 nowhere: more than
    # MAX_FAILURES at each (k, r) to n = 300, and failures past the first
    # call's ks kept when MAX_FAILURES is raised to 300 at n = 30.  In windows
    # of 16 terms, as a call of 5 or more sides reads at an arith._SIDE_WINDOW
    # of 16, k = 2 and 3 of one call fail window by window, out of (k, r, n)
    # order.
    # The reports equal one engine call per (k, r)'s.
    dense = identities._KS_PER_CALL + 3
    k_max = 2 * identities._KS_PER_CALL + 1
    if per_call is not None:
        monkeypatch.setattr(identities, "_KS_PER_CALL", per_call)
    if max_failures is not None:
        monkeypatch.setattr(identities, "MAX_FAILURES", max_failures)
    monkeypatch.setattr(arith, "_SIDE_WINDOW", 16)
    rule = arith.weighted_divisor_sum_prime_power
    monkeypatch.setattr(arith, "weighted_divisor_sum_prime_power",
                        lambda p, e: rule(p, e) + (p == 5 and e in (2, 3, dense)))
    reports = identities.check_B3_residue_families(k_max, n_max)
    for report, (p, residues) in zip(reports, ((5, range(4)), (7, range(6)))):
        relation = Relation(report.family, "B3", identities._B3_terms(p, True),
                            range(k_max + 1), residues=residues, base=p)
        assert (report.failures, report.dropped) == failures_per_k_r(n_max, relation)
    failing = [(k, r, n) for k in (2, 3, dense) for r in range(4) for n in range(n_max + 1)]
    assert [(f.inputs["k"], f.inputs["r"], f.inputs["n"])
            for f in reports[0].failures] == failing[:identities.MAX_FAILURES]
    assert reports[0].failed == len(failing) and reports[1].failed == 0


def test_failures_of_a_report_keep_their_relation_order():
    # two relations in one report, as xia-congruence sweeps them: to n = 300,
    # A3(8n+4) is not 0 mod 8 at 73 n and A3(16n+4) not 0 mod 16 at 157
    relations = [Relation("mod", "A3", lambda k, r, a=a: ((a, 4), ()), modulus=a,
                          labels={"modulus": a}) for a in (8, 16)]
    report = _sweep({}, 300, *relations)
    assert (report.failures, report.dropped) == failures_per_k_r(300, *relations)
    moduli = [f.inputs["modulus"] for f in report.failures]
    assert moduli == [8] * 73 + [16] * 27 and report.dropped == 130


def test_a_residue_family_makes_one_engine_call_per_residue(monkeypatch):
    # verify A3-residues at its defaults: k = 0..4 at 4 residues of p = 5 and
    # 6 of p = 7, each residue's ks in one call rather than one call per (k, r)
    calls = []
    progression_counts = arith.progression_counts
    monkeypatch.setattr(arith, "progression_counts",
                        lambda kind, sides, *args: calls.append(len(sides))
                        or progression_counts(kind, sides, *args))
    reports = run_family("A3-residues", {})
    assert all(r.passed for r in reports)
    # each k reads a left side and one right side
    assert calls == [2 * 5] * (4 + 6)


def _longest_windows(monkeypatch) -> dict:
    """{number of sides: the most terms of each side one window of a call
    with that many sides held}, filled in as sweeps read arith.progression_counts."""
    windows = {}
    progression_counts = arith.progression_counts

    def logged(kind, sides, count):
        for values in progression_counts(kind, sides, count):
            windows[len(sides)] = max(windows.get(len(sides), 0), len(values[0]))
            yield values

    monkeypatch.setattr(arith, "progression_counts", logged)
    return windows


def test_a_sweep_window_grows_as_its_sides_shrink(monkeypatch):
    # a call reads _SIDE_WINDOW terms of each side at once from 5 sides up,
    # twice as many from 3 or 4, 4 times from 2 (lin) and 8 times from one,
    # so a test that shrinks arith._SIDE_WINDOW shrinks every window
    monkeypatch.setattr(arith, "_SIDE_WINDOW", 16)
    windows = _longest_windows(monkeypatch)
    assert run_family("lin", {"nmax": 300})[0].passed
    assert windows == {2: 64}
    # lin with 1 to 4 right sides of coefficient 0 added: 3 to 6 sides
    for zeros in range(1, 5):
        terms = ((8, 6), ((7, 2, 1),) + ((0, 2, 1),) * zeros)
        assert _sweep({}, 300, Relation("lin", "A3", lambda k, r, terms=terms: terms)).passed
    for name, options in _SWEEPS:
        run_family(name, options)
    # every call reads more terms than one window holds here
    assert {sides: windows[sides] for sides in range(1, 5)} == {1: 128, 2: 64, 3: 32, 4: 32}
    assert {window for sides, window in windows.items() if sides >= 5} == {16}


@pytest.mark.parametrize("family, options, windows", [
    ("lin", {"nmax": 5000}, {2: 4096}),
    ("xia-congruence", {"nmax": 9000}, {1: 8192}),
    # BN-1 and BN-3 read 2 sides per k, BN-2 3: 12 and 18 sides a call
    ("BN", {"kmax": 6, "nmax": 1100}, {12: 1024, 18: 1024}),
    # k = 0..4 at each residue, 2 sides per k
    ("A3-residues", {"kmax": 4, "nmax": 1100}, {10: 1024}),
])
def test_sweeps_read_windows_of_the_sieve_rule(monkeypatch, family, options, windows):
    # the terms of each side a sweep reads at once, as arith.progression_counts
    # sizes them: 2**10 from 5 sides up, 2**12 for lin's two and 2**13 for
    # xia-congruence's one
    longest = _longest_windows(monkeypatch)
    assert all(report.passed for report in run_family(family, options))
    assert longest == windows


def test_sides_of_two_forms_are_an_implementation_bug():
    # A3(8n+6) and A3(2n+1) are sigma at 4(6n+5) and 6n+5, A3(n) and A3(4n+2)
    # at 3n+2 and 4(3n+2): sides on two primitive forms, which no relation has
    sides = [(8, 6), (2, 1), (1, 0), (4, 2)]
    with pytest.raises(ArithmeticError, match=r"forms \(6, 5\) and \(3, 2\), not one"):
        next(arith.progression_counts("A3", sides, 301))


@pytest.mark.parametrize("broken", [False, True])
def test_the_sieve_reads_a_cofactor_prime_where_a_side_lacks_it(broken, monkeypatch):
    # lin, A3(8n+6) == 7 * A3(2n+1), is sigma at 4(6n+5) and 6n+5: one form,
    # whose first side has 2 at exponent 2 and whose second has none
    relation = Relation("lin", "A3", lambda k, r: ((8, 6), ((7, 2, 1),)))
    if broken:
        # 3 more at 2**2 keeps sigma's divisibility by 3 and breaks the
        # relation at every n; 3 more at 2**0, an exponent no argument has,
        # shows if a side reads the rule where its power of 2 is absent
        rule = arith._sigma_prime_power
        monkeypatch.setattr(arith, "_sigma_prime_power",
                            lambda p, a: rule(p, a) + 3 * (p == 2 and a in (0, 2)))
    forms = []
    sieve = arith._sieve_windows
    monkeypatch.setattr(arith, "_sieve_windows",
                        lambda kind, alpha, beta, *args: forms.append((alpha, beta))
                        or sieve(kind, alpha, beta, *args))
    report = _sweep({}, 300, relation)
    assert forms == [(6, 5)]
    assert report.checked == 301 and report.failed == (301 if broken else 0)
    # with no sieving primes, the sweep reads the same form and report
    with monkeypatch.context() as patch:
        patch.setattr(arith, "_SIEVE_CROSSOVER", 0)
        patch.setattr(arith, "_primes_upto", lambda bound: pytest.fail("a side was sieved"))
        assert _sweep({}, 300, relation) == report
    assert forms == [(6, 5), (6, 5)]


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


def test_the_registry_name_decides_the_relation_variant():
    # the variant is fixed by the family's name, not an option a caller passes
    with pytest.raises(routes.UsageError,
                       match="^family 'relation-general' takes no --coprime_variant$"):
        run_family("relation-general", {"coprime_variant": True})
    assert [r.family for name in ("relation-general", "relation-coprime",
                                  "B3-relation-general", "B3-relation-coprime")
            for r in run_family(name, {"kmax": 1, "nmax": 3})] == [
        "A3-relation-general-p5", "A3-relation-coprime-p5",
        "B3-relation-general-p5", "B3-relation-coprime-p5"]


def test_batteries_name_registered_families_and_options():
    batteries = {"selfcheck": identities.selfcheck_battery(200),
                 "wide": identities.wide_battery(4, 200)}
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
    # the order bounds the series route only
    assert point_value("a3", "lambert", 10, cfg) == arith.core_count(10)
    assert table_values("a3", "lambert", 11, cfg) == table_values("a3", "formula", 11)
    # a table's windows are refused at the call, before the first window
    for call in (lambda: table_values("a3", "series", 11, cfg),
                 lambda: point_value("a3", "brute", 11, cfg),
                 lambda: table_values("a3", "brute", 12, cfg),
                 lambda: routes.table_windows("a3", "brute", 12, cfg)):
        with pytest.raises(cli.UsageError, match="exceeds"):
            call()
    # the closed form has no budget, and an empty table asks nothing
    assert point_value("a3", "formula", 10**6, cfg) == arith.core_count(10**6)
    assert table_values("a3", "series", 0, cfg) == []


# each route's own bound at the defaults, as the most rows of a table, and
# the words of the refusal past it
_BOUNDS = {"formula": (routes.MAX_TABLE_TERMS, f"table ceiling of {routes.MAX_TABLE_TERMS}"),
           "series": (routes.MAX_SERIES_ORDER,
                      f"series route's ceiling of {routes.MAX_SERIES_ORDER} terms"),
           "lambert": (routes.MAX_TABLE_TERMS, f"table ceiling of {routes.MAX_TABLE_TERMS}"),
           "brute": (routes.DEFAULT_BRUTE_CAP + 1, f"brute-force cap {routes.DEFAULT_BRUTE_CAP}")}


@pytest.mark.parametrize("method", METHODS)
def test_each_route_reaches_its_own_bound_at_the_defaults(method):
    # a table up to n = bound - 1 is answered (its first window read; a3's
    # series table at its ceiling takes about 2 s), and n = bound is refused
    bound, words = _BOUNDS[method]
    first = next(routes.table_windows("a3", method, bound, Config()))
    assert list(first[:20]) == table_values("a3", "formula", 20)
    if len(first) == bound:
        assert first[-1] == arith.core_count(bound - 1)
    with pytest.raises(routes.UsageError, match=f"^--nmax {bound + 1} exceeds the {words}"):
        routes.table_windows("a3", method, bound + 1, Config())
    # a formula point query has no bound
    if method != "formula":
        with pytest.raises(routes.UsageError, match=f"^n={bound} exceeds the {words}"):
            point_value("a3", method, bound, Config())


def test_registries_look_functions_up_when_called(monkeypatch):
    # tracers rebind module attributes; a registry holding the objects found
    # at import would bypass them
    sides = []
    progression_counts = arith.progression_counts

    def counted_sides(*args):
        sides.append(args)
        return progression_counts(*args)

    monkeypatch.setattr(arith, "progression_counts", counted_sides)
    assert run_family("lin", {"nmax": 3})[0].passed
    # one read carries both sides: A3(8n + 6) and A3(2n + 1) for n = 0..3
    assert sides == [("A3", [(8, 6), (2, 1)], 4)]
    calls = []
    original = arith.pair_count

    def counted(n, *args):
        calls.append(n)
        return original(n, *args)

    monkeypatch.setattr(arith, "pair_count", counted)
    # with no sieving primes the engine reaches the rebound prime-power rule
    # at every prime of 4(6n + 5) and 6n + 5, and no point counter
    primes = set()
    rule = arith._sigma_prime_power
    monkeypatch.setattr(arith, "_sigma_prime_power",
                        lambda p, a: primes.add(p) or rule(p, a))
    monkeypatch.setattr(arith, "_SIEVE_CROSSOVER", 0)
    assert run_family("lin", {"nmax": 3})[0].passed
    assert primes == {2, 5, 11, 17, 23} and not calls and len(sides) == 2
    assert point_value("A3", "formula", 6) == original(6)
    assert len(calls) == 1
    # the formula table route is one count_windows call, not one counter per row
    tables = []
    monkeypatch.setattr(arith, "count_windows",
                        lambda kind, n_max, *share: tables.append((kind, n_max))
                        or iter([[7] * n_max]))
    assert table_values("A3", "formula", 4) == [7] * 4
    assert tables == [("A3", 4)]
    stub = identities.IdentityReport("stub", {}, 1)
    monkeypatch.setattr(identities, "check_lin", lambda n_max: stub)
    assert run_family("lin", {}) == [stub]


def _off_by_one_at_7(original):
    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        if isinstance(result, series.TruncatedSeries):
            return series.from_coeffs([c + (n == 7) for n, c in enumerate(result.coeffs)])
        # a table from n = 0, whole or as windows; the windows are given back
        # as one
        windows = not isinstance(result, list)
        table = [value + (n == 7) for n, value in
                 enumerate(chain.from_iterable(result) if windows else result)]
        return iter([table]) if windows else table
    return wrong


@pytest.mark.parametrize("module, name, route", [
    (arith, "count_windows", "formula"),
    (series, "core_tuple_series", "series"),
    (lambert, "tuple_windows", "lambert"),
    (partitions, "brute_tuple_table", "brute"),
])
def test_cross_validate_reads_every_route_from_the_registry(module, name, route,
                                                            monkeypatch):
    monkeypatch.setattr(module, name, _off_by_one_at_7(getattr(module, name)))
    report = identities.cross_validate(20, brute_cap=10)
    # series and Lambert for n < 20, brute for n <= 10, per kind
    assert report.checked == 3 * (20 + 20 + 11)
    # a wrong reference is named for every other route
    named = [other for other in METHODS[1:] if route in ("formula", other)]
    assert [f.inputs for f in report.failures] == [
        {"kind": kind, "n": 7, "route": other} for kind in KINDS for other in named]


def test_structural_square_kernel_reads_the_series_engine(monkeypatch):
    # the k^2 kernel check divides through series.div; the q-split reads only
    # products, and the pair-fold cross term only the Lambert route
    monkeypatch.setattr(series, "div", _off_by_one_at_7(series.div))
    assert [(r.family, r.passed) for r in run_family("structural", {})] == [
        ("q-split", True), ("square-kernel", False), ("pair-fold-cross-term", True)]


def test_a_failed_structural_check_reports_its_order_as_one_failure(monkeypatch):
    # a check is one instance: failed, it reads 0 against 1 under its params
    monkeypatch.setattr(series, "div", _off_by_one_at_7(series.div))
    report = identities.structural_reports(200)[1]
    assert report.as_dict() == {
        "family": "square-kernel", "params": {"order": 100}, "checked": 1,
        "failures": [{"inputs": {"order": 100}, "lhs": "0", "rhs": "1"}], "passed": False}


@pytest.mark.parametrize("module, name, failing", [
    (series, "pentagonal", "q-split"),
    (lambert, "tuple_windows", "pair-fold-cross-term"),
], ids=["q-split", "pair-fold-cross-term"])
def test_structural_checks_read_their_routes(module, name, failing, monkeypatch):
    # q-split builds (q;q) and (q^3;q^3) with the series route's builder, and
    # the pair fold reads the Lambert route's pair series; each sees only its own
    monkeypatch.setattr(module, name, _off_by_one_at_7(getattr(module, name)))
    assert [(r.family, r.passed) for r in run_family("structural", {})] == [
        (family, family != failing)
        for family in ("q-split", "square-kernel", "pair-fold-cross-term")]


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 500))
@example(2)
@example(500)
def test_structural_checks_hold_at_every_order_they_are_run_at(order):
    # structural_reports runs them at every order from 2 to 500
    assert series.verify_q_split(order)
    assert not any(lambert.pair_fold_cross_term(order).coeffs)


@pytest.mark.parametrize("run, tables", [
    (lambda: table_values("B3", "brute", 41), 1),
    (lambda: identities.cross_validate(200), 3),
], ids=["table", "cross-validate"])
def test_brute_lane_is_one_walk(run, tables, walks):
    # every row of a table reads one walk to the top n, t = 3: one per kind
    run()
    assert walks == [(40, 3)] * tables


@pytest.mark.parametrize("call", [
    lambda: run_family("cross-validate", {"nmax": 80, "brute_cap": 80}),
    lambda: run_family("lin", {"nmax": 3, "brute_cap": 61}),
    lambda: identities.cross_validate(62, brute_cap=61),
    lambda: table_values("a3", "brute", 62, Config(brute_cap=61)),
    lambda: point_value("B3", "brute", 61, Config(brute_cap=61)),
    # a Config is a NamedTuple: _replace builds a new one and meets the check too
    lambda: table_values("a3", "brute", 62, Config()._replace(brute_cap=61)),
], ids=["run_family", "run_family-dropped", "cross_validate", "table_values", "point_value",
        "Config._replace"])
def test_library_callers_meet_the_brute_cap_ceiling(call, walks):
    # the ceiling of the command line, refused before any walk starts
    with pytest.raises(routes.UsageError,
                       match=f"^--brute-cap must be at most {routes.MAX_BRUTE_CAP}, got (61|80)$"):
        call()
    assert walks == []
    assert Config(brute_cap=routes.MAX_BRUTE_CAP).brute_cap == routes.MAX_BRUTE_CAP


@pytest.mark.parametrize("argv, message", [
    (["--wide", "--kmax", "0", "--nmax", "5"], "--kmax must be >= 1"),
    (["--wide", "--kmax", "1", "--nmax", "-1"], "--nmax must be >= 1"),
    # at n_max = 0 the coprime sweep at p = 2 would check no instance
    (["--wide", "--kmax", "1", "--nmax", "0"], "--nmax must be >= 1"),
    (["--kmax", "1"], "--kmax needs --wide"),
], ids=["kmax-0", "nmax-negative", "nmax-0", "kmax-without-wide"])
def test_selfcheck_refuses_before_any_family_runs(argv, message, capsys, monkeypatch):
    monkeypatch.setattr(identities, "run_family", lambda *args: pytest.fail("a family ran"))
    started = time.perf_counter()
    assert main(["selfcheck", *argv]) == 2
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_selfcheck_prints_at_most_five_counterexamples(capsys, monkeypatch):
    original = arith.progression_counts

    def wrong_at_6(kind, sides, count, *share):
        # A3(6) one too large, wherever a sweep side reads it; selfcheck reads
        # every window, so the first is at lo = 0
        lo = 0
        for values in original(kind, sides, count, *share):
            yield [[v + (kind == "A3" and step * (lo + i) + offset == 6)
                    for i, v in enumerate(side)] for side, (step, offset) in zip(values, sides)]
            lo += len(values[0])

    monkeypatch.setattr(arith, "progression_counts", wrong_at_6)
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
    (lambda: identities.run_family("cross-validate", {"nmax": 10, "brute_cap": -1}),
     "--brute-cap must be an integer >= 0, got -1"),
    (lambda: Config(order=0), "--order must be >= 1"),
])
def test_library_callers_get_the_cli_refusals(call, message):
    with pytest.raises(routes.UsageError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("flags, calls", [
    (("--brute-cap", "-1"), (
        lambda: Config(brute_cap=-1),
        lambda: run_family("lin", {"nmax": 3, "brute_cap": -1}),
        lambda: table_values("a3", "brute", 5, Config()._replace(brute_cap=-1)))),
    (("--brute-cap", "61"), (
        lambda: Config(brute_cap=61),
        lambda: run_family("lin", {"nmax": 3, "brute_cap": 61}),
        lambda: table_values("a3", "brute", 5, Config()._replace(brute_cap=61)))),
    # no family takes an order budget
    (("--order", "0"), (
        lambda: Config(order=0),
        lambda: table_values("a3", "series", 5, Config()._replace(order=0)))),
], ids=["brute-cap-negative", "brute-cap-past-ceiling", "order-0"])
def test_budget_refusals_match_the_cli(flags, calls, capsys):
    assert main(["compute", "a3", "5", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    for call in calls:
        with pytest.raises(routes.UsageError) as refusal:
            call()
        assert f"error: {refusal.value}\n" == err


@pytest.mark.parametrize("n_max", [0, 5])
@pytest.mark.parametrize("entry", [routes.table_windows, table_values, point_value])
@pytest.mark.parametrize("kind, method, message", [
    ("zz", "formula", "unknown kind 'zz'; known kinds: a3, A3, B3"),
    ("a3", "nope", "unknown method 'nope'; known methods: formula, series, lambert, brute"),
], ids=["kind", "method"])
def test_routes_refuse_unknown_kinds_and_methods(kind, method, message, entry, n_max):
    with pytest.raises(routes.UsageError, match=f"^{re.escape(message)}$"):
        entry(kind, method, n_max)


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


def _lin_terms(k, r):
    return (8, 6), ((7, 2, 1),)


@pytest.mark.parametrize("make, field, hashable", [
    (lambda: arith.Factorization(12, ((2, 2), (3, 1))), "n", True),
    (lambda: identities.Failure({"n": 3}, 1, 2), "lhs", False),
    (lambda: Relation("lin", "A3", _lin_terms, range(3), labels={"p": 5}), "base", False),
    # hashable, so labels has no dict for a default
    (lambda: Relation("lin", "A3", _lin_terms, range(3)), "labels", True),
    (lambda: identities.Family("check_lin", {"nmax": 500}), "check", False),
    (lambda: Config(order=10, brute_cap=20), "brute_cap", True),
    (lambda: series.from_coeffs([1, 2, 3]), "coeffs", True),
    # built from a list, it keeps a tuple, so it hashes
    (lambda: series.TruncatedSeries([1, 2, 3]), "coeffs", True),
], ids=["Factorization", "Failure", "Relation", "Relation-unlabelled", "Family", "Config",
        "TruncatedSeries", "TruncatedSeries-from-list"])
def test_value_classes_are_frozen_and_compare_by_value(make, field, hashable):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    twin = make()
    assert twin == value and twin is not value and not twin != value
    if hashable:
        assert hash(twin) == hash(value)
    assert value != object()


def test_report_equality_ignores_seconds():
    failures = [identities.Failure({"n": 0}, 1, 2)]
    report = identities.IdentityReport("demo", {"n_max": 3}, 4, failures, 0.5, 1)
    assert report == identities.IdentityReport("demo", {"n_max": 3}, 4, list(failures), 9.0, 1)
    assert report != identities.IdentityReport("demo", {"n_max": 3}, 4, failures, 0.5, 2)
    assert report != identities.IdentityReport("demo", {"n_max": 3}, 5, failures, 0.5, 1)
    assert identities.IdentityReport("demo", {}, 1).failures == []
    assert identities.IdentityReport("a", {}, 1).failures is not identities.IdentityReport(
        "b", {}, 1).failures
    with pytest.raises(TypeError):  # mutable, so unhashable, as an eq dataclass is
        hash(report)


def test_report_is_unequal_to_a_non_report_and_shows_its_fields():
    report = identities.IdentityReport("demo", {"n_max": 3}, 4, [], 0.5, 1)
    assert report != object() and report != report.as_dict()
    assert repr(report) == ("IdentityReport(family='demo', params={'n_max': 3}, checked=4, "
                            "failures=[], seconds=0.5, dropped=1)")
