import json
import time

import pytest

from core3 import arith, identities
from core3.arith import pair_count, triple_count
from core3.identities import (
    SWEEP_MAX_BITS,
    XIA_MAX_BITS,
    IdentityReport,
    check_A3_relations,
    check_A3_residue_families,
    check_B3_relations,
    check_B3_residue_families,
    check_a3_even_power,
    check_b3_power_families,
    check_baruah_nath,
    check_lin,
    check_xia_congruences,
    check_xia_conjecture,
    cross_validate,
)
from oracles import xia_conjecture_report


def assert_clean(report):
    assert report.checked > 0
    assert report.failures == []
    assert report.passed


def test_a3_even_power():
    for p in (2, 5):
        assert_clean(check_a3_even_power(p, 4, 100))


def test_a3_even_power_rejects_wrong_residue():
    with pytest.raises(ValueError):
        check_a3_even_power(7, 4, 10)  # 7 = 1 mod 3
    with pytest.raises(ValueError):
        check_a3_even_power(4, 4, 10)  # not prime


def test_baruah_nath_families():
    reports = check_baruah_nath(3, 100)
    assert [r.family for r in reports] == ["BN-1", "BN-2", "BN-3"]
    for report in reports:
        assert_clean(report)


def test_baruah_nath_first_instances():
    # k=1, n=0 of families 1 and 3: A3(2) = 5*A3(0), A3(6) = 7*A3(1)
    assert pair_count(2) == 5 * pair_count(0) == 5
    assert pair_count(6) == 7 * pair_count(1) == 14


def test_lin():
    assert_clean(check_lin(200))


def test_A3_relations_both_variants():
    for p in (2, 7):
        assert_clean(check_A3_relations(p, 3, 100, coprime_variant=False))
        assert_clean(check_A3_relations(p, 3, 100, coprime_variant=True))


def test_A3_relations_degenerate_k_is_swept():
    # k = 0 (and k = 1 for p = 1 mod 3) telescope to tautologies; the sweep
    # must still include and confirm them
    report = check_A3_relations(7, 1, 5, coprime_variant=False)
    assert report.checked == 12  # k in {0, 1}, n in 0..5
    assert_clean(report)


def test_A3_relations_reject_p3():
    with pytest.raises(ValueError):
        check_A3_relations(3, 2, 10)


def test_A3_residue_families():
    for report in check_A3_residue_families(2, 60):
        assert_clean(report)


def test_b3_power_families():
    reports = check_b3_power_families(3, 100)
    assert [r.family for r in reports] == ["B3-1", "B3-2", "B3-3"]
    for report in reports:
        assert_clean(report)


def test_b3_first_instances():
    # B3(2) = 9*B3(0) and B3(1) = 3*B3(0)
    assert triple_count(2) == 9 * triple_count(0) == 9
    assert triple_count(1) == 3 * triple_count(0) == 3


def test_B3_relations_both_variants():
    for p in (2, 7, 13):
        assert_clean(check_B3_relations(p, 3, 100, coprime_variant=False))
        assert_clean(check_B3_relations(p, 3, 100, coprime_variant=True))
    assert_clean(check_B3_relations(3, 3, 100, coprime_variant=True))


def test_B3_general_relation_rejects_p3():
    with pytest.raises(ValueError):
        check_B3_relations(3, 2, 10, coprime_variant=False)


def test_B3_residue_families():
    for report in check_B3_residue_families(2, 60):
        assert_clean(report)


def test_xia_congruences():
    assert pair_count(4) == 8  # n=0 instance of both congruences
    assert_clean(check_xia_congruences(300))


def test_xia_params():
    assert check_xia_conjecture(3, 1, 0, 0).params["k0"] == 3
    assert check_xia_conjecture(5, 2, 0, 0).params["k0"] == 50
    with pytest.raises(ValueError):
        check_xia_conjecture(2, 1, 0, 0)
    with pytest.raises(ValueError):
        check_xia_conjecture(9, 1, 0, 0)
    with pytest.raises(ValueError):
        check_xia_conjecture(3, 0, 0, 0)


def test_xia_conjecture_smallest_instance():
    # p=3, j=1, alpha=0, n=0: argument 4^3*0 + (2^5-2)/3 = 10, A3(10) = 21
    assert pair_count(10) == 21
    assert pair_count(10) % 3 == 0


def test_xia_conjecture_modular_and_direct_agree():
    report = check_xia_conjecture(3, 1, 1, 50)
    assert_clean(report)
    # every direct-path instance compares the two routes
    assert report.checked == 2 * 51 + 2 * 51


def test_xia_conjecture_modular_only_when_huge():
    report = check_xia_conjecture(5, 2, 0, 10)
    assert_clean(report)
    assert report.checked == 11  # arguments near 4^50 never fit 64 bits


def test_xia_conjecture_large_prime_builds_no_power():
    # e = p(p-1) = 100130042 bits: the direct path is ruled out from e alone,
    # so no 12 MB power of two is built per instance
    start = time.perf_counter()
    report = check_xia_conjecture(10007, 1, 0, 50)
    assert time.perf_counter() - start < 2.0
    assert_clean(report)
    assert report.checked == 51


def test_xia_conjecture_reads_one_sieve_per_alpha():
    # sigma(6n+1) = A3(4n) and the direct sides on 6n+1, one sieve for every
    # alpha instead of two factorizations per n (2.3 s before)
    start = time.perf_counter()
    report = check_xia_conjecture(3, 1, 1, 100000)
    assert time.perf_counter() - start < 1.0
    assert_clean(report)
    assert report.checked == 400004


def test_xia_conjecture_at_its_largest_admitted_power():
    # 3^5168 has XIA_MAX_BITS bits, and its report, k0 and all, is written as JSON
    j = 5168
    assert (3**j).bit_length() == XIA_MAX_BITS < (3 ** (j + 1)).bit_length()
    report = check_xia_conjecture(3, j, 0, 0)
    assert_clean(report)
    assert json.loads(json.dumps(report.as_dict()))["params"]["k0"] == 3**j
    # past it, whether p^j is built to be measured (1000003^412 has 8212 bits)
    # or refused from j alone
    for p, past in ((3, j + 1), (1000003, 412), (3, 10**12)):
        with pytest.raises(ValueError, match=f"ceiling of {XIA_MAX_BITS} bits"):
            check_xia_conjecture(p, past, 0, 0)


def test_xia_conjecture_reduces_one_power_per_alpha():
    # 2^e mod 3p^j is carried from one alpha to the next, one product each,
    # where building it anew took 0.17 s per alpha at 4096 bits
    start = time.perf_counter()
    assert_clean(check_xia_conjecture(3, 2584, 200, 0))
    assert time.perf_counter() - start < 2.0


def test_xia_conjecture_at_its_instance_ceiling_runs_in_bounded_time():
    # every alpha is read from one sieve, where one sieve call per alpha took
    # 8.4 s in process on a 2-core Xeon
    start = time.perf_counter()
    assert_clean(check_xia_conjecture(3, 1, 2**20, 0))
    assert time.perf_counter() - start < 5.0


def _one_more_at_2_mod_11(original):
    # every A3 value one too large where its argument is 2 mod 11, whatever
    # the sides it is read with
    def wrong(kind, sides, count):
        lo = 0
        for values in original(kind, sides, count):
            yield [[v + ((step * (lo + i) + offset) % 11 == 2) for i, v in enumerate(side)]
                   for side, (step, offset) in zip(values, sides)]
            lo += len(values[0])
    return wrong


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("p, j, alpha_max, n_max",
                         [(3, 1, 1, 50), (5, 1, 2, 50), (3, 1, 12, 3000)])
def test_xia_conjecture_report_is_the_oracles(monkeypatch, broken, p, j, alpha_max, n_max):
    # at (3, 1, 12, 3000) the direct side of e = 60 holds 3 n and that of
    # e = 54 171, so later windows of 1024 n must read none of them
    if broken:
        monkeypatch.setattr(arith, "progression_counts",
                            _one_more_at_2_mod_11(arith.progression_counts))
    report = check_xia_conjecture(p, j, alpha_max, n_max)
    assert (report.checked, report.failures, report.dropped) == xia_conjecture_report(
        p, j, alpha_max, n_max)
    assert report.failed > 0 if broken else report.passed


@pytest.mark.parametrize("p, j, alpha_max, n_max", [
    (3, 1, 0, 0), (3, 1, 9, 10), (3, 1, 12, 1000), (5, 1, 3, 200), (7, 2, 1, 30)])
def test_xia_conjecture_is_held_to_the_count_it_checks(monkeypatch, p, j, alpha_max, n_max):
    # the count is found from the parameters, the direct path's 2^63 bound included
    checked = check_xia_conjecture(p, j, alpha_max, n_max).checked
    monkeypatch.setattr(identities, "SWEEP_MAX_INSTANCES", checked)
    assert check_xia_conjecture(p, j, alpha_max, n_max).checked == checked
    monkeypatch.setattr(identities, "SWEEP_MAX_INSTANCES", checked - 1)
    with pytest.raises(ValueError, match=f" would check {checked} instances, past"):
        check_xia_conjecture(p, j, alpha_max, n_max)


def test_sweep_is_held_to_the_count_it_checks(monkeypatch):
    # lin to n_max 10 checks 11 instances: run at a ceiling of 11, refused at 10
    monkeypatch.setattr(identities, "SWEEP_MAX_INSTANCES", 11)
    assert check_lin(10).checked == 11
    monkeypatch.setattr(identities, "SWEEP_MAX_INSTANCES", 10)
    with pytest.raises(ValueError, match="^lin would check 11 instances, past the sweep "
                                         "ceiling of 10 instances$"):
        check_lin(10)


def test_relation_sweep_at_its_largest_admitted_argument():
    # at p = 5, k = 441 and nmax 0 the largest argument, (2*5^882 - 2)/3, has
    # SWEEP_MAX_BITS bits; one k more is refused before any instance
    assert_clean(check_A3_relations(5, 441, 0))
    with pytest.raises(ValueError, match=f"sweep ceiling of {SWEEP_MAX_BITS} bits"):
        check_A3_relations(5, 442, 0)


def test_cross_validate_with_brute_lane():
    report = cross_validate(30, brute_cap=30)
    assert_clean(report)
    assert report.checked == 3 * 30 * 3


def test_cross_validate_rejects_empty_range():
    with pytest.raises(ValueError):
        cross_validate(0)


def test_report_shape():
    report = check_lin(5)
    data = report.as_dict()
    assert data["family"] == "lin"
    assert data["checked"] == 6
    assert data["failures"] == []
    assert data["passed"] is True


def test_report_failure_detection():
    bad = IdentityReport("demo", {}, 0, [])
    assert not bad.passed  # zero checks is not a pass
