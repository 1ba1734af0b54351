import json
import time

import pytest

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
