"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons are exact integer equality; the two timed criteria
assert their stated wall-clock budgets.
"""

import time
from math import gcd, isqrt

from core3 import arith, identities, lambert, partitions, series
from core3.arith import core_count, pair_count, sigma, triple_count
from oracles import weighted_divisor_sum


def _announce(label, ok, elapsed):
    print(f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s)")


def test_criterion_1_four_oracle_agreement():
    start = time.perf_counter()
    n_max = 40
    mismatches = []
    for k in (1, 2, 3):
        from_series = series.core_tuple_series(3, k, n_max)
        from_lambert = lambert.tuple_series(k, n_max)
        closed = {1: core_count, 2: pair_count, 3: triple_count}[k]
        brute = partitions.brute_tuple_table(n_max, 3, k, cap=n_max)
        for n in range(n_max):
            values = {
                "series": from_series[n],
                "lambert": from_lambert[n],
                "formula": closed(n),
                "brute": brute[n],
            }
            if len(set(values.values())) != 1:
                mismatches.append((k, n, values))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30
    _announce("criterion 1: four-oracle agreement, n < 40", ok, elapsed)
    assert mismatches == []
    assert elapsed < 30


def test_criterion_2_three_oracle_agreement():
    start = time.perf_counter()
    n_max = 2000
    mismatches = []
    for k in (1, 2, 3):
        from_series = series.core_tuple_series(3, k, n_max)
        from_lambert = lambert.tuple_series(k, n_max)
        closed = {1: core_count, 2: pair_count, 3: triple_count}[k]
        for n in range(n_max):
            a, b, c = from_series[n], from_lambert[n], closed(n)
            if not (a == b == c):
                mismatches.append((k, n, a, b, c))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10
    _announce("criterion 2: three-oracle agreement, n < 2000", ok, elapsed)
    assert mismatches == []
    assert elapsed < 10


def test_criterion_3_spot_values():
    start = time.perf_counter()
    # a3(0..4) by hook-length enumeration
    brute_a3 = partitions.brute_tuple_table(5, 3, 1)
    assert brute_a3 == [1, 1, 2, 0, 2]
    assert [core_count(n) for n in range(5)] == [1, 1, 2, 0, 2]

    # A3 at n = 0, 2, 6, 10 by divisor enumeration of sigma(3n+2)
    def sigma_brute(m):
        return sum(d for d in range(1, m + 1) if m % d == 0)

    for n, expected in ((0, 1), (2, 5), (6, 14), (10, 21)):
        assert sigma_brute(3 * n + 2) // 3 == expected
        assert sigma_brute(3 * n + 2) % 3 == 0
        assert pair_count(n) == expected

    # B3(0..4) by the weighted divisor sums of 1..5
    def weighted_brute(m):
        total = 0
        for d in range(1, m + 1):
            if m % d == 0 and d % 3:
                total += (1 if d % 3 == 1 else -1) * (m // d) ** 2
        return total

    assert [weighted_brute(m) for m in range(1, 6)] == [1, 3, 9, 13, 24]
    assert [triple_count(n) for n in range(5)] == [1, 3, 9, 13, 24]
    _announce("criterion 3: spot values", True, time.perf_counter() - start)


def test_criterion_4_lin_relation():
    start = time.perf_counter()
    report = identities.check_lin(500)
    _announce("criterion 4: A3(8n+6) = 7*A3(2n+1), n <= 500",
              report.passed, time.perf_counter() - start)
    assert report.failures == []
    assert report.checked == 501


def test_criterion_5_baruah_nath_families():
    start = time.perf_counter()
    reports = identities.check_baruah_nath(5, 200)
    ok = all(r.passed for r in reports)
    _announce("criterion 5: the three BN families, k <= 5, n <= 200",
              ok, time.perf_counter() - start)
    for report in reports:
        assert report.failures == []
        assert report.checked == 5 * 201


def test_criterion_6_relation_theorems():
    start = time.perf_counter()
    reports = []
    reports += identities.check_b3_power_families(5, 200)
    for p in (2, 5, 7, 11, 13):
        reports.append(identities.check_A3_relations(p, 4, 200, False))
        reports.append(identities.check_A3_relations(p, 4, 200, True))
        reports.append(identities.check_B3_relations(p, 4, 200, False))
        reports.append(identities.check_B3_relations(p, 4, 200, True))
    reports.append(identities.check_B3_relations(3, 4, 200, True))
    reports += identities.check_A3_residue_families(4, 200)
    reports += identities.check_B3_residue_families(4, 200)
    failures = [(r.family, r.failures[:3]) for r in reports if not r.passed]
    _announce("criterion 6: relation theorems and residue corollaries",
              not failures, time.perf_counter() - start)
    assert failures == []


def test_criterion_7_xia_congruences():
    start = time.perf_counter()
    report = identities.check_xia_congruences(1000)
    _announce("criterion 7: A3(8n+4) = 0 mod 4, A3(16n+4) = 0 mod 8, n <= 1000",
              report.passed, time.perf_counter() - start)
    assert report.failures == []
    assert report.checked == 2 * 1001


def test_criterion_8_xia_conjecture():
    start = time.perf_counter()
    reports = [identities.check_xia_conjecture(p, j, 1, 50)
               for p in (3, 5, 7) for j in (1, 2)]
    ok = all(r.passed for r in reports)
    # the smallest instance, directly: A3(10) = 21 = 0 mod 3
    direct = pair_count(4**3 * 0 + (2**5 - 2) // 3)
    ok = ok and direct == 21 and direct % 3 == 0
    _announce("criterion 8: power-of-4 congruence family via modular path",
              ok, time.perf_counter() - start)
    for report in reports:
        assert report.failures == []
    assert direct == 21 and direct % 3 == 0


def test_criterion_9_structural_properties():
    start = time.perf_counter()

    # multiplicativity of the weighted divisor sum on coprime pairs <= 300
    cached = [0] + [weighted_divisor_sum(m) for m in range(1, 301)]
    for m in range(1, 301):
        for n in range(m, 301):
            if gcd(m, n) == 1:
                assert weighted_divisor_sum(m * n) == cached[m] * cached[n], (m, n)

    # 3 divides sigma(3n+2) for n <= 1e5
    for n in range(100_001):
        assert sigma(3 * n + 2) % 3 == 0, n

    # pentagonal pattern of (q;q) to order 200
    expected = [0] * 200
    k = 1
    expected[0] = 1
    while k * (3 * k - 1) // 2 < 200:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < 200:
                expected[g] = (-1) ** k
        k += 1
    assert list(series.euler_product(1, 1, 200).coeffs) == expected

    assert series.verify_q_split(500)
    assert series.square_kernel_check(100)
    _announce("criterion 9: structural properties", True,
              time.perf_counter() - start)
