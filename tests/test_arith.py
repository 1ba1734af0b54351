import re
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import core3
from core3 import arith, lambert, routes
from core3.arith import (
    COUNTERS,
    core_count,
    factorize,
    is_prime,
    pair_count,
    sigma,
    triple_count,
    weighted_divisor_sum_prime_power,
)
from core3.cli import main
from oracles import _chi3, divisor_count_mod3, weighted_divisor_sum
from spf_sieve import SpfSieve


def divisors_brute(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_one():
    assert factorize(1).factors == ()


def test_factorize_small():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(2915).factors == ((5, 1), (11, 1), (53, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_fallback_past_sieve():
    assert factorize(101 * 103).factors == ((101, 1), (103, 1))
    assert factorize(2**40 * 7).factors == ((2, 40), (7, 1))


@given(st.integers(1, 5000))
def test_factorize_reconstructs(n):
    fact = factorize(n)
    product = 1
    for p, a in fact.factors:
        assert is_prime(p)
        assert a >= 1
        product *= p**a
    assert product == n
    primes = [p for p, _ in fact.factors]
    assert primes == sorted(primes)


def test_sigma_spot_values():
    assert sigma(1) == 1
    assert sigma(20) == 42
    for k in range(11):
        assert sigma(2 ** (2 * k + 1)) == 2 ** (2 * k + 2) - 1


@given(st.integers(1, 2000))
def test_sigma_matches_divisor_enumeration(n):
    assert sigma(n) == sum(divisors_brute(n))


@given(st.integers(1, 300), st.integers(1, 300))
def test_sigma_multiplicative(m, n):
    if gcd(m, n) == 1:
        assert sigma(m * n) == sigma(m) * sigma(n)


def test_divisor_count_mod3():
    assert divisor_count_mod3(1, 1) == 1
    assert divisor_count_mod3(1, 2) == 0
    assert divisor_count_mod3(10, 1) == 2
    assert divisor_count_mod3(10, 2) == 2
    assert divisor_count_mod3(28, 1) == 4
    assert divisor_count_mod3(28, 2) == 2
    with pytest.raises(ValueError):
        divisor_count_mod3(10, 0)


@given(st.integers(1, 2000))
def test_divisor_count_mod3_matches_enumeration(n):
    divs = divisors_brute(n)
    assert divisor_count_mod3(n, 1) == sum(1 for d in divs if d % 3 == 1)
    assert divisor_count_mod3(n, 2) == sum(1 for d in divs if d % 3 == 2)


def test_core_count_spot_values():
    assert [core_count(n) for n in range(5)] == [1, 1, 2, 0, 2]
    assert core_count(9) == 2


def core_product_form(n, sieve):
    # the product over 3n+1 from the oracle sieve's factorization: a prime
    # 1 mod 3 gives (a + 1), a prime 2 mod 3 gives 1 or 0 as a is even or odd
    value = 1
    for p, a in sieve.factors(3 * n + 1):
        value *= a + 1 if p % 3 == 1 else (a + 1) % 2
    return value


def test_core_count_product_spot_values():
    sieve = SpfSieve(13)
    assert [core_product_form(n, sieve) for n in (0, 3, 4)] == [1, 0, 2]
    assert [core_count(n) for n in (0, 3, 4)] == [1, 0, 2]


def test_core_count_equals_product_form():
    sieve = SpfSieve(3 * 10_000 + 1)
    for n in range(10_001):
        assert core_count(n) == core_product_form(n, sieve), n


def test_core_count_equals_residue_form():
    # core_count's product rule against the paper's d_{1,3} - d_{2,3}
    def residue_form(n):
        return divisor_count_mod3(3 * n + 1, 1) - divisor_count_mod3(3 * n + 1, 2)

    assert [residue_form(n) for n in (0, 3, 4)] == [1, 0, 2]
    for n in range(10_001):
        assert core_count(n) == residue_form(n), n


def test_pair_count_spot_values():
    assert pair_count(0) == 1
    assert pair_count(6) == 14
    assert pair_count(10) == 21


def test_pair_count_matches_divisor_enumeration():
    for n in range(2001):
        assert pair_count(n) == sum(divisors_brute(3 * n + 2)) // 3, n


def test_pair_count_division_exact():
    # 3 | sigma(3n+2); pair_count raises rather than round if that breaks
    for n in range(20_000):
        pair_count(n)


def test_weighted_divisor_sum_spot_values():
    assert weighted_divisor_sum(1) == 1
    assert weighted_divisor_sum(4) == 13
    assert weighted_divisor_sum(5) == 24


def test_weighted_divisor_sum_prime_power_branches():
    assert weighted_divisor_sum_prime_power(3, 2) == 81
    assert weighted_divisor_sum_prime_power(2, 2) == 13
    assert weighted_divisor_sum_prime_power(7, 1) == 50
    assert weighted_divisor_sum_prime_power(5, 0) == 1


def test_prime_power_rules_match_their_divisor_sums():
    # each closed form is a product of rule(p, e) over the factorization;
    # here each rule meets its defining sum over the divisors p^0..p^e
    sieve = SpfSieve(999)
    primes = [p for p in range(2, 1000) if sieve.smallest_prime_factor(p) == p]
    for p in primes:
        for e in range(7):
            divisors = [p ** i for i in range(e + 1)]
            # 3 never divides 3n+1, so no route asks the a3 rule at p = 3: there
            # it is 0 at odd e, where d_{1,3} - d_{2,3} of 3^e is 1
            if p != 3:
                assert arith._core_prime_power(p, e) == sum(map(_chi3, divisors)), (p, e)
            assert arith._sigma_prime_power(p, e) == sum(divisors), (p, e)
            assert weighted_divisor_sum_prime_power(p, e) == sum(
                _chi3(d) * (p ** e // d) ** 2 for d in divisors), (p, e)


def _primes_from(start: int, count: int):
    """The first ``count`` primes at or past ``start`` in each class mod 3 but 0."""
    found = {1: [], 2: []}
    n = start
    while any(len(primes) < count for primes in found.values()):
        if n % 3 and len(found[n % 3]) < count and is_prime(n):
            found[n % 3].append(n)
        n += 1
    return found[1] + found[2]


@pytest.mark.parametrize("start", [10**3, 10**6, 10**9, 10**12, 10**15, 10**18, 2**61 - 10**4])
def test_prime_power_rules_at_exponent_one_match_their_divisor_sums(start):
    # exponent 1, that of almost every large prime in a sieve window, has
    # its own branch in both rules: here it meets the sums over {1, p}
    for p in _primes_from(start, 3):
        assert arith._sigma_prime_power(p, 1) == 1 + p, p
        assert weighted_divisor_sum_prime_power(p, 1) == p * p + _chi3(p), p


def test_triple_count_spot_values():
    assert triple_count(0) == 1
    assert triple_count(2) == 9
    assert triple_count(4) == 24


def test_triple_count_matches_defining_sum():
    for n in range(10_001):
        assert triple_count(n) == weighted_divisor_sum(n + 1), n


@given(st.integers(1, 300), st.integers(1, 300))
def test_weighted_divisor_sum_multiplicative(m, n):
    if gcd(m, n) == 1:
        assert (weighted_divisor_sum(m * n)
                == weighted_divisor_sum(m) * weighted_divisor_sum(n))


def test_positivity():
    for n in range(500):
        assert core_count(n) >= 0
        assert pair_count(n) >= 1
        assert triple_count(n) >= 1


def test_sieve_smallest_prime_factor():
    sieve = SpfSieve(100)
    assert sieve.smallest_prime_factor(97) == 97
    assert sieve.smallest_prime_factor(91) == 7
    assert sieve.smallest_prime_factor(64) == 2
    with pytest.raises(ValueError):
        sieve.smallest_prime_factor(101)


@pytest.mark.parametrize("kind", list(COUNTERS))
def test_count_table_matches_the_point_counters(kind, monkeypatch):
    # the formula table of the route registry against the point counter
    count = getattr(arith, COUNTERS[kind])
    for n_max in (0, 1, 2, 5000):
        assert routes.table_values(kind, "formula", n_max) == list(map(count, range(n_max))), n_max
    # around one, two and three windows of 8 * 2 rows, and primes larger
    # than a window
    monkeypatch.setattr(arith, "_SIDE_WINDOW", 2)
    for n_max in (15, 16, 17, 31, 32, 33, 47, 48, 49, 1000):
        assert routes.table_values(kind, "formula", n_max) == list(map(count, range(n_max))), n_max


# the terms of one side a call reads at once, 8 * _SIDE_WINDOW: shrunk to 16
# and 1024, and at the default, a formula table's window
_ONE_SIDE_WINDOWS = [16, 1024, 8 * arith._SIDE_WINDOW]


@pytest.mark.parametrize("window", _ONE_SIDE_WINDOWS)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(COUNTERS)), st.integers(1, 10**4), st.integers(0, 10**4),
       st.integers(0, 300))
# progressions whose slope shares primes with their offset: A3 at 8n + 6 and
# 16n + 4 sieves 24n + 20 = 4(6n + 5) and 48n + 14 = 2(24n + 7), B3 at
# 81n + 80 sieves 81(n + 1)
@example("A3", 8, 6, 300)
@example("A3", 16, 4, 300)
@example("a3", 81, 80, 300)
@example("B3", 81, 80, 300)
@example("B3", 8, 6, 300)
def test_progression_counts_sieve_the_point_counts(window, kind, step, offset, count):
    count_at = getattr(arith, COUNTERS[kind])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "_SIEVE_CROSSOVER", float("inf"))
        patch.setattr(arith, "_SIDE_WINDOW", window // 8)
        windows = [w for w, in arith.progression_counts(kind, [(step, offset)], count)]
    assert [len(w) for w in windows] == [min(window, count - lo) for lo in range(0, count, window)]
    assert sum(windows, []) == [count_at(step * i + offset) for i in range(count)]


# rows per window of a formula table, one side of 8 * 2**10 terms
_TABLE_WINDOW = 1 << 13


# each kind's closed form is read at a*n + b, stated here apart from arith
_AT = {"a3": (3, 1), "A3": (3, 2), "B3": (1, 1)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(COUNTERS)), st.integers(1, 10**4), st.integers(0, 10**4),
       st.integers(1, 200), st.integers(0, 300))
# 3(2i) + 2 = 2(3i + 1): a modulus that divides the cofactor g = 2 hits every i
@example("A3", 2, 0, 2, 300)
# 3(8i + 6) + 2 = 4(6i + 5): 20 shares only 4 with g = 4, and 5 | 6i + 5 at 5 | i
@example("A3", 8, 6, 20, 300)
def test_divisible_terms_are_the_terms_the_modulus_divides(kind, step, offset, modulus,
                                                           count):
    a, b = _AT[kind]
    terms = arith.divisible_terms(kind, step, offset, modulus, count)
    assert isinstance(terms, range)
    assert list(terms) == [i for i in range(count)
                           if (a * (step * i + offset) + b) % modulus == 0]


# 10007 is prime, and above sqrt(top) for every form drawn below once it is
# the intercept: it divides the form's first term and no other
_BIG = 10007


# each window with the sieve, and at crossover 0, where no prime is sieved but
# the cofactors' and each term's remainder is factorized whole
@pytest.mark.parametrize(
    "one_side_window, crossover",
    [pytest.param(w, float("inf"), id=str(w)) for w in _ONE_SIDE_WINDOWS]
    + [pytest.param(w, 0, id=f"{w}-no-sieve") for w in _ONE_SIDE_WINDOWS])
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(COUNTERS)), st.integers(1, 60), st.integers(1, 10**4),
       st.booleans(),
       st.lists(st.lists(st.sampled_from([2, 5, 7, 11, _BIG]), max_size=3),
                min_size=1, max_size=4),
       st.integers(1, 300))
# 2 divides every other term of 3*5i + 7, 4 and 8 some of them, and a side
# with cofactor 2**3 reads exponents 3 to 6 of 2; 5 divides the slope, so
# no term
@example("A3", 5, 7, False, [[], [2, 2, 2], [5, 2]], 300)
# the first term of 3i + 10007 is the prime 10007, past sqrt(top)
@example("A3", 1, _BIG, True, [[], [_BIG], [_BIG, _BIG]], 300)
@example("B3", 1, _BIG, True, [[_BIG], []], 1)
def test_sides_of_one_primitive_form_share_its_sieve(one_side_window, crossover, kind,
                                                     slope, intercept, big, cofactors,
                                                     count):
    # the sides at g*(alpha*i + beta), for one primitive form alpha*i + beta
    # of kind's progression a*n + b and cofactors g made of primes that
    # divide some of its terms, some of them past sqrt(top)
    a, b = arith._PROGRESSIONS[kind][:2]
    alpha, beta = a * slope, _BIG if big else intercept
    assume(gcd(alpha, beta) == 1)
    gs = [prod(primes) for primes in cofactors]
    if a == 3:
        # a*n + b = g*beta (mod 3) for every side: 2, which swaps the
        # residues 1 and 2, moves each g to the one that beta allows
        gs = [g if g * beta % 3 == b else 2 * g for g in gs]
    sides = [(g * alpha // a, (g * beta - b) // a) for g in gs]
    assert all(a * step == g * alpha and a * offset + b == g * beta
               for (step, offset), g in zip(sides, gs))
    forms = []
    # _SIDE_WINDOW terms of each side times 8 for one side, 4 for two and 2
    # for 3 or 4
    side_window = one_side_window // 8
    window = side_window * (8 // len(sides))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "_SIEVE_CROSSOVER", crossover)
        if not crossover:
            patch.setattr(arith, "_primes_upto", lambda bound: pytest.fail("sieved"))
        patch.setattr(arith, "_SIDE_WINDOW", side_window)
        sieve = arith._sieve_windows
        patch.setattr(arith, "_sieve_windows",
                      lambda kind, alpha, beta, *args: forms.append((alpha, beta))
                      or sieve(kind, alpha, beta, *args))
        windows = list(arith.progression_counts(kind, sides, count))
    assert forms == [(alpha, beta)]
    assert [[len(side) for side in w] for w in windows] == [
        [min(window, count - lo)] * len(sides) for lo in range(0, count, window)]
    count_at = getattr(arith, COUNTERS[kind])
    for j, (step, offset) in enumerate(sides):
        assert sum((w[j] for w in windows), []) == [count_at(step * i + offset)
                                                    for i in range(count)], j


def test_progression_counts_take_the_point_path_past_the_crossover(monkeypatch):
    # 13**8 * 200 is about 1.6e11: the primes to its square root would cost
    # far more than 201 point counts
    monkeypatch.setattr(arith, "_primes_upto", lambda bound: pytest.fail("sieved"))
    values = sum((w for w, in arith.progression_counts("A3", [(13**8, 3)], 201)), [])
    assert values == [pair_count(13**8 * i + 3) for i in range(201)]


def test_a_formula_table_reads_windows_of_2_13_rows():
    assert [len(w) for w in arith.count_windows("a3", 20000)] == [_TABLE_WINDOW] * 2 + [3616]


def test_count_table_across_windows_matches_lambert():
    # the formula route crosses four window boundaries, the Lambert route's
    # windows of 2**14 two
    n_max = 2 * lambert._WINDOW + 1
    for kind in COUNTERS:
        lambert_table = lambert.tuple_series(routes.TUPLE_SIZE[kind], n_max).coeffs
        assert routes.table_values(kind, "formula", n_max) == list(lambert_table), kind


@pytest.mark.parametrize("n_max", [_TABLE_WINDOW - 1, _TABLE_WINDOW, _TABLE_WINDOW + 1,
                                   2 * _TABLE_WINDOW + 1])
def test_table_A3_at_window_boundaries_matches_lambert(capsys, n_max):
    assert main(["table", "A3", "--nmax", str(n_max)]) == 0
    formula = capsys.readouterr().out
    assert main(["table", "A3", "--nmax", str(n_max), "--method", "lambert",
                 "--order", str(n_max)]) == 0
    lambert_csv = capsys.readouterr().out
    assert len(formula.splitlines()) == n_max + 1
    assert lambert_csv == formula.replace(",formula\n", ",lambert\n")


def test_no_command_builds_a_factorization_sieve(capsys):
    assert not hasattr(core3, "SpfSieve") and "SpfSieve" not in core3.__all__
    assert not hasattr(arith, "SpfSieve")
    for argv in (["compute", "A3", "333334"], ["compute", "B3", "10"],
                 ["table", "a3", "--nmax", "2000"], ["verify", "lin"],
                 ["selfcheck", "--nmax", "5"]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_broken_prime_power_rule_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(arith, "_sigma_prime_power",
                        lambda p, a: (p ** (a + 1) - 1) // (p - 1) + 1)
    with pytest.raises(ArithmeticError, match="n=0"):
        routes.table_values("A3", "formula", 10)
    assert main(["table", "A3", "--nmax", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_a_table_failing_past_its_first_window_keeps_the_windows_before(capsys,
                                                                       monkeypatch):
    window = _TABLE_WINDOW
    assert main(["table", "A3", "--nmax", str(window)]) == 0
    before = capsys.readouterr().out
    sigma = arith._sigma_prime_power
    # every prime factor of 3n + 2 for n < window is below 3 * window, so
    # the first window is right, and the second holds primes above it
    monkeypatch.setattr(arith, "_sigma_prime_power",
                        lambda p, a: sigma(p, a) + (p > 3 * window))
    assert main(["table", "A3", "--nmax", str(3 * window)]) == 1
    captured = capsys.readouterr()
    assert captured.out == before
    n = int(re.match(r"internal error: A3 closed form at n=(\d+) ", captured.err)[1])
    assert window <= n < 2 * window


@pytest.mark.parametrize("crossover", [0, float("inf")], ids=["point", "sieve"])
def test_a_lone_term_the_divisor_misses_is_named(capsys, monkeypatch, crossover):
    window = _TABLE_WINDOW
    monkeypatch.setattr(arith, "_SIEVE_CROSSOVER", crossover)
    assert main(["table", "A3", "--nmax", str(window)]) == 0
    before = capsys.readouterr().out
    # 3n + 2 = prime near the middle of the second window; the prime divides
    # no other term below 2 * window, and sigma at it, raised by 1, is
    # the one term of the table that 3 does not divide
    n = next(n for n in range(window + window // 2, 2 * window) if is_prime(3 * n + 2))
    prime = 3 * n + 2
    sigma = arith._sigma_prime_power
    monkeypatch.setattr(arith, "_sigma_prime_power", lambda p, a: sigma(p, a) + (p == prime))
    assert main(["table", "A3", "--nmax", str(2 * window)]) == 1
    captured = capsys.readouterr()
    assert captured.out == before
    assert captured.err == (f"internal error: A3 closed form at n={n} is {prime + 2}, "
                            f"not divisible by 3; implementation bug\n")


def test_broken_rule_names_the_argument_of_the_progression(monkeypatch):
    monkeypatch.setattr(arith, "_sigma_prime_power",
                        lambda p, a: (p ** (a + 1) - 1) // (p - 1) + 1)
    # the first side's first term, A3 at step*0 + offset, on either path; two
    # sides read one sieve over 6i + 5, and each is named by its own n
    for sides, n in (([(8, 6)], 6), ([(8, 6), (2, 1)], 6), ([(2, 1), (8, 6)], 1)):
        for crossover in (0, float("inf")):
            monkeypatch.setattr(arith, "_SIEVE_CROSSOVER", crossover)
            with pytest.raises(ArithmeticError, match=f"^A3 closed form at n={n} is"):
                list(arith.progression_counts("A3", sides, 10))
