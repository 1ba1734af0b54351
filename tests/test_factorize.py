"""The sieve-free factorization: small primes, Miller-Rabin, Pollard-Brent rho."""

from collections import Counter
from itertools import count, islice
from math import isqrt, prod
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from core3 import arith
from core3.arith import PSI_13, factorize, is_prime
from core3.cli import main
from spf_sieve import SpfSieve

PSI_4 = 3215031751
PSI_9 = 3825123056546413051
PSI_12 = 318665857834031151167461
# (psi_k, k): psi_k is the least strong pseudoprime to the first k prime bases
# (Jaeschke, Math. Comp. 1993, up to psi_8; Jiang and Deng, Math. Comp. 2014,
# psi_9 = psi_10 = psi_11; Sorenson and Webster, psi_12 and psi_13); psi_7 = psi_8
STRONG_PSEUDOPRIMES = ((2047, 1), (1373653, 2), (25326001, 3), (PSI_4, 4),
                       (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
                       (PSI_9, 9), (PSI_12, 12), (PSI_13, 13))
# a prime below PSI_13 whose square and higher powers are past it
P_24 = 10**24 + 7


def primes_between(lo, hi):
    """The primes in [lo, hi), by a sieve of that window."""
    composite = bytearray(hi - lo)
    for p in arith._primes_upto(isqrt(hi - 1)):
        start = max(p * p, -(-lo // p) * p)
        composite[start - lo::p] = b"\x01" * len(range(start, hi, p))
    return [lo + i for i, c in enumerate(composite) if not c and lo + i > 1]


# primes on both sides of 2**10 (the primes divided out end there) and 2**20
# (below it a cofactor free of those primes is prime), and up to 10**12
POOL = (primes_between(2, 50) + primes_between(2**10 - 60, 2**10 + 60)
        + primes_between(2**20 - 300, 2**20 + 300)
        + primes_between(10**6, 10**6 + 200) + primes_between(10**12 - 500, 10**12))


def expected(factors):
    """factorize's result for the product of the given prime powers."""
    counts = Counter()
    for p, a in factors:
        counts[p] += a
    return tuple(sorted(counts.items()))


def test_sieve_free_equals_the_sieve_path():
    sieve = SpfSieve(2 * 10**5)
    for n in range(1, 2 * 10**5 + 1):
        assert factorize(n).factors == sieve.factors(n), n


def test_is_prime_agrees_with_the_sieve():
    sieve = SpfSieve(2 * 10**5)
    for n in range(-2, 2 * 10**5):
        assert is_prime(n) == (n >= 2 and sieve.smallest_prime_factor(n) == n), n


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(POOL), st.integers(1, 3)),
                min_size=1, max_size=4))
def test_products_of_primes_across_the_boundaries(factors):
    # keep the prime powers that fit, in turn, under 10**12
    kept = []
    for p, a in factors:
        if prod(q**b for q, b in kept) * p**a <= 10**12:
            kept.append((p, a))
    kept = kept or [(factors[0][0], 1)]
    assert factorize(prod(p**a for p, a in kept)).factors == expected(kept)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 1021)), st.integers(1, 3000)),
                min_size=1, max_size=3),
       st.sampled_from(POOL))
# exponents at and next to powers of 2, where the doubling powers turn back
@example([(2, 4096), (3, 2000), (5, 700)], 1031)
@example([(3, 1023), (5, 1024), (7, 1025)], 2)
@example([(1021, 2**11 - 1), (2, 1)], 10**12 - 11)
def test_high_powers_of_small_primes(powers, cofactor):
    # 2 is read off the lowest set bit, any other small prime divided out by
    # doubling powers of it
    factors = [*powers, (cofactor, 1)]
    assert factorize(prod(p**a for p, a in factors)).factors == expected(factors)


def test_every_exponent_of_a_small_prime_is_found():
    for p in (3, 5, 1021):
        for a in range(1, 300):
            assert factorize(2 * p**a * 1031).factors == ((2, 1), (p, a), (1031, 1)), (p, a)


@pytest.mark.parametrize("p", [1031, 1033, 2**20 - 3, 2**20 + 7, 10007, 999983])
def test_squares_and_cubes_past_the_small_primes(p):
    assert factorize(p**2).factors == ((p, 2),)
    assert factorize(p**3).factors == ((p, 3),)
    assert factorize(2 * p**2 * 1021).factors == ((2, 1), (1021, 1), (p, 2))


def test_base_bounds_are_strong_pseudoprimes():
    # each psi_k passes the first k prime bases and is composite; factorize,
    # which tests every cofactor on all 13 bases, still splits each one
    for psi, k in STRONG_PSEUDOPRIMES:
        assert arith._is_strong_probable_prime(psi, arith._BASES[:k]), psi
        if psi != PSI_13:
            assert len(factorize(psi).factors) > 1, psi


@pytest.mark.parametrize("n, factors", [
    (PSI_4, ((151, 1), (751, 1), (28351, 1))),
    (PSI_9, ((149491, 1), (747451, 1), (34233211, 1))),
    (PSI_12, ((399165290221, 1), (798330580441, 1))),
])
def test_strong_pseudoprimes_are_split(n, factors):
    assert factorize(n).factors == factors


def test_is_prime_reports_every_bound_below_psi_13_composite():
    for psi, _ in STRONG_PSEUDOPRIMES:
        if psi != PSI_13:
            assert not is_prime(psi), psi
    # and PSI_12's two prime factors are prime
    assert is_prime(399165290221) and is_prime(798330580441)


def test_is_prime_refuses_psi_13():
    with pytest.raises(ValueError, match=str(PSI_13)) as info:
        is_prime(PSI_13)
    assert "factorize" not in str(info.value)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_perfect_powers_of_a_large_prime_are_split_by_their_root(k):
    # rho would need about sqrt(P_24) steps to split P_24**2; it splits a
    # cofactor q * P_24**k for q near 10**6 in about sqrt(q) steps
    assert factorize(P_24**k).factors == ((P_24, k),)
    for q in (1031, 999983):
        assert factorize(2 * q * P_24**k).factors == ((2, 1), (q, 1), (P_24, k))


def test_verify_with_a_prime_past_10_to_the_24_answers():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for family, k_max in (("B3-relation-coprime", 1), ("relation-general", 1),
                          ("B3-relation-general", 3)):
        result = subprocess.run(
            [sys.executable, "-m", "core3", "verify", family, "--p", str(P_24),
             "--kmax", str(k_max), "--nmax", "1"],
            capture_output=True, text=True, env=env, timeout=10)
        assert result.returncode == 0, (family, result.stderr)
        assert result.stdout.split("\n")[0].endswith("PASS"), family


def test_psi_12_is_caught_by_base_41_alone():
    assert arith._is_strong_probable_prime(PSI_12, arith._BASES[:12])
    assert not arith._is_strong_probable_prime(PSI_12, (41,))


def test_psi_13_is_refused(capsys):
    with pytest.raises(ValueError, match=str(PSI_13)):
        factorize(PSI_13)
    # PSI_13 = 3n+1
    assert main(["compute", "a3", str((PSI_13 - 1) // 3)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot factorize") and str(PSI_13) in err


def test_second_largest_factor_near_10_to_the_10():
    p, q = 10**10 + 19, 10**10 + 33
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(6 * p * q * (2**61 - 1)).factors == (
        (2, 1), (3, 1), (p, 1), (q, 1), (2**61 - 1, 1))


def test_point_query_on_a_product_of_two_primes_past_10_to_the_6(capsys):
    p, q = 2_000_003, 2_000_029
    assert main(["compute", "A3", str((p * q - 2) // 3)]) == 0
    assert f'"value": "{(1 + p + q + p * q) // 3}"' in capsys.readouterr().out


def test_each_cofactor_is_tested_once(monkeypatch):
    # the composite cofactor p*q goes through Miller-Rabin once, then rho
    p, q = 2_000_003, 2_000_029
    tested = []
    real = arith._is_strong_probable_prime

    def counting(m, bases):
        tested.append(m)
        return real(m, bases)

    monkeypatch.setattr(arith, "_is_strong_probable_prime", counting)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert tested.count(p * q) == 1


def test_exhausted_rho_budget_is_a_usage_error(capsys, monkeypatch):
    p, q = 100_000_007, 100_000_039
    m = p * q  # = 3n+2
    monkeypatch.setattr(arith, "RHO_BUDGET", 1000)
    with pytest.raises(ValueError, match=f"cannot factorize {m}"):
        factorize(m)
    assert main(["compute", "A3", str((m - 2) // 3)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot factorize {m}")
    assert "budget of 1000 iterations" in captured.err


def test_rho_budget_shrinks_with_the_square_of_the_cofactor_bits(capsys, monkeypatch):
    # up to 256 bits the whole budget; past them, cut by (256/bits)^2
    assert [arith._rho_budget(1 << bits - 1) for bits in (1, 64, 256, 257, 512, 1024)] == [
        arith.RHO_BUDGET] * 3 + [arith.RHO_BUDGET * 65536 // 257**2,
                                 arith.RHO_BUDGET // 4, arith.RHO_BUDGET // 16]
    # seven primes above 2**72, each past rho's reach at this budget: their
    # 505-bit product, as B3's n+1, is refused at 4000 * (256/505)^2 iterations
    monkeypatch.setattr(arith, "RHO_BUDGET", 4000)
    m = prod(list(islice(filter(is_prime, count(2**72 + 1, 2)), 7)))
    assert m.bit_length() == 505
    assert main(["compute", "B3", str(m - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot factorize {m}")
    assert "budget of 1027 iterations" in captured.err


def test_hostile_point_query_is_refused_with_the_default_budget(capsys):
    # two primes near 10**15: past the budget, refused instead of hanging
    m = 1_000_000_000_000_037 * 1_000_000_000_000_091  # = 3n+1
    assert main(["compute", "a3", str((m - 1) // 3)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot factorize {m}")


def test_core_count_factorizes_once(monkeypatch):
    calls = []
    real = arith.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factorize", counting)
    assert arith.core_count(8) == 1  # 3*8+1 = 25: divisors 1, 5, 25
    assert calls == [25]


def test_sympy_factorint_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20151)
    # up to 20 digits, so the second-largest prime factor is below 10**10
    numbers = [rng.randrange(2, 10**digits) for digits in range(2, 21) for _ in range(15)]
    numbers += [sympy.nextprime(rng.randrange(10**a, 10**(a + 1)))
                * sympy.nextprime(rng.randrange(10**b, 10**(b + 1)))
                for a, b in ((3, 6), (6, 6), (5, 9), (8, 9), (9, 10), (4, 18))]
    for n in numbers:
        assert dict(factorize(n).factors) == sympy.factorint(n), n
