"""Integer machinery and the closed-form counters for 3-core partitions.

The three counting functions live here in their divisor/factorization
forms:

* ``core_count(n)``: number of 3-core partitions of n, as the difference
  between divisors of 3n+1 congruent to 1 and to 2 mod 3.
* ``pair_count(n)``: number of ordered pairs of 3-core partitions of total
  weight n, equal to sigma(3n+2)/3.
* ``triple_count(n)``: number of ordered triples, equal to the weighted
  divisor sum f(n+1) evaluated multiplicatively over the factorization.

Point queries factorize with a smallest-prime-factor sieve (built once,
then read-only) with a trial-division fallback above the sieve limit.
Whole tables come from ``count_table``, one segmented sieve over the
progression the closed form is taken at, which needs neither.
"""

from dataclasses import dataclass
from itertools import repeat
from math import isqrt
from operator import floordiv, mul

DEFAULT_SIEVE_LIMIT = 1_000_000

# kind -> name of its closed-form counter in this module.  Callers look the
# function up by name when they call it, so rebinding it here reaches them all.
COUNTERS = {"a3": "core_count", "A3": "pair_count", "B3": "triple_count"}

# kind -> (a, b, rule, divisor): the closed form of kind at n is the
# multiplicative function with value rule(p, e) at p**e, taken at m = a*n + b,
# divided by divisor.  The rule is named, and looked up when a table is built.
_PROGRESSIONS = {"a3": (3, 1, "_core_prime_power", 1),
                 "A3": (3, 2, "_sigma_prime_power", 3),
                 "B3": (1, 1, "weighted_divisor_sum_prime_power", 1)}

# terms of the progression held in memory at once by count_table
_WINDOW = 1 << 16


@dataclass(frozen=True)
class Factorization:
    """n as an ordered product of prime powers p1^a1 * p2^a2 * ... (p1 < p2 < ...)."""

    n: int
    factors: tuple[tuple[int, int], ...]


class SpfSieve:
    """Smallest-prime-factor table for 2..limit; immutable after construction."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        self.limit = limit
        spf = list(range(limit + 1))
        primes = _primes_upto(isqrt(limit))
        # descending order makes the smallest prime the final (winning) write
        for p in reversed(primes):
            start = p * p
            spf[start::p] = [p] * ((limit - start) // p + 1)
        self._spf = spf

    def smallest_prime_factor(self, m: int) -> int:
        if not 2 <= m <= self.limit:
            raise ValueError(f"{m} outside sieve range 2..{self.limit}")
        return self._spf[m]


def _primes_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    composite = bytearray(bound + 1)
    primes = []
    for p in range(2, bound + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p::p] = b"\x01" * len(range(p * p, bound + 1, p))
    return primes


_default_sieve: SpfSieve | None = None
_default_limit = DEFAULT_SIEVE_LIMIT


def default_sieve() -> SpfSieve:
    """The lazily built process-wide sieve."""
    global _default_sieve
    if _default_sieve is None or _default_sieve.limit < _default_limit:
        _default_sieve = SpfSieve(_default_limit)
    return _default_sieve


def set_default_sieve_limit(limit: int) -> None:
    """Resize the default sieve (rebuilt lazily on next use)."""
    global _default_sieve, _default_limit
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    _default_limit = limit
    if _default_sieve is not None and _default_sieve.limit < limit:
        _default_sieve = None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def factorize(n: int, sieve: SpfSieve | None = None) -> Factorization:
    """Canonical prime factorization; falls back to trial division past the sieve."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need n >= 1")
    if n == 1:
        return Factorization(1, ())
    if sieve is None:
        sieve = default_sieve()
    factors = []
    m = n
    if n <= sieve.limit:
        while m > 1:
            p = sieve.smallest_prime_factor(m)
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        return Factorization(n, tuple(factors))
    for p in (2, 3):
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            if m % p == 0:
                a = 0
                while m % p == 0:
                    m //= p
                    a += 1
                factors.append((p, a))
        d += 6
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def _sigma_prime_power(p: int, a: int) -> int:
    return (p ** (a + 1) - 1) // (p - 1)


def sigma(n: int, sieve: SpfSieve | None = None) -> int:
    """Sum of the positive divisors of n."""
    total = 1
    for p, a in factorize(n, sieve).factors:
        total *= _sigma_prime_power(p, a)
    return total


def divisor_count_mod3(n: int, r: int, sieve: SpfSieve | None = None) -> int:
    """Number of divisors of n congruent to r mod 3 (r must be 1 or 2)."""
    if r not in (1, 2):
        raise ValueError(f"residue must be 1 or 2, got {r}")
    counts = [0, 1, 0]  # counts[s] = divisors built so far with residue s
    for p, a in factorize(n, sieve).factors:
        step = p % 3
        new = [0, 0, 0]
        pm = 1
        for _ in range(a + 1):
            for s in range(3):
                if counts[s]:
                    new[(s * pm) % 3] += counts[s]
            pm = (pm * step) % 3
        counts = new
    return counts[r]


def core_count(n: int, sieve: SpfSieve | None = None) -> int:
    """Number of 3-core partitions of n: d_{1,3}(3n+1) - d_{2,3}(3n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    m = 3 * n + 1
    return divisor_count_mod3(m, 1, sieve) - divisor_count_mod3(m, 2, sieve)


def _core_prime_power(p: int, a: int) -> int:
    if p % 3 == 1:
        return a + 1
    return 0 if a % 2 else 1


def core_count_product(n: int, sieve: SpfSieve | None = None) -> int:
    """Product form of core_count over the factorization of 3n+1.

    Primes congruent to 1 mod 3 contribute (exponent + 1); a prime
    congruent to 2 mod 3 with odd exponent kills the count.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    result = 1
    for p, a in factorize(3 * n + 1, sieve).factors:
        result *= _core_prime_power(p, a)
    return result


def pair_count(n: int, sieve: SpfSieve | None = None) -> int:
    """Number of ordered pairs of 3-core partitions of total weight n: sigma(3n+2)/3."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q, rem = divmod(sigma(3 * n + 2, sieve), 3)
    if rem:
        raise ArithmeticError(
            f"sigma(3*{n}+2) not divisible by 3; implementation bug")
    return q


def weighted_divisor_sum(n: int) -> int:
    """f(n) = sum over d | n of chi(d) * (n/d)^2, chi = +1, -1, 0 on d = 1, 2, 0 mod 3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            q = n // d
            total += _chi3(d) * q * q
            if q != d:
                total += _chi3(q) * d * d
        d += 1
    return total


def _chi3(d: int) -> int:
    r = d % 3
    if r == 1:
        return 1
    if r == 2:
        return -1
    return 0


def weighted_divisor_sum_prime_power(p: int, k: int) -> int:
    """f at a prime power, by residue of p mod 3; f is multiplicative."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 1
    if p == 3:
        return 3 ** (2 * k)
    if p % 3 == 1:
        return (p ** (2 * (k + 1)) - 1) // (p * p - 1)
    return (p ** (2 * k + 2) + (-1) ** k) // (p * p + 1)


def triple_count(n: int, sieve: SpfSieve | None = None) -> int:
    """Number of ordered triples of 3-core partitions of total weight n: f(n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    result = 1
    for p, a in factorize(n + 1, sieve).factors:
        result *= weighted_divisor_sum_prime_power(p, a)
    return result


def count_table(kind: str, n_max: int) -> list[int]:
    """The closed-form counts of ``kind`` for 0 <= n < n_max, in one pass.

    The count at n is multiplicative in m = a*n + b, so the table is one
    segmented sieve over that progression (after Gries and Misra, CACM 1978)
    rather than n_max factorizations.  Each window of _WINDOW terms has every
    prime p <= sqrt(top) divided out of the terms it divides, found from
    a**-1 mod p**k; what is left above 1 is one prime.  Beyond the output
    the working memory is one window plus the primes up to sqrt(top).
    """
    if n_max <= 0:
        return []
    a, b, rule_name, divisor = _PROGRESSIONS[kind]
    rule = globals()[rule_name]
    top = a * (n_max - 1) + b
    # per prime p: (p**k, first n with p**k | a*n + b, rule(p, k)) for p**k <= top;
    # gcd(a, b) = 1, so a prime dividing a divides no term
    primes = []
    for p in _primes_upto(isqrt(top)):
        if a % p == 0:
            continue
        levels = []
        pk, k = p, 1
        while pk <= top:
            levels.append((pk, -b * pow(a, -1, pk) % pk, rule(p, k)))
            pk *= p
            k += 1
        primes.append((p, levels))
    table = []
    for lo in range(0, n_max, _WINDOW):
        width = min(_WINDOW, n_max - lo)
        rem = list(range(a * lo + b, a * (lo + width) + b, a))
        val = [1] * width
        # factor[i] ends as rule(p, e) for the exponent e of p in term i
        factor = [0] * width
        for p, levels in primes:
            first = (levels[0][1] - lo) % p
            if first >= width:
                continue
            for pk, start, value in levels:
                start = (start - lo) % pk
                if start >= width:
                    break
                rem[start::pk] = map(floordiv, rem[start::pk], repeat(p))
                factor[start::pk] = repeat(value, len(range(start, width, pk)))
            val[first::p] = map(mul, val[first::p], factor[first::p])
        val = [v * rule(r, 1) if r > 1 else v for v, r in zip(val, rem)]
        if divisor > 1:
            for i, v in enumerate(val):
                if v % divisor:
                    raise ArithmeticError(
                        f"{kind} closed form at n={lo + i} is {v}, not divisible "
                        f"by {divisor}; implementation bug")
            val = [v // divisor for v in val]
        table += val
    return table
