"""Integer machinery and the closed-form counters for 3-core partitions.

The three counting functions live here in their divisor/factorization
forms:

* ``core_count(n)``: number of 3-core partitions of n, as the difference
  between divisors of 3n+1 congruent to 1 and to 2 mod 3.
* ``pair_count(n)``: number of ordered pairs of 3-core partitions of total
  weight n, equal to sigma(3n+2)/3.
* ``triple_count(n)``: number of ordered triples, equal to the weighted
  divisor sum f(n+1) evaluated multiplicatively over the factorization.

A point query factorizes its one argument without a sieve: the primes
below 2**10 are divided out, a larger cofactor is proved prime by the
strong-probable-prime test on the prime bases 2..41 (deterministic below
PSI_13 ~ 3.3e24), taken apart by its exact root if it is a perfect
power, or split by Pollard-Brent rho within RHO_BUDGET iterations; past
either limit factorize refuses with ValueError.
``is_prime`` makes the same decision for one number.  Each closed form
is stated once, in ``_PROGRESSIONS``: a point count evaluates it over
``factorize``, and ``progression_counts`` gives its values at every
n = A*i + B for several (A, B) at once.  The closed form is taken at
a*n + b = g*(alpha*i + beta) with alpha*i + beta primitive, so every
(A, B) of one primitive form is read from one segmented sieve over it, or
point by point where the sieve's primes would cost more than the terms of
those sides (``_SIEVE_CROSSOVER``).  A whole table, ``count_table``, is the
engine at the one side A = 1, B = 0; an identity sweep reads every side of
one (k, r) of a relation in one call, and those sides share one primitive
form.
"""

from itertools import chain, compress, repeat
from math import gcd, isqrt, prod
from operator import floordiv, itemgetter, mod, mul
from typing import NamedTuple

# kind -> name of its closed-form counter in this module.  Callers look the
# function up by name when they call it, so rebinding it here reaches them all.
COUNTERS = {"a3": "core_count", "A3": "pair_count", "B3": "triple_count"}

# kind -> (a, b, rule, divisor): the closed form of kind at n is the
# multiplicative function with value rule(p, e) at p**e, taken at m = a*n + b,
# divided by divisor.  The rule is named, and looked up at each call, so
# rebinding it here reaches point counts and tables alike.
_PROGRESSIONS = {"a3": (3, 1, "_core_prime_power", 1),
                 "A3": (3, 2, "_sigma_prime_power", 3),
                 "B3": (1, 1, "weighted_divisor_sum_prime_power", 1)}

# terms of the progression held in memory at once by count_table
_WINDOW = 1 << 16
# progression_counts sieves a primitive form alpha*i + beta of count terms up
# to top, read by s sides, when isqrt(top) + _SIEVE_SETUP <=
# _SIEVE_CROSSOVER * count * s, and takes a point count per term of each side
# otherwise: the sieve's cost grows with the primes up to sqrt(top) plus a
# fixed setup, the point path's with the terms of every side.  Measured on a
# 2-core Xeon by timing both paths on each of the 1126 forms that the verify
# defaults, both selfcheck batteries, the selfcheck benchmark's enlarged
# sweeps and small sweeps (nmax 3, 10 and 30) read: with 4 and 32 the small
# sweeps take 0.5% more than the faster path for every form, and each other
# set no measurable amount more.  Without the setup term the small sweeps
# take about 5% more, with 16 or with 6 or 8 for 4 also about 5%, with 2 for
# 4 about 2%; 64 for 32 is as good, at 0.3-0.4%.
_SIEVE_CROSSOVER = 4
_SIEVE_SETUP = 32


class Factorization(NamedTuple):
    """n as an ordered product of prime powers p1^a1 * p2^a2 * ... (p1 < p2 < ...)."""

    n: int
    factors: tuple[tuple[int, int], ...]


def _primes_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    prime = bytearray(b"\x01") * (bound + 1)
    prime[:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return list(compress(range(bound + 1), prime))


# Sieve-free factorization.  Primes below _SMALL are divided out first; a
# cofactor below _SMALL**2 left after that is prime.
_SMALL = 1 << 10
_SMALL_PRIMES = tuple(_primes_upto(_SMALL - 1))
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)

# PSI_13, the least strong pseudoprime to the first 13 prime bases 2..41
# (Sorenson and Webster, arXiv:1509.00864): below it the strong-probable-prime
# test on those bases proves primality.
PSI_13 = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): below psi_k, the least strong pseudoprime to the first k prime
# bases, those k bases suffice (Jaeschke, Math. Comp. 1993, up to psi_8;
# Jiang and Deng, Math. Comp. 2014, psi_9 = psi_10 = psi_11; Sorenson and
# Webster, psi_12 and psi_13); psi_7 = psi_8, so k = 8, 10, 11 never help
_BASE_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
                (3825123056546413051, 9), (318665857834031151167461, 12),
                (PSI_13, 13))

# Pollard-Brent rho iterations one factorization may spend in all, enough for
# a second-largest prime factor of 10**10 many times over (about 10**5 expected)
RHO_BUDGET = 1 << 22
# rho iterations whose differences are multiplied together per gcd
_RHO_BATCH = 128


def _is_strong_probable_prime(m: int, bases) -> bool:
    """Miller-Rabin: m odd > max(bases) is a strong probable prime to every base."""
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _is_proved_prime(m: int) -> bool:
    """Whether m, free of prime factors below _SMALL, is prime.  An m at or
    past PSI_13 that no base shows composite could be a strong pseudoprime,
    so it is refused with ValueError."""
    if m < _SMALL * _SMALL:
        return True
    for bound, k in _BASE_BOUNDS:
        if m < bound:
            return _is_strong_probable_prime(m, _BASES[:k])
    if _is_strong_probable_prime(m, _BASES):
        raise ValueError(
            f"{m} passes the strong-probable-prime test to every base 2..41, "
            f"which proves primality only below {PSI_13}")
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime, decided as factorize decides it: a gcd with the
    primes below 2**10, then the strong-probable-prime test on bases 2..41.
    Raises ValueError for an n at or past PSI_13 that passes every base."""
    if n < _SMALL:
        return n in _SMALL_PRIMES
    return gcd(n, _SMALL_PRIMORIAL) == 1 and _is_proved_prime(n)


def _exact_root(m: int) -> tuple[int, int]:
    """(r, k) with r**k == m for the least prime k that has one, else (m, 1).
    m has no prime factor below _SMALL = 2**10, so r > 2**10 bounds k by
    m.bit_length() / 10."""
    for k in _SMALL_PRIMES:
        if 10 * k > m.bit_length():
            break
        # r = floor(m ** (1/k)) in integers, by Newton's method from above
        r = 1 << -(-m.bit_length() // k)
        while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = s
        if r**k == m:
            return r, k
    return m, 1


def _rho_split(m: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the composite m by Pollard-Brent rho (Brent, BIT
    20, 1980) on y -> y*y + c from y = 2, for c = 1, 2, ... in turn, and the
    iterations left of ``budget``; raises ValueError when it runs out."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            # a round takes r steps to move x on and at most r more to find g
            if budget < 2 * r:
                raise ValueError(
                    f"Pollard-Brent rho reached its budget of {RHO_BUDGET} "
                    f"iterations without splitting {m}")
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:
            # the batch overshot: step again from its start, one gcd each
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g, budget


def _prime_powers(n: int) -> list[tuple[int, int]]:
    factors = []
    m = n
    # g: the product of the primes below _SMALL that divide m, not yet divided out
    g = gcd(m, _SMALL_PRIMORIAL)
    if g > 1:
        for p in _SMALL_PRIMES:
            if g % p == 0:
                g //= p
                a = 0
                while m % p == 0:
                    m //= p
                    a += 1
                factors.append((p, a))
                if g == 1:
                    break
            elif p * p > g:
                # every prime factor of g is above p, so g is one prime
                a = 0
                while m % g == 0:
                    m //= g
                    a += 1
                factors.append((g, a))
                break
    if m == 1:
        return factors
    if _is_proved_prime(m):
        factors.append((m, 1))
        return factors
    # m is composite with no prime factor below _SMALL: take a perfect power
    # apart by its exact root (rho takes about sqrt(p) steps on p**2) and split
    # anything else by rho
    large = {}
    pending = [m]
    budget = RHO_BUDGET
    while pending:
        m = pending.pop()
        if _is_proved_prime(m):
            large[m] = large.get(m, 0) + 1
            continue
        root, k = _exact_root(m)
        if k > 1:
            pending += [root] * k
        else:
            d, budget = _rho_split(m, budget)
            pending += (d, m // d)
    return factors + sorted(large.items())


def factorize(n: int) -> Factorization:
    """Canonical prime factorization, without a sieve.

    Divide out the primes below 2**10, prove a larger cofactor prime by the
    strong-probable-prime test on bases 2..41 (deterministic below PSI_13),
    take a composite cofactor that is a perfect power apart by its exact
    integer root, and split the rest by Pollard-Brent rho.  Raises
    ValueError, naming n, for a cofactor at or past PSI_13 that passes every
    base, or when rho spends RHO_BUDGET iterations.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need n >= 1")
    try:
        factors = _prime_powers(n)
    except ValueError as exc:
        raise ValueError(f"cannot factorize {n}: {exc}") from None
    return Factorization(n, tuple(factors))


def _sigma_prime_power(p: int, a: int) -> int:
    return (p ** (a + 1) - 1) // (p - 1)


def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    total = 1
    for p, a in factorize(n).factors:
        total *= _sigma_prime_power(p, a)
    return total


def _closed_form(kind: str, n: int) -> int:
    """The closed form of ``kind`` at n, from _PROGRESSIONS: the product of
    rule(p, e) over the factorization of a*n + b, divided exactly by divisor."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b, rule_name, divisor = _PROGRESSIONS[kind]
    rule = globals()[rule_name]
    value = 1
    for p, e in factorize(a * n + b).factors:
        value *= rule(p, e)
    q, rem = divmod(value, divisor)
    if rem:
        raise ArithmeticError(
            f"{kind} closed form at n={n} is {value}, not divisible by "
            f"{divisor}; implementation bug")
    return q


def _core_prime_power(p: int, a: int) -> int:
    if p % 3 == 1:
        return a + 1
    return 0 if a % 2 else 1


def core_count(n: int) -> int:
    """Number of 3-core partitions of n: d_{1,3}(3n+1) - d_{2,3}(3n+1).

    Taken as a product over 3n+1: a prime congruent to 1 mod 3 contributes
    (exponent + 1); a prime congruent to 2 mod 3 with odd exponent kills the
    count.
    """
    return _closed_form("a3", n)


def pair_count(n: int) -> int:
    """Number of ordered pairs of 3-core partitions of total weight n: sigma(3n+2)/3."""
    return _closed_form("A3", n)


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


def triple_count(n: int) -> int:
    """Number of ordered triples of 3-core partitions of total weight n: f(n+1)."""
    return _closed_form("B3", n)


def _divisible_terms(alpha: int, beta: int, modulus: int) -> tuple[int, int] | None:
    """(first, stride) with modulus | alpha*i + beta, for i >= 0, exactly at
    i = first, first + stride, ...; None when no i qualifies.  Those i form one
    progression of stride modulus / gcd(alpha, modulus), and exist only where
    that gcd divides beta."""
    g = gcd(alpha, modulus)
    if beta % g:
        return None
    stride = modulus // g
    return -(beta // g) * pow(alpha // g, -1, stride) % stride, stride


def progression_counts(kind: str, sides, count: int, window: int):
    """The closed-form counts of ``kind`` at n = step*i + offset for
    0 <= i < count and each (step, offset) in ``sides`` (step >= 1,
    offset >= 0), window by window: each run of ``window`` consecutive i, the
    last one shorter, is yielded as one list per side, in the order of
    ``sides``.

    The count at n is multiplicative in m = a*n + b = g*(alpha*i + beta),
    where g is the gcd of the side's slope and intercept, so the sides that
    share one primitive form alpha*i + beta are read from one segmented
    sieve over it (after Gries and Misra, CACM 1978), and a side of another
    form gets a sieve of its own.  Each window has every prime p <= sqrt(top)
    divided out of the terms it divides, top being the form's last term;
    what is left above 1 is one prime.  The primes q of the cofactors g are
    sieved too, above sqrt(top) as well, and kept apart: the sieve records
    each term's exponent e of q, and each side reads rule(q, v_q(g) + e)
    from a table per exponent.  The terms that p**k divides form one
    progression of stride p**k, empty when p divides alpha.  Beyond one
    window the working memory is the primes up to sqrt(top).  Where those
    primes and the sieve's setup cost more than the terms of the sides that
    share them (the rule at _SIEVE_CROSSOVER), the point counter of
    ``kind``, looked up by name when called, answers each of their terms
    instead.
    """
    if count <= 0:
        return
    a, b = _PROGRESSIONS[kind][:2]
    # (alpha, beta) -> [(index of the side in sides, its cofactor g)]
    forms = {}
    for j, (step, offset) in enumerate(sides):
        alpha, beta = a * step, a * offset + b
        g = gcd(alpha, beta)
        forms.setdefault((alpha // g, beta // g), []).append((j, g))
    readers = []
    for (alpha, beta), members in forms.items():
        own = [sides[j] for j, _ in members]
        if isqrt(alpha * (count - 1) + beta) + _SIEVE_SETUP > _SIEVE_CROSSOVER * count * len(own):
            reader = _point_windows(kind, own, count, window)
        else:
            reader = _sieve_windows(kind, alpha, beta, [g for _, g in members], own,
                                    count, window)
        readers.append(([j for j, _ in members], reader))
    if len(readers) == 1:
        # one form: its sides are already in the callers' order
        yield from readers[0][1]
        return
    for _ in range(0, count, window):
        values = [None] * len(sides)
        for indices, reader in readers:
            for j, side in zip(indices, next(reader)):
                values[j] = side
        yield values


def _point_windows(kind: str, sides, count: int, window: int):
    """progression_counts by one point count per term of each side."""
    counter = globals()[COUNTERS[kind]]
    for lo in range(0, count, window):
        terms = range(lo, min(lo + window, count))
        yield [[counter(step * i + offset) for i in terms] for step, offset in sides]


def _sieve_windows(kind: str, alpha: int, beta: int, cofactors, sides, count: int,
                   window: int):
    """progression_counts of the sides at m = g*(alpha*i + beta), g the
    side's entry in ``cofactors``, as one segmented sieve over the primitive
    form alpha*i + beta."""
    rule_name, divisor = _PROGRESSIONS[kind][2:]
    rule = globals()[rule_name]
    # each prime q of a cofactor -> its exponent in each cofactor
    split = {}
    for j, g in enumerate(cofactors):
        for q, e in factorize(g).factors:
            split.setdefault(q, [0] * len(cofactors))[j] = e
    bound = isqrt(alpha * (count - 1) + beta)
    # per prime p: (stride, first i, value) for each p**k that divides some
    # term below count, where value is rule(p, k), or k for a cofactor prime;
    # each level's terms lie within the level before it, so the first level
    # with no term below count ends the list.  A cofactor prime also carries,
    # per side, rule(q, v + e) for the side's exponent v at each e the terms
    # take, 1 where v + e = 0
    primes = []
    for p in chain(_primes_upto(bound), sorted(q for q in split if q > bound)):
        levels = []
        pk, k = p, 1
        while (hits := _divisible_terms(alpha, beta, pk)) and hits[0] < count:
            first, stride = hits
            levels.append((stride, first, k))
            pk *= p
            k += 1
        if p in split:
            primes.append((p, levels, [[rule(p, v + e) if v + e else 1
                                         for e in range(len(levels) + 1)]
                                        for v in split[p]]))
        elif levels:
            primes.append((p, [(stride, first, rule(p, k)) for stride, first, k in levels],
                           None))
    for lo in range(0, count, window):
        width = min(window, count - lo)
        rem = list(range(alpha * lo + beta, alpha * (lo + width) + beta, alpha))
        val = [1] * width
        # factor[i] ends as rule(p, e) for the exponent e of p in term i
        factor = [0] * width
        # per side: its cofactor primes' tables read at the terms' exponents,
        # each a factor of the side on top of val
        reads = [[] for _ in sides]
        for p, levels, tables in primes:
            hit = None
            # for a cofactor prime, the exponent e of p in term i, or 0
            marks = factor if tables is None else [0] * width
            for stride, start, value in levels:
                start = (start - lo) % stride
                if start >= width:
                    break
                hit = hit or (start, stride)
                rem[start::stride] = map(floordiv, rem[start::stride], repeat(p))
                marks[start::stride] = repeat(value, len(range(start, width, stride)))
            if tables is None:
                if hit:
                    first, stride = hit
                    val[first::stride] = map(mul, val[first::stride], factor[first::stride])
            elif hit:
                for j, table in enumerate(tables):
                    reads[j].append(map(table.__getitem__, marks))
            else:
                for j, table in enumerate(tables):
                    if table[0] != 1:
                        reads[j].append(repeat(table[0]))
        val = [v * rule(r, 1) if r > 1 else v for v, r in zip(val, rem)]
        yield [_side(kind, divisor, val, factors, step, offset, lo)
               for (step, offset), factors in zip(sides, reads)]


def _side(kind: str, divisor: int, val, factors, step: int, offset: int,
          lo: int) -> list[int]:
    """One side's window: val times each factor, divided exactly by divisor;
    the first term it does not divide is named by its n."""
    side = val
    for factor in factors:
        side = map(mul, side, factor)
    if divisor == 1:
        return side if side is val else list(side)
    side = list(side)
    if any(map(mod, side, repeat(divisor))):
        i = next(i for i, v in enumerate(side) if v % divisor)
        raise ArithmeticError(
            f"{kind} closed form at n={step * (lo + i) + offset} is {side[i]}, "
            f"not divisible by {divisor}; implementation bug")
    return list(map(floordiv, side, repeat(divisor)))


def count_table(kind: str, n_max: int) -> list[int]:
    """The closed-form counts of ``kind`` for 0 <= n < n_max, in one pass:
    ``progression_counts`` at step 1 and offset 0, in windows of _WINDOW."""
    return list(chain.from_iterable(
        map(itemgetter(0), progression_counts(kind, [(1, 0)], n_max, _WINDOW))))
