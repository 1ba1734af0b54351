"""Integer machinery and the closed-form counters for 3-core partitions.

The three counting functions live here in their divisor/factorization
forms:

* ``core_count(n)``: number of 3-core partitions of n, as the difference
  between divisors of 3n+1 congruent to 1 and to 2 mod 3.
* ``pair_count(n)``: number of ordered pairs of 3-core partitions of total
  weight n, equal to sigma(3n+2)/3.
* ``triple_count(n)``: number of ordered triples, equal to the weighted
  divisor sum f(n+1) evaluated multiplicatively over the factorization.

A point query factorizes its one argument without a sieve, in one pass:
one loop divides out the primes below 2**10 (2 by its lowest set bit, any
other by doubling powers of it), then each cofactor above 1 is
classified once, as proved prime by the strong-probable-prime test on the
13 prime bases 2..41 (deterministic below PSI_13 ~ 3.3e24), as a perfect
power by its exact root, or as composite to be split by Pollard-Brent rho
within its budget (``_rho_budget``); past either limit factorize refuses with
ValueError.  ``is_prime`` makes the same decision for one number.  Each
closed form is stated once, in ``_PROGRESSIONS``, and evaluated in one
place: ``progression_counts`` gives its values at every n = A*i + B for
several sides (A, B) at once.  ``_form`` is the one decomposition of a
side, the value a*n + b = g*(alpha*i + beta) with alpha*i + beta primitive;
``divisible_terms`` reads off it the i whose value a modulus divides.  The
sides of one call share one primitive form and are read from one segmented
sieve over it: by the primes up to the square root of its last term, or by
none where those primes would cost more than its terms
(``_SIEVE_CROSSOVER``), each term's remainder then factorized once for
every side.  A point count is the one side A = 1, B = n of one term, so it
sieves nothing and factorizes a*n + b once; a table, ``count_windows``, is
the one side A = 1, B = 0; an identity sweep reads the sides of several k
of one (relation, r) in one call, since every k of it lies on one
primitive form.
"""

from collections import namedtuple
from itertools import chain, compress, repeat, starmap
from math import gcd, isqrt, prod
from operator import floordiv, itemgetter, mul

# kind -> name of its point counter in this module.  Callers look the
# function up by name when they call it, so rebinding it here reaches every
# point query; the counters, tables and sweeps all read progression_counts.
COUNTERS = {"a3": "core_count", "A3": "pair_count", "B3": "triple_count"}

# kind -> (a, b, rule, divisor): the closed form of kind at n is the
# multiplicative function with value rule(p, e) at p**e, taken at m = a*n + b,
# divided by divisor.  The rule is named, and looked up at each call, so
# rebinding it here reaches point counts, tables and sweeps alike.
_PROGRESSIONS = {"a3": (3, 1, "_core_prime_power", 1),
                 "A3": (3, 2, "_sigma_prime_power", 3),
                 "B3": (1, 1, "weighted_divisor_sum_prime_power", 1)}

# terms of each side that progression_counts reads at once from 5 sides up;
# a call of fewer sides reads _SIDE_WINDOW * (8 // sides) terms of each: 8
# times as many for one side (a table, xia-congruence), 4 for two (lin) and
# twice for 3 or 4, so shrinking _SIDE_WINDOW shrinks every window.  The
# sieve lets go of each window when the caller asks for the next, so one is
# alive at a time.  Measured on a 2-core Xeon, peak RSS end to end
# (`compute A3 6`: 14.2 MB) and times in process (medians of 7 to 9,
# interleaved): `table A3 --nmax 345500` peaks at 14.2 MB in windows of
# 2**12, 14.4 at 2**13, 15.2 at 2**14, 16.7 at 2**15 and 20.7 at 2**16, and
# the four table commands of the benchmark at 345500 take 1.72, 1.63, 1.61,
# 1.63 and 1.73 s in all at 2**12..2**16; verify lin --nmax 100000 peaks at 14.2 MB in
# windows of 2**10, 14.3 at 2**12 and 16.6 at 2**14, and check_lin(100000)
# takes 90 ms at 2**10 and 62 ms at 2**12; verify xia-congruence --nmax
# 100000 peaks at 14.3 MB at 2**10 and 14.7 at 2**13, in 187 and 109 ms.
# The heavy sweeps read 16 sides a call: verify A3-residues --kmax 100
# --nmax 2000 peaks at 15.2 MB at 2**10 (16.8 at 2**12) and B3-residues at
# the same sizes at 14.9 MB, in 0.86 and 0.52 s.
_SIDE_WINDOW = 1 << 10
# progression_counts sieves a primitive form alpha*i + beta of count terms up
# to top by the primes up to sqrt(top) when isqrt(top) + _SIEVE_SETUP <=
# _SIEVE_CROSSOVER * count, else by none, factorizing each term's remainder
# once: the primes and a fixed setup against the terms, each side's own work
# being the same either way.  Measured on a 2-core Xeon by timing both modes
# on each of the 336 calls that the verify defaults, both selfcheck
# batteries, the selfcheck benchmark's enlarged sweeps and small sweeps
# (nmax 3, 10 and 30) make, 3 runs: with 4 and 32 the small sweeps take
# 1.5-3.0% more than the faster mode for every call (3.4-4.9% with the
# terms weighed by the sides, as when each side factorized each argument;
# 1.1-2.4% with 16 for 32, or 6 or 8 for 4), the other sets no measurable
# amount more.  Those refits save about 40 us of the small sweeps' 8 ms, on
# seven calls of 11 terms that either mode reads in 34-87 us, so 4 and 32 stay.
_SIEVE_CROSSOVER = 4
_SIEVE_SETUP = 32


# a collections.namedtuple, not a typing.NamedTuple: importing typing would
# cost every point query more than its factorization
Factorization = namedtuple("Factorization", ("n", "factors"))
Factorization.__doc__ = (
    "n as an ordered product of prime powers p1^a1 * p2^a2 * ... (p1 < p2 < ...).")
Factorization.__annotations__ = {"n": int, "factors": tuple[tuple[int, int], ...]}


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

# Pollard-Brent rho iterations one factorization may spend in all, enough for
# a second-largest prime factor of 10**10 many times over (about 10**5 expected),
# while its cofactor has at most _RHO_FULL_BITS bits; past them ``_rho_budget``
# cuts it by the square of the bits, as an iteration costs more.  On a 2-core
# Xeon an iteration takes about 0.5/3.3/10/36/131/375 us at
# 256/1024/2048/4096/8192/14284 bits (CPython's 4300-digit limit), so the cut
# budget runs out in 2.1/0.9/0.7/0.6/0.5/0.5 s, the whole one in up to 26 min.
RHO_BUDGET = 1 << 22
_RHO_FULL_BITS = 256
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
    """Whether m, free of prime factors below _SMALL, is prime: below
    _SMALL**2 it is, and below PSI_13 the strong-probable-prime test on the
    13 bases 2..41 decides it.  An m at or past PSI_13 that no base shows
    composite could be a strong pseudoprime, so it is refused with
    ValueError; a test for m past PSI_13, such as BPSW, would go in that branch."""
    if m < _SMALL * _SMALL:
        return True
    if not _is_strong_probable_prime(m, _BASES):
        return False
    if m < PSI_13:
        return True
    raise ValueError(
        f"{m} passes the strong-probable-prime test to every base 2..41, "
        f"which proves primality only below {PSI_13}")


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


def _rho_budget(m: int) -> int:
    """The rho iterations one factorization may spend when m is what is left
    of its argument after the primes below _SMALL: RHO_BUDGET up to
    _RHO_FULL_BITS bits, cut by the square of m's bits past them, so that it
    costs about as much at any size."""
    return RHO_BUDGET * _RHO_FULL_BITS**2 // max(_RHO_FULL_BITS, m.bit_length())**2


def _rho_split(m: int, budget: int, total: int) -> tuple[int, int]:
    """A proper divisor of the composite m by Pollard-Brent rho (Brent, BIT
    20, 1980) on y -> y*y + c from y = 2, for c = 1, 2, ... in turn, and the
    iterations left of ``budget``; raises ValueError, naming the ``total``
    budget, when it runs out."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            # a round takes r steps to move x on and at most r more to find g
            if budget < 2 * r:
                raise ValueError(
                    f"Pollard-Brent rho reached its budget of {total} "
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
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            if p == 2:
                a = (m & -m).bit_length() - 1
                m >>= a
            else:
                # divide by p, p**2, p**4, ... while each divides; what is left
                # has fewer than 2**len(powers) factors p: one try per bit
                a = 0
                powers = []
                q = p
                while not m % q:
                    m //= q
                    a += 1 << len(powers)
                    powers.append(q)
                    q *= q
                for bit in range(len(powers) - 1, -1, -1):
                    if not m % powers[bit]:
                        m //= powers[bit]
                        a += 1 << bit
            factors.append((p, a))
    # each cofactor above 1, with its multiplicity, has no prime factor below
    # _SMALL: it is proved prime, or taken apart by its exact root if it is a
    # perfect power (rho takes about sqrt(p) steps on p**2), or split by rho
    large = {}
    pending = [(m, 1)] if m > 1 else []
    total = budget = _rho_budget(m)
    while pending:
        m, e = pending.pop()
        if _is_proved_prime(m):
            large[m] = large.get(m, 0) + e
            continue
        root, k = _exact_root(m)
        if k > 1:
            pending.append((root, k * e))
        else:
            d, budget = _rho_split(m, budget, total)
            pending += ((d, e), (m // d, e))
    return factors + sorted(large.items())


def factorize(n: int) -> Factorization:
    """Canonical prime factorization, without a sieve.

    Divide out the primes below 2**10 in one loop, then classify each
    cofactor above 1 once: proved prime by the strong-probable-prime test on
    bases 2..41 (deterministic below PSI_13), taken apart by its exact
    integer root if it is a perfect power, or split by Pollard-Brent rho,
    its parts classified in turn.  Raises ValueError, naming n, for a
    cofactor at or past PSI_13 that passes every base, or when rho spends
    its budget, ``_rho_budget`` of the cofactor.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need n >= 1")
    try:
        factors = _prime_powers(n)
    except ValueError as exc:
        raise ValueError(f"cannot factorize {n}: {exc}") from None
    return Factorization(n, tuple(factors))


def _sigma_prime_power(p: int, a: int) -> int:
    if a == 1:  # the exponent of almost every large prime: no power, no division
        return p + 1
    return (p ** (a + 1) - 1) // (p - 1)


def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    total = 1
    for p, a in factorize(n).factors:
        total *= _sigma_prime_power(p, a)
    return total


def _closed_form(kind: str, n: int) -> int:
    """The closed form of ``kind`` at n: one window of the one side (1, n),
    of one term, from ``progression_counts``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    [[[value]]] = progression_counts(kind, [(1, n)], 1)
    return value


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
    if k == 1:  # the exponent of almost every large prime: no power, no division
        return 9 if p == 3 else p * p + 1 if p % 3 == 1 else p * p - 1
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


def _form(kind: str, step: int, offset: int) -> tuple[int, int, int]:
    """(alpha, beta, g): the closed form of ``kind`` at n = step*i + offset is
    taken at a*n + b = g*(alpha*i + beta), with alpha*i + beta primitive."""
    a, b = _PROGRESSIONS[kind][:2]
    alpha, beta = a * step, a * offset + b
    g = gcd(alpha, beta)
    return alpha // g, beta // g, g


def _divisible_terms(alpha: int, beta: int, modulus: int, count: int) -> range:
    """The i in [0, count) with modulus | alpha*i + beta: one progression of
    stride modulus / gcd(alpha, modulus), empty unless that gcd divides beta."""
    g = gcd(alpha, modulus)
    if beta % g:
        return range(0)
    stride = modulus // g
    return range(-(beta // g) * pow(alpha // g, -1, stride) % stride, count, stride)


def divisible_terms(kind: str, step: int, offset: int, modulus: int, count: int) -> range:
    """The i in [0, count) where ``modulus`` divides the progression value of
    ``kind`` at n = step*i + offset, g*(alpha*i + beta) by ``_form``: M | g*x
    exactly when M / gcd(M, g) | x."""
    alpha, beta, g = _form(kind, step, offset)
    return _divisible_terms(alpha, beta, modulus // gcd(modulus, g), count)


def side_window(sides: int) -> int:
    """The terms of each side that one window of a ``progression_counts`` call
    over ``sides`` sides holds, the last window fewer."""
    return _SIDE_WINDOW * max(1, 8 // sides)


def progression_counts(kind: str, sides, count: int, share: int = 0, shares: int = 1):
    """The closed-form counts of ``kind`` at n = step*i + offset for
    0 <= i < count and each (step, offset) in ``sides`` (step >= 1,
    offset >= 0), yielded per window of consecutive i, as one list per side
    in the order of ``sides``.  A window holds ``side_window(len(sides))``
    terms of each side, the last one fewer.  Of the windows 0, 1, 2, ...
    only share, share + shares, share + 2*shares, ... are sieved and yielded.

    ``_form`` puts each side at g*(alpha*i + beta).  Every side must share
    one primitive form alpha*i + beta, else ArithmeticError names the forms;
    the sides are read from one segmented sieve over it (after Gries and
    Misra, CACM 1978).  Each window has every prime p <= sqrt(top), top the
    form's last term, divided out of the terms that p**k divides, the range
    ``_divisible_terms`` gives as ``divisible_terms`` does for a side; what
    is left above 1 is one prime.  The primes q of the cofactors g are
    sieved too, above sqrt(top) as well, and kept apart: each side reads
    rule(q, v_q(g) + e) at each term's exponent e of q from a table per
    exponent.  Beyond one window the working memory is the primes up to
    sqrt(top).  Where those primes and the sieve's setup cost more than the
    terms (_SIEVE_CROSSOVER), no prime but the cofactors' is sieved, and
    ``factorize`` completes each term's remainder once for every side.
    """
    if count <= 0:
        return
    forms = {}
    cofactors = []
    for step, offset in sides:
        alpha, beta, g = _form(kind, step, offset)
        forms[alpha, beta] = None
        cofactors.append(g)
    if len(forms) > 1:
        raise ArithmeticError(
            f"{kind} sides {list(sides)} lie on the primitive forms "
            f"{' and '.join(map(str, forms))}, not one; implementation bug")
    bound = isqrt(alpha * (count - 1) + beta)
    if bound + _SIEVE_SETUP > _SIEVE_CROSSOVER * count:
        bound = 0
    yield from _sieve_windows(kind, alpha, beta, cofactors, sides, count,
                              side_window(len(sides)), bound, share, shares)


def _sieve_windows(kind: str, alpha: int, beta: int, cofactors, sides, count: int,
                   window: int, bound: int, share: int = 0, shares: int = 1):
    """progression_counts of the sides at m = g*(alpha*i + beta), g the
    side's entry in ``cofactors``, as one segmented sieve over the primitive
    form alpha*i + beta by the primes up to ``bound``, sqrt(top) or 0: the
    windows from share*window on, every shares-th one."""
    rule_name, divisor = _PROGRESSIONS[kind][2:]
    rule = globals()[rule_name]
    # each prime q of a cofactor -> its exponent in each cofactor
    split = {}
    for j, g in enumerate(cofactors):
        for q, e in factorize(g).factors if g > 1 else ():
            split.setdefault(q, [0] * len(cofactors))[j] = e
    # per prime p: (stride, first i, value) for each p**k that divides some
    # term below count, where value is rule(p, k), or k for a cofactor prime;
    # each level's terms lie within the level before it, so the first level
    # with no term below count ends the list.  A cofactor prime also carries,
    # per side, rule(q, v + e) for the side's exponent v at each e the terms
    # take, 1 where v + e = 0
    primes = []
    for p in chain(_primes_upto(bound) if bound else (), sorted(q for q in split if q > bound)):
        levels = []
        pk, k = p, 1
        while hits := _divisible_terms(alpha, beta, pk, count):
            levels.append((hits.step, hits.start, k))
            pk *= p
            k += 1
        if p in split:
            primes.append((p, levels, [[rule(p, v + e) if v + e else 1
                                         for e in range(len(levels) + 1)]
                                        for v in split[p]]))
        elif levels:
            primes.append((p, [(stride, first, rule(p, k)) for stride, first, k in levels],
                           None))
    for lo in range(share * window, count, shares * window):
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
        # each list is let go once dead, and the window yielded once the
        # caller resumes, so one window is alive while the next is sieved.
        # marks is rebound, not deleted: a window no prime hits never binds it
        factor = marks = None
        if bound:
            # what is left above 1 is one prime; a product already 0 stays 0
            # whatever the rule gives: no call for it
            val = [v * rule(r, 1) if v and r > 1 else v for v, r in zip(val, rem)]
        else:
            # no prime sieved but the cofactors': one factorization completes
            # each term for every side
            val = [prod(starmap(rule, factorize(r).factors)) for r in rem]
        rem = None
        values = [_side(kind, divisor, val, factors, step, offset, lo)
                  for (step, offset), factors in zip(sides, reads)]
        val = reads = None
        yield values
        values = None


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
    quotients = list(map(floordiv, side, repeat(divisor)))
    # exact: the sums differ by the remainders' sum, each in [0, divisor)
    if divisor * sum(quotients) != sum(side):
        i = next(i for i, v in enumerate(side) if v % divisor)
        raise ArithmeticError(
            f"{kind} closed form at n={step * (lo + i) + offset} is {side[i]}, "
            f"not divisible by {divisor}; implementation bug")
    return quotients


def count_windows(kind: str, n_max: int, share: int = 0, shares: int = 1):
    """The closed-form counts of ``kind`` for 0 <= n < n_max, as an iterator
    of windows of ``side_window(1)`` counts, the last one shorter:
    ``progression_counts`` at the one side of step 1 and offset 0, each window
    computed when it is asked for.  Only the windows share, share + shares,
    ... are computed, for a caller that shares the table out."""
    return map(itemgetter(0), progression_counts(kind, [(1, 0)], n_max, share, shares))

