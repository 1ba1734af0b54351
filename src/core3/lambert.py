"""Folded Lambert-sum representations of the 3-core counting series.

The generating functions of 3-core partition counts, pairs, and triples
admit bilateral (all integer index) sum representations coming from the
classical summation formulas of Ramanujan (1psi1) and Bailey (6psi6).
Substituting m -> -m-1 in the negative-index half folds each bilateral sum
into two unilateral ones, which expand into divisor-indexed double sums
over lattice points m, k >= 0:

* cores:   sum of  q^((3m+1)(3k+1)) - q^((3m+2)(3k+2)),
           attached to exponent 3n+1;
* pairs:   sum of  m*q^((3m+1)(3k+2)) + (m+1)*q^((3m+2)(3k+1)),
           attached to exponent 3n+2;
* triples: sum over j (j = 1 or 2 mod 3) and k >= 1 of  +-k^2 * q^(j*k),
           attached to exponent n+1 (the k^2 kernel x(1+x)/(1-x)^3).

Both indices run over every integer >= 0, so (m, k) -> (k, m) permutes
the index set of a double sum without changing its value.  Applied to the
second pair sum it gives the sum of (k+1)*q^((3k+1)(3m+2)), renamed the
sum of (m+1)*q^((3m+1)(3k+2)): the first sum's lattice, the bijection
``pair_fold_cross_term`` certifies on this route's series.  So pairs are
one lattice, (3m+1)(3k+2) = 3n+2 with weight m+k+1, halving the points.
Each core lattice is unchanged by the swap, so only k >= m is visited:
the diagonal with weight 1, the rest with weight 2.

Along a row of fixed m the lattice points below the truncation bound sit
at an arithmetic progression of coefficient indices n with step 3m+1 or
3m+2 (3k+2 along a column of fixed k, and d or 3k for triples).  Each
lattice is cut as in Dirichlet's hyperbola method: rows are taken while
the outer index is below about sqrt(order), columns past that (for the
cores, k >= m is that cut).  So there are O(sqrt(order)) progressions and
no step exceeds about sqrt(3*order).  Each progression is one C-level
slice operation, ``c[start:hi:step] = map(add, c[start:hi:step], weights)``,
per window: the work is the O(order*log(order)) lattice points, added in
C, plus O(sqrt(order)) Python steps per window, so the window grows with
the number of progressions (``_window``).  No slice spans more than one
window, and each progression's next index is never below the window being
filled, so a window is final once every progression has passed it.  A
progression's weights are a closed form of its term index, so it passes
over a window it does not fill in one step, and ``tuple_windows`` can fill
every shares-th window alone: a table shared out over processes asks for
that, and a point query for its last window only.  It yields each window
as it is finished, so a caller that is done with a window before asking
for the next holds one window and the progressions' states, O(sqrt(order)),
in all.  Only exponents below the bound are reached, so the output is
exact to its order.  This route never touches the Euler-product engine, making it an
independent oracle for the series module: it reads only the container
``series.TruncatedSeries``.
"""

from itertools import accumulate, chain, repeat
from math import isqrt
from operator import add

from .series import TruncatedSeries

# coefficients per window below _DOUBLING progressions, and so held in memory
# at once by a table that is written as it comes: _windows rebinds its window
# before it fills the next, and cli lets go of each window it wrote, so one
# window is alive at a time.  Measured on a 2-core Xeon: `table A3 --method
# lambert --nmax 345500` peaks at 14.3 MB of RSS in windows of 2**12, 14.2 at
# 2**13, 14.7 at 2**14, 15.9 at 2**15 and 18.1 at 2**16 (`compute A3 6`:
# 14.2 MB), and at 15.2 MB at 2**14 for --nmax 10**6; with the previous window
# alive while the next was filled, 15.4 and 15.7 MB at 2**14.  In process it
# took 0.39, 0.35, 0.35, 0.35 and 0.37 s (medians of 9, interleaved).
_WINDOW = 1 << 14
# Each window costs a Python step per progression, filled or passed over, so
# the window doubles at each doubling of the progressions from _DOUBLING on,
# twice at most: below 2**10 progressions (a3 and A3 below about 7.9*10**5
# terms, B3 below 2.0*10**5) a window holds _WINDOW coefficients, then
# 2*_WINDOW, and 4*_WINDOW from 2**11 on (a3 and A3 from 3.1*10**6 terms, B3
# from 7.9*10**5).  Up to 2**12 progressions (A3 to about 1.26*10**7 terms)
# those steps stay below 1/16 of the coefficients.  Past 4*_WINDOW a window
# costs memory and saves no time: the A3 windows to 10**7 (3651
# progressions) took 5.3 s in windows of 2**14, 4.6 s at 2**15, 4.4 s at
# 2**16 and 5.0 s at 2**17, in process on a 2-core Xeon.
_DOUBLING = 1 << 10


def _window(progressions: int) -> int:
    """The coefficients per window, the last one fewer, of a table read from
    ``progressions`` progressions."""
    return _WINDOW << min(2, (progressions // _DOUBLING).bit_length())


def _windows(order: int, progressions, share: int = 0, shares: int = 1):
    """The coefficients below ``order`` whose n sums the weights that land on
    n, window by window: of the runs of ``_window(len(progressions))``
    coefficients, the last one shorter, the share-th, then every shares-th
    one, each yielded as a fresh list.

    A progression [start, step, j, weight, weights] adds the weights of its
    terms j, j + 1, ... to coefficients start, start + step, ...: the call
    ``weights(weight, j, terms)`` gives the next ``terms`` of them.  Each
    progression keeps its next index and its next term across windows; that
    index is never below the current window's start, so a window is final
    once every progression has passed its end.  A window not filled is passed
    over in one step per progression.
    """
    progressions = list(progressions)
    size = _window(len(progressions))
    # the share's last window: past it no window is read
    last = share + (-(-order // size) - 1 - share) // shares * shares
    for lo in range(0, last * size + 1, size):
        hi = min(lo + size, order)
        fill = lo // size % shares == share
        window = [0] * (hi - lo) if fill else None
        for progression in progressions:
            start, step, j, weight, weights = progression
            if start < hi:
                terms = len(range(start, hi, step))
                if fill:
                    window[start - lo::step] = map(add, window[start - lo::step],
                                                   weights(weight, j, terms))
                progression[0] = start + terms * step
                progression[2] = j + terms
        if fill:
            yield window


def _core_weights(sign: int, j: int, terms: int):
    # the diagonal, term 0, has weight sign and every term after it 2 * sign
    if j:
        return repeat(2 * sign, terms)
    return chain((sign,), repeat(2 * sign, terms - 1))


def _core_progressions(order: int):
    """The progressions of the folded single-pole sum of 3-cores."""
    # (3m+1)(3k+1) = 3n+1 at n = m + (3m+1)k, (3m+2)(3k+2) = 3n+1 at
    # n = 2m+1 + (3m+2)k; the row of m starts on the diagonal k = m
    for offset, c, sign in ((0, 1, 1), (1, 2, -1)):
        m = 0
        while (diagonal := (c * m + offset) + (3 * m + c) * m) < order:
            yield [diagonal, 3 * m + c, 0, sign, _core_weights]
            m += 1


def _linear_weights(first: int, j: int, terms: int):
    return range(first + j, first + j + terms)


def _pair_progressions(order: int):
    """The progressions of the folded weighted sum of 3-core pairs."""
    # (3m+1)(3k+2) = 3n+2 at n = 2m + (3m+1)k = k + (3k+2)m, weight m+k+1:
    # rows m < split, then columns k over m >= split
    split = isqrt(order // 3) + 1
    for m in range(split):
        yield [2 * m, 3 * m + 1, 0, m + 1, _linear_weights]
    k = 0
    while (start := k + (3 * k + 2) * split) < order:
        yield [start, 3 * k + 2, 0, split + k + 1, _linear_weights]
        k += 1


def _square_weights(sign: int, j: int, terms: int):
    # sign * k^2 for k = j + 1, j + 2, ..., as partial sums of sign * (2k - 1)
    return accumulate(range(sign * (2 * j + 3), sign * (2 * (j + terms) + 1), 2 * sign),
                      initial=sign * (j + 1) ** 2)


def _constant_weights(weight: int, j: int, terms: int):
    return repeat(weight, terms)


def _triple_progressions(order: int):
    """The progressions of the k^2-kernel expansion of 3-core triples."""
    # d*k = n+1 with weight k^2 for d = 1 mod 3, -k^2 for d = 2 mod 3:
    # rows d <= split, then columns k over d > split
    split = isqrt(3 * order)
    for d in range(1, split + 1):
        if d % 3:
            yield [d - 1, d, 0, 1 if d % 3 == 1 else -1, _square_weights]
    for residue, sign in ((1, 1), (2, -1)):
        d = split + 1 + (residue - split - 1) % 3  # the least d > split in the class
        for k in range(1, order // d + 1):
            yield [k * d - 1, 3 * k, 0, sign * k * k, _constant_weights]


# k -> the progressions of the k-tuple series, one at a time
_TUPLE_PROGRESSIONS = {1: _core_progressions, 2: _pair_progressions,
                       3: _triple_progressions}


def _check(k: int, order: int) -> None:
    if k not in _TUPLE_PROGRESSIONS:
        raise ValueError("k must be 1, 2 or 3")
    if order < 1:
        raise ValueError("order must be >= 1")


def tuple_window(k: int, order: int) -> int:
    """The coefficients per window of ``tuple_windows(k, order)``, the last one
    fewer; the progressions are counted, not kept."""
    _check(k, order)
    return _window(sum(1 for _ in _TUPLE_PROGRESSIONS[k](order)))


def tuple_windows(k: int, order: int, share: int = 0, shares: int = 1):
    """The coefficients of the k-tuple series, k in {1, 2, 3}, below ``order``,
    as an iterator of windows of ``tuple_window(k, order)`` coefficients, the
    last one shorter: windows share, share + shares, ... alone, the others
    passed over unfilled.  Bad arguments are refused here, before the first
    window is asked for."""
    _check(k, order)
    return _windows(order, _TUPLE_PROGRESSIONS[k](order), share, shares)


def tuple_series(k: int, order: int) -> TruncatedSeries:
    """The k-tuple series, k in {1, 2, 3}: its windows joined."""
    return TruncatedSeries(chain.from_iterable(tuple_windows(k, order)))


def pair_fold_cross_term(order: int) -> TruncatedSeries:
    """The route's pair series less the two unfolded sums; identically zero.

    ``tuple_series(2, order)`` puts weight m+k+1 on (3m+1)(3k+2); taken from
    it, at n = (exponent-2)/3, are m*q^((3m+1)(3k+2)) along n = 2m + (3m+1)k
    and (m+1)*q^((3m+2)(3k+1)) along n = m + (3m+2)k, for each row m.
    """
    coeffs = list(tuple_series(2, order).coeffs)
    for m in range(order):  # from m = order on, both rows start past the order
        for start, step, weight in ((2 * m, 3 * m + 1, m), (m, 3 * m + 2, m + 1)):
            coeffs[start::step] = map(add, coeffs[start::step], repeat(-weight))
    return TruncatedSeries(coeffs)
