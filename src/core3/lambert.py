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
``pair_fold_cross_term`` certifies.  So pairs are one lattice,
(3m+1)(3k+2) = 3n+2 with weight m+k+1, which halves the points visited.
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
per window of _WINDOW coefficients: the work is the O(order*log(order))
lattice points, added in C, plus O(sqrt(order)) Python steps per window.
No slice spans more than one window, and each progression's next index is
never below the window being filled, so a window is final once every
progression has passed it.  ``tuple_windows`` yields each window as it is
finished, so a caller that is done with a window before asking for the
next holds O(_WINDOW + sqrt(order)) in all: the window, its slice
temporaries and the progressions' states.  Only exponents below the bound
are reached, so the output is exact to its order.  This route never
touches the Euler-product engine, making it an independent oracle for the
series module: it reads only the container ``series.TruncatedSeries``.
"""

from itertools import accumulate, chain, count, islice, repeat
from math import isqrt
from operator import add

from .series import TruncatedSeries

# coefficients per window, and so held in memory at once by a table that is
# written as it comes: _windows rebinds its window before it fills the next,
# and cli lets go of each window it wrote, so one window is alive at a time.
# Measured on a 2-core Xeon: `table A3 --method lambert --nmax 345500` peaks
# at 14.3 MB of RSS in windows of 2**12, 14.2 at 2**13, 14.7 at 2**14, 15.9
# at 2**15 and 18.1 at 2**16 (`compute A3 6`: 14.2 MB), and at 15.2 MB at
# 2**14 for --nmax 10**6; with the previous window alive while the next was
# filled, 15.4 and 15.7 MB at 2**14.  In process it took 0.39, 0.35,
# 0.35, 0.35 and 0.37 s (medians of 9, interleaved).  Each window costs a
# Python step per progression, O(sqrt(order)), so smaller windows cost more
# at large orders: the windows of A3 to 3*10**6 took 2.1 s at 2**13, 2.0 s at
# 2**14 and 1.9 s at 2**16, and to 10**7 9.0 s at 2**14 against 7.0 s at 2**16.
_WINDOW = 1 << 14


def _windows(order: int, progressions: list[list]):
    """The coefficients below ``order`` whose n sums the weights that land on
    n, window by window: each run of _WINDOW coefficients, the last one
    shorter, is yielded as a fresh list.

    A progression [start, step, weights] adds the j-th item of the iterator
    ``weights`` to coefficient start + j*step, for every such index below
    ``order``.  Each progression keeps its next index and its partly consumed
    weights across windows.  That index is never below the current window's
    start, so a window is final once every progression has passed its end.
    """
    for lo in range(0, order, _WINDOW):
        hi = min(lo + _WINDOW, order)
        window = [0] * (hi - lo)
        for progression in progressions:
            start, step, weights = progression
            if start < hi:
                terms = len(range(start, hi, step))
                window[start - lo::step] = map(add, window[start - lo::step],
                                               islice(weights, terms))
                progression[0] = start + terms * step
        yield window


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be >= 1")


def _core_progressions(order: int) -> list[list]:
    """The progressions of the folded single-pole sum of 3-cores."""
    # (3m+1)(3k+1) = 3n+1 at n = m + (3m+1)k, (3m+2)(3k+2) = 3n+1 at
    # n = 2m+1 + (3m+2)k; the row of m starts on the diagonal k = m
    progressions = []
    for offset, c, sign in ((0, 1, 1), (1, 2, -1)):
        m = 0
        while (diagonal := (c * m + offset) + (3 * m + c) * m) < order:
            progressions.append([diagonal, 3 * m + c, chain((sign,), repeat(2 * sign))])
            m += 1
    return progressions


def _pair_progressions(order: int) -> list[list]:
    """The progressions of the folded weighted sum of 3-core pairs."""
    # (3m+1)(3k+2) = 3n+2 at n = 2m + (3m+1)k = k + (3k+2)m, weight m+k+1:
    # rows m < split, then columns k over m >= split
    split = isqrt(order // 3) + 1
    progressions = [[2 * m, 3 * m + 1, count(m + 1)] for m in range(split)]
    k = 0
    while (start := k + (3 * k + 2) * split) < order:
        progressions.append([start, 3 * k + 2, count(split + k + 1)])
        k += 1
    return progressions


def _triple_progressions(order: int) -> list[list]:
    """The progressions of the k^2-kernel expansion of 3-core triples."""
    # d*k = n+1 with weight k^2 for d = 1 mod 3, -k^2 for d = 2 mod 3:
    # rows d <= split, then columns k over d > split
    split = isqrt(3 * order)
    progressions = []
    for d in range(1, split + 1):
        if d % 3:
            sign = 1 if d % 3 == 1 else -1
            # sign * k^2 for k = 1, 2, ..., as partial sums of sign * (2k - 1)
            squares = accumulate(count(3 * sign, 2 * sign), initial=sign)
            progressions.append([d - 1, d, squares])
    for residue, sign in ((1, 1), (2, -1)):
        d = split + 1 + (residue - split - 1) % 3  # the least d > split in the class
        for k in range(1, order // d + 1):
            progressions.append([k * d - 1, 3 * k, repeat(sign * k * k)])
    return progressions


# k -> the progressions of the k-tuple series
_TUPLE_PROGRESSIONS = {1: _core_progressions, 2: _pair_progressions,
                       3: _triple_progressions}


def tuple_windows(k: int, order: int):
    """The coefficients of the k-tuple series, k in {1, 2, 3}, below ``order``,
    as an iterator of windows of _WINDOW coefficients, the last one shorter.
    Bad arguments are refused here, before the first window is asked for."""
    if k not in _TUPLE_PROGRESSIONS:
        raise ValueError("k must be 1, 2 or 3")
    _check_order(order)
    return _windows(order, _TUPLE_PROGRESSIONS[k](order))


def tuple_series(k: int, order: int) -> TruncatedSeries:
    """The k-tuple series, k in {1, 2, 3}: its windows joined."""
    return TruncatedSeries(chain.from_iterable(tuple_windows(k, order)))


def pair_fold_cross_term(order: int) -> TruncatedSeries:
    """The residual double sum of the pair fold; identically zero.

    Swapping the two summation indices maps one half onto the other, so
    sum of q^((3m+2)(3k+1)) - q^((3m+1)(3k+2)) cancels term by term.
    """
    _check_order(order)
    coeffs = [0] * order
    for d in range(2, order, 3):
        for e in range(d, order, 3 * d):
            coeffs[e] += 1
    for d in range(1, order, 3):
        for e in range(2 * d, order, 3 * d):
            coeffs[e] -= 1
    return TruncatedSeries(coeffs)
