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
No slice spans more than one window, so the memory beyond the output is
O(_WINDOW + sqrt(order)): the slice temporaries and the progressions'
states.  Only exponents
below the bound are reached, so the output is exact to its order.  This
route never touches the Euler-product engine, making it an independent
oracle for the series module.
"""

from itertools import accumulate, chain, count, islice, repeat
from math import isqrt
from operator import add

from .series import TruncatedSeries, div, from_coeffs, monomial, mul, one

_WINDOW = 1 << 16  # coefficients per window, as in arith.count_table


def _accumulate(order: int, progressions: list[list]) -> TruncatedSeries:
    """The series whose coefficient n sums the weights that land on n.

    A progression [start, step, weights] adds the j-th item of the iterator
    ``weights`` to coefficient start + j*step, for every such index below
    ``order``.  Windows are filled in ascending order, and each progression
    keeps its next index and its partly consumed weights across them.
    """
    coeffs = [0] * order
    for lo in range(0, order, _WINDOW):
        hi = min(lo + _WINDOW, order)
        for progression in progressions:
            start, step, weights = progression
            if start < hi:
                terms = len(range(start, hi, step))
                coeffs[start:hi:step] = map(add, coeffs[start:hi:step], islice(weights, terms))
                progression[0] = start + terms * step
    return TruncatedSeries(tuple(coeffs))


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be >= 1")


def core_series(order: int) -> TruncatedSeries:
    """Series of 3-core partition counts from the folded single-pole sum."""
    _check_order(order)
    # (3m+1)(3k+1) = 3n+1 at n = m + (3m+1)k, (3m+2)(3k+2) = 3n+1 at
    # n = 2m+1 + (3m+2)k; the row of m starts on the diagonal k = m
    progressions = []
    for offset, c, sign in ((0, 1, 1), (1, 2, -1)):
        m = 0
        while (diagonal := (c * m + offset) + (3 * m + c) * m) < order:
            progressions.append([diagonal, 3 * m + c, chain((sign,), repeat(2 * sign))])
            m += 1
    return _accumulate(order, progressions)


def pair_series(order: int) -> TruncatedSeries:
    """Series of 3-core pair counts from the folded weighted sum."""
    _check_order(order)
    # (3m+1)(3k+2) = 3n+2 at n = 2m + (3m+1)k = k + (3k+2)m, weight m+k+1:
    # rows m < split, then columns k over m >= split
    split = isqrt(order // 3) + 1
    progressions = [[2 * m, 3 * m + 1, count(m + 1)] for m in range(split)]
    k = 0
    while (start := k + (3 * k + 2) * split) < order:
        progressions.append([start, 3 * k + 2, count(split + k + 1)])
        k += 1
    return _accumulate(order, progressions)


def triple_series(order: int) -> TruncatedSeries:
    """Series of 3-core triple counts from the k^2-kernel expansion."""
    _check_order(order)
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
    return _accumulate(order, progressions)


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
    return TruncatedSeries(tuple(coeffs))


def square_kernel_check(order: int) -> bool:
    """Check x(1+x)/(1-x)^3 == sum of k^2 x^k through the series engine."""
    if order < 2:
        raise ValueError("order must be >= 2")
    x = monomial(order, 1)
    numerator = mul(x, one(order) + x)
    one_minus_x = from_coeffs((1, -1), order)
    denominator = mul(mul(one_minus_x, one_minus_x), one_minus_x)
    quotient = div(numerator, denominator)
    return all(quotient[k] == k * k for k in range(order))


def tuple_series(k: int, order: int) -> TruncatedSeries:
    """Dispatch to the k-tuple builder, k in {1, 2, 3}."""
    builders = {1: core_series, 2: pair_series, 3: triple_series}
    if k not in builders:
        raise ValueError("k must be 1, 2 or 3")
    return builders[k](order)
