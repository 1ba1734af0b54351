"""Truncated formal power series over exact integers.

A series of order N stores the coefficients of q^0 .. q^(N-1) and nothing
else; every operation preserves the order, so a result is trustworthy for
exactly the exponents it carries.  Coefficients are native Python integers:
arithmetic is exact at any magnitude and silent wraparound cannot occur.

The route's infinite products come from classical identities: ``pentagonal``
and ``jacobi_cube`` write (q^m; q^m) and its cube down term by term
(O(sqrt N) nonzero terms each).  ``div`` by such a sparse divisor is
O(N^1.5): each coefficient gathers the divisor's live terms in C, and the
+-1 terms of (q; q) are summed with no multiplication.  ``euler_product``
is any (q^a; q^m) by its definition, in O(N^2/m).  ``verify_q_split`` and
``square_kernel_check`` test the route's code against identities that must
hold; ``verify structural`` runs them.

All functions here are pure and all series immutable, so concurrent use
needs no synchronisation.
"""

import operator
from operator import itemgetter, sub


class TruncatedSeries:
    """Coefficients ``coeffs[n]`` of q^n for 0 <= n < order, as a tuple; immutable,
    with no arithmetic, and equal to another series with the same coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) < 1:
            raise ValueError("a truncated series needs order >= 1")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is TruncatedSeries else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries(coeffs={self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")


def one(order: int) -> TruncatedSeries:
    """The constant series 1."""
    return monomial(order, 0)


def monomial(order: int, exponent: int) -> TruncatedSeries:
    """q^exponent as a series of the given order."""
    if not 0 <= exponent < order:
        raise ValueError(f"exponent {exponent} outside 0..{order - 1}")
    coeffs = [0] * order
    coeffs[exponent] = 1
    return TruncatedSeries(coeffs)


def from_coeffs(values, order: int | None = None) -> TruncatedSeries:
    """Series with the given leading coefficients, zero-padded to ``order``."""
    values = list(values)
    order = len(values) if order is None else order
    if len(values) > order:
        raise ValueError("more coefficients than the requested order")
    return TruncatedSeries(values + [0] * (order - len(values)))


def _nonzero_terms(s: TruncatedSeries) -> list[tuple[int, int]]:
    return [(i, c) for i, c in enumerate(s.coeffs) if c]


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the common order.

    Iterates over the nonzero terms of the sparser operand, so products
    against sparse Euler factors stay close to linear in the order.
    """
    _check_orders(a, b)
    n = a.order
    ta, tb = _nonzero_terms(a), _nonzero_terms(b)
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out = [0] * n
    for i, ca in ta:
        bound = n - i
        for j, cb in tb:
            if j >= bound:
                break
            out[i + j] += ca * cb
    return TruncatedSeries(out)


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The unique series c with mul(b, c) == a to the common order.

    Requires constant term +1 or -1 in b; since a/b == (-a)/(-b), a lead of
    -1 is negated away first.  Solves for one coefficient at a time,
    c[k] = a[k] - sum over taps j of b[j] * c[k-j], into a list that grows
    by one, so tap j always reads ``out[-j]``.  The live taps (j <= k)
    change only where k reaches the next tap, so each run of k between two
    taps gathers them with prebuilt ``itemgetter``s of negative indices, in
    C.  Taps of +1 and -1 (every tap of (q; q), by the pentagonal theorem)
    are added with a bare ``sum``; only the others, such as the +-(2n+1) of
    (q; q)^3, are weighted by ``sum(map(operator.mul, ...))``.  A divisor
    with T taps costs at most three gathers and sums of at most T terms per
    coefficient, and no intermediate grows beyond the result.
    """
    _check_orders(a, b)
    num, den = a.coeffs, b.coeffs
    lead = den[0]
    if lead not in (1, -1):
        raise ValueError(f"divisor constant term must be +1 or -1, got {lead}")
    if lead == -1:
        num = [-c for c in num]
        den = [-c for c in den]
    n = a.order
    taps = [j for j in range(1, n) if den[j]]
    out = list(num[:taps[0]] if taps else num)  # no tap is live before the first
    append, times = out.append, operator.mul  # ``mul`` here is the series product
    plus, minus, weighted, weights = [], [], [], []
    get_plus = get_minus = get_weighted = None
    for j, stop in zip(taps, taps[1:] + [n]):
        c = den[j]
        if c == 1:
            plus.append(-j)
            get_plus = _gather(plus)
        elif c == -1:
            minus.append(-j)
            get_minus = _gather(minus)
        else:
            weighted.append(-j)
            weights.append(c)
            get_weighted = _gather(weighted)
        for k in range(j, stop):
            acc = num[k]
            if get_plus:
                acc -= sum(get_plus(out))
            if get_minus:
                acc += sum(get_minus(out))
            if get_weighted:
                acc -= sum(map(times, weights, get_weighted(out)))
            append(acc)
    return TruncatedSeries(out)


def _gather(indices: list[int]):
    """A C-level callable taking a sequence to the tuple or list of its items at
    the given negative indices; a single index gathers through a one-item slice,
    since ``itemgetter(i)`` would return the bare item."""
    if len(indices) == 1:
        i = indices[0]
        return itemgetter(slice(i, i + 1 or None))
    return itemgetter(*indices)


def euler_product(a: int, m: int, order: int) -> TruncatedSeries:
    """Truncation of the infinite product (1-q^a)(1-q^(a+m))(1-q^(a+2m))...

    By its definition: each factor 1-q^e with e < order is multiplied in by
    one slice-wide subtraction, c[n] -= c[n-e]; the rest are 1 mod q^order.
    O(order^2/m) steps in C.  The general product ``verify_q_split`` needs
    (a != m), and the reference ``pentagonal`` and ``jacobi_cube`` are held to.
    """
    if a < 1 or m < 1:
        raise ValueError("need a >= 1 and m >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [1] + [0] * (order - 1)
    for e in range(a, order, m):
        coeffs[e:] = map(sub, coeffs[e:], coeffs[:order - e])
    return TruncatedSeries(coeffs)


def _check_base(m: int, order: int) -> None:
    if m < 1:
        raise ValueError("need m >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")


def pentagonal(m: int, order: int) -> TruncatedSeries:
    """(q^m; q^m)_inf by Euler's pentagonal number theorem:

        (q; q)_inf = sum over n in Z of (-1)^n q^(n(3n-1)/2),

    at q^m.  About sqrt(8*order/(3m)) nonzero terms, each written down
    directly.
    """
    _check_base(m, order)
    coeffs = [0] * order
    coeffs[0] = 1
    n, low = 1, m  # q^(m*n(3n-1)/2) and q^(m*n(3n+1)/2), m*n apart
    while low < order:
        sign = -1 if n % 2 else 1
        coeffs[low] = sign
        if low + m * n < order:
            coeffs[low + m * n] = sign
        low += m * (3 * n + 1)
        n += 1
    return TruncatedSeries(coeffs)


def jacobi_cube(m: int, order: int) -> TruncatedSeries:
    """(q^m; q^m)_inf^3 by Jacobi's identity (Andrews, *The Theory of
    Partitions*, ch. 2):

        (q; q)_inf^3 = sum over n >= 0 of (-1)^n (2n+1) q^(n(n+1)/2),

    at q^m.  About sqrt(2*order/m) nonzero terms, each written down
    directly.
    """
    _check_base(m, order)
    coeffs = [0] * order
    n, low = 0, 0  # q^(m*n(n+1)/2)
    while low < order:
        coeffs[low] = -(2 * n + 1) if n % 2 else 2 * n + 1
        n += 1
        low += m * n
    return TruncatedSeries(coeffs)


def core_tuple_series(t: int, k: int, order: int) -> TruncatedSeries:
    """Generating function of ordered k-tuples of t-core partitions.

    Expands (q^t; q^t)^(k*t) / (q; q)^k; the coefficient of q^n counts the
    k-tuples of t-core partitions whose weights sum to n.  With
    k*t = 3a + b and k = 3c + d, the numerator is J(q^t)^a P(q^t)^b and the
    denominator J(q)^c P(q)^d, where J = (q; q)^3 (``jacobi_cube``) and
    P = (q; q) (``pentagonal``) are both sparse: about sqrt(2N) and
    sqrt(8N/3) nonzero terms.  The numerator takes a + b sparse products;
    the quotient takes c divisions by J and d by P, each about N^1.5
    integer operations, the P ones unweighted (every tap of P is +-1).
    For t = 3 that is J(q^3)/P(q), J(q^3)^2/P(q)^2 and J(q^3)^3/J(q) for
    k = 1, 2, 3.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    a, b = divmod(k * t, 3)
    c, d = divmod(k, 3)
    result = one(order)
    for build in [jacobi_cube] * a + [pentagonal] * b:
        result = mul(result, build(t, order))
    for build in [jacobi_cube] * c + [pentagonal] * d:
        result = div(result, build(1, order))
    return result


def verify_q_split(order: int) -> bool:
    """Check (q;q) == (q;q^3)(q^2;q^3)(q^3;q^3) to the given order.

    The three factors split the exponents 1, 2, 3, ... by residue mod 3, so
    this must hold identically.  (q;q), (q^3;q^3) and the products are the
    route's ``pentagonal`` and ``mul``; a False return means a series bug.
    """
    lhs = pentagonal(1, order)
    rhs = mul(mul(euler_product(1, 3, order), euler_product(2, 3, order)),
              pentagonal(3, order))
    return lhs == rhs


def square_kernel_check(order: int) -> bool:
    """Check x(1+x)/(1-x)^3 == sum of k^2 x^k to the given order, through
    ``mul`` and ``div``: the k^2 kernel of the triple Lambert sum.  A False
    return means a series bug."""
    if order < 2:
        raise ValueError("order must be >= 2")
    one_minus_x = from_coeffs((1, -1), order)
    quotient = div(mul(monomial(order, 1), from_coeffs((1, 1), order)),
                   mul(mul(one_minus_x, one_minus_x), one_minus_x))
    return all(quotient[k] == k * k for k in range(order))
