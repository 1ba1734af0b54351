import time
from itertools import chain

import pytest

from core3 import lambert
from core3.arith import core_count, pair_count, triple_count
from core3.lambert import _WINDOW, pair_fold_cross_term, tuple_series, tuple_windows
from core3.series import (
    core_tuple_series, div, from_coeffs, monomial, mul, square_kernel_check)


# The oracle: the folded double sums of the module docstring, one lattice
# point at a time, the pair sum as its two halves without the (m, k) swap.

def core_points(order):
    coeffs = [0] * order
    top = 3 * order - 2  # largest exponent 3n+1 with n < order
    for d in range(1, top + 1, 3):           # d = 3m+1, e = d*(3k+1)
        for e in range(d, top + 1, 3 * d):
            coeffs[(e - 1) // 3] += 1
    for d in range(2, top + 1, 3):           # d = 3m+2, e = d*(3k+2)
        for e in range(2 * d, top + 1, 3 * d):
            coeffs[(e - 1) // 3] -= 1
    return coeffs


def pair_points(order):
    coeffs = [0] * order
    top = 3 * order - 1  # largest exponent 3n+2 with n < order
    for m, d in enumerate(range(1, top + 1, 3)):   # d = 3m+1, e = d*(3k+2)
        for e in range(2 * d, top + 1, 3 * d):
            coeffs[(e - 2) // 3] += m
    for m, d in enumerate(range(2, top + 1, 3)):   # d = 3m+2, e = d*(3k+1)
        for e in range(d, top + 1, 3 * d):
            coeffs[(e - 2) // 3] += m + 1
    return coeffs


def triple_points(order):
    acc = [0] * (order + 1)  # acc[e] collects the coefficient of q^e, e = n+1
    for d in range(1, order + 1, 3):
        for k in range(1, order // d + 1):
            acc[d * k] += k * k
    for d in range(2, order + 1, 3):
        for k in range(1, order // d + 1):
            acc[d * k] -= k * k
    return acc[1:]


# the k-tuple series against its lattice points
BUILDERS = pytest.mark.parametrize("k, points", [(1, core_points), (2, pair_points),
                                                 (3, triple_points)],
                                   ids=["core_series-core_points", "pair_series-pair_points",
                                        "triple_series-triple_points"])


@BUILDERS
def test_builders_match_the_lattice_points_at_every_small_order(k, points):
    # every split, diagonal and column start below 300 comes and goes
    expected = points(300)
    for order in range(1, 301):
        assert list(tuple_series(k, order).coeffs) == expected[:order], order


@BUILDERS
def test_builders_match_the_lattice_points_across_windows(k, points):
    expected = points(2 * _WINDOW + 1)
    for order in (_WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW + 1):
        assert list(tuple_series(k, order).coeffs) == expected[:order], order


@pytest.mark.parametrize("k", [1, 2, 3])
def test_windows_join_to_the_series(k, monkeypatch):
    orders = (1, 15, 16, 17, 31, 32, 33, 48, 49, 60)
    expected = {order: list(tuple_series(k, order).coeffs) for order in orders}
    # windows of 16: the orders above cross 0 to 3 window boundaries
    monkeypatch.setattr(lambert, "_WINDOW", 16)
    for order in orders:
        windows = list(tuple_windows(k, order))
        assert [len(w) for w in windows] == [min(16, order - lo) for lo in range(0, order, 16)]
        assert len(set(map(id, windows))) == len(windows)  # each a fresh list
        assert list(chain.from_iterable(windows)) == expected[order], order


def test_core_series_spot_values():
    assert tuple_series(1, 1)[0] == 1
    assert tuple_series(1, 5).coeffs == (1, 1, 2, 0, 2)


def test_pair_series_spot_values():
    assert tuple_series(2, 1)[0] == 1
    assert tuple_series(2, 3).coeffs == (1, 2, 5)


def test_triple_series_spot_values():
    assert tuple_series(3, 1)[0] == 1
    assert tuple_series(3, 4).coeffs == (1, 3, 9, 13)


def test_core_series_counts_divisor_classes():
    # coefficient n must be d_{1,3}(3n+1) - d_{2,3}(3n+1)
    s = tuple_series(1, 200)
    for n in range(200):
        m = 3 * n + 1
        divs = [d for d in range(1, m + 1) if m % d == 0]
        expected = (sum(1 for d in divs if d % 3 == 1)
                    - sum(1 for d in divs if d % 3 == 2))
        assert s[n] == expected, n


def test_lambert_matches_euler_quotient():
    n = 300
    assert tuple_series(1, n) == core_tuple_series(3, 1, n)
    assert tuple_series(2, n) == core_tuple_series(3, 2, n)
    assert tuple_series(3, n) == core_tuple_series(3, 3, n)


def test_lambert_matches_euler_quotient_to_6000():
    # the two routes share no expansion code; the 2 s budget covers both
    # (about 0.16 s on a 2-core Xeon)
    start = time.perf_counter()
    for k in (1, 2, 3):
        assert core_tuple_series(3, k, 6000) == tuple_series(k, 6000), k
    assert time.perf_counter() - start < 2.0


def test_lambert_matches_closed_forms():
    n = 300
    assert list(tuple_series(1, n).coeffs) == [core_count(i) for i in range(n)]
    assert list(tuple_series(2, n).coeffs) == [pair_count(i) for i in range(n)]
    assert list(tuple_series(3, n).coeffs) == [triple_count(i) for i in range(n)]


def test_pair_fold_cross_term_vanishes():
    assert pair_fold_cross_term(2000) == from_coeffs([], 2000)


def test_square_kernel_coefficients():
    order = 10
    x = monomial(order, 1)
    kernel = div(mul(x, from_coeffs([1, 1], order)),
                 mul(mul(from_coeffs([1, -1], order), from_coeffs([1, -1], order)),
                     from_coeffs([1, -1], order)))
    assert kernel[1] == 1
    assert kernel[5] == 25


def test_square_kernel_check():
    assert square_kernel_check(100)


def test_tuple_series_dispatch():
    # each k reaches its own lattice
    assert list(tuple_series(1, 10).coeffs) == core_points(10)
    assert list(tuple_series(2, 10).coeffs) == pair_points(10)
    assert list(tuple_series(3, 10).coeffs) == triple_points(10)
    with pytest.raises(ValueError):
        tuple_series(4, 10)
    # windows are refused at the call, not when the first one is asked for
    with pytest.raises(ValueError):
        tuple_windows(4, 10)


def test_order_validation():
    for k in (1, 2, 3):
        with pytest.raises(ValueError):
            tuple_series(k, 0)
        with pytest.raises(ValueError):
            tuple_windows(k, 0)
