import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from core3.series import (
    TruncatedSeries,
    core_tuple_series,
    div,
    euler_product,
    from_coeffs,
    jacobi_cube,
    monomial,
    mul,
    one,
    pentagonal,
    square_kernel_check,
    verify_q_split,
)
from oracles import enumerate_partitions, long_division


def pentagonal_coeffs(order):
    """Oracle: sparse +-q^(k(3k-1)/2) pattern of the Euler product (q;q)."""
    coeffs = [0] * order
    k = 0
    while True:
        done = True
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < order:
                coeffs[g] = (-1) ** k
                done = False
        if done and k > 0:
            return coeffs
        k += 1


def _literal_euler_product(a, m, order):
    """Oracle: multiply in (1 - q^e) for e = a, a+m, ... < order, one factor at a time."""
    coeffs = [0] * order
    coeffs[0] = 1
    e = a
    while e < order:
        # multiply in place by (1 - q^e); descending keeps old values intact
        for i in range(order - 1, e - 1, -1):
            c = coeffs[i - e]
            if c:
                coeffs[i] -= c
        e += m
    return TruncatedSeries(tuple(coeffs))


def _euler_quotient(t, k, order):
    """Oracle: (q^t; q^t)^(k*t) / (q; q)^k from the Euler products, one
    factor per multiplication and one long division per power of (q; q)."""
    numerator_factor = euler_product(t, t, order)
    result = one(order)
    for _ in range(k * t):
        result = mul(result, numerator_factor)
    denominator = euler_product(1, 1, order).coeffs
    for _ in range(k):
        result = TruncatedSeries(long_division(result.coeffs, denominator))
    return result


@st.composite
def divisions(draw):
    """A numerator and a divisor of one order in 1..300: the divisor's lead
    +1 or -1, its taps in -3..3 between zero runs of up to 80 terms."""
    order = draw(st.integers(1, 300))
    numerator = from_coeffs(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=order)), order)
    divisor = [draw(st.sampled_from((1, -1)))] + [0] * (order - 1)
    j = 0
    for gap, tap in draw(st.lists(st.tuples(st.integers(0, 80), st.integers(-3, 3)), max_size=40)):
        j += gap + 1
        if j >= order:
            break
        divisor[j] = tap
    return numerator, TruncatedSeries(tuple(divisor))


small_series = st.builds(
    lambda values: from_coeffs(values, 10),
    st.lists(st.integers(-9, 9), min_size=1, max_size=10))


def test_order_and_indexing():
    s = from_coeffs([3, 0, -1], 5)
    assert s.order == 5
    assert s[0] == 3 and s[2] == -1 and s[4] == 0


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(())


@pytest.mark.parametrize("call, message", [
    (lambda: monomial(3, 3), "exponent 3 outside 0..2"),
    (lambda: from_coeffs([1, 2, 3], 2), "more coefficients than the requested order"),
    (lambda: square_kernel_check(1), "order must be >= 2"),
], ids=["monomial", "from_coeffs", "square_kernel_check"])
def test_series_beyond_their_order_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_series_is_a_tuple_container():
    coeffs = [1, 2, 3]
    s = TruncatedSeries(coeffs)
    coeffs.append(4)  # the caller's list is not the series
    assert s.coeffs == (1, 2, 3) and s == TruncatedSeries((1, 2, 3))
    twin = (1, 2, 3)
    assert TruncatedSeries(twin).coeffs is twin
    with pytest.raises(TypeError):  # arithmetic is mul and div, not operators
        s + s


def test_mul_identity():
    s = from_coeffs([2, -1, 0, 7], 4)
    assert mul(one(4), s) == s


def test_mul_geometric_telescoping():
    # (1 - q) * (1 + q + q^2 + q^3 + q^4) == 1 at order 5
    geometric = TruncatedSeries((1,) * 5)
    assert mul(from_coeffs([1, -1], 5), geometric) == one(5)


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        mul(one(4), one(5))


def test_pentagonal_square():
    # hand convolution of (1 - q - q^2 + q^5 + q^7)^2
    e = euler_product(1, 1, 8)
    assert mul(e, e).coeffs == (1, -2, -1, 2, 1, 2, -2, 0)
    assert mul(e, e)[3] == 2


def test_div_identity():
    s = from_coeffs([5, 1, -2], 3)
    assert div(s, one(3)) == s


def test_div_partition_numbers():
    # 1/(q;q) enumerates partitions; check against brute-force counting
    quotient = div(one(16), euler_product(1, 1, 16))
    brute = tuple(sum(1 for _ in enumerate_partitions(n)) for n in range(16))
    assert quotient.coeffs == brute
    assert quotient.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176)


def test_div_requires_unit_constant():
    with pytest.raises(ValueError):
        div(one(4), from_coeffs([2, 1], 4))
    with pytest.raises(ValueError):
        div(one(4), from_coeffs([0, 1], 4))


@given(small_series, small_series)
def test_mul_commutative(a, b):
    assert mul(a, b) == mul(b, a)


@given(small_series, small_series, small_series)
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(small_series, small_series, st.sampled_from((1, -1)))
def test_div_round_trip(a, b, lead):
    b = from_coeffs((lead,) + b.coeffs[1:], 10)
    assert div(mul(a, b), b) == a


_NEAR_WORD = from_coeffs([2**64 - 1, -2**64, 2**64 + 1, -2**63, 2**63 - 1] * 8)


@settings(max_examples=200, deadline=None)
@given(divisions())
@example((from_coeffs([3, -1, 4], 5), one(5)))  # no taps at all
@example((from_coeffs([3, -1, 4], 5), from_coeffs([-1], 5)))
@example((from_coeffs([1, 2, 3], 50), from_coeffs([1] + [0] * 48 + [2])))  # one tap at order-1
@example((one(6), from_coeffs([-1, 1], 6)))  # one -1 tap after the lead is negated away
@example((one(400), pentagonal(1, 400)))
@example((jacobi_cube(3, 400), pentagonal(1, 400)))
@example((jacobi_cube(3, 400), jacobi_cube(1, 400)))
@example((one(400), jacobi_cube(1, 400)))
# coefficients past a machine word, in sums of +-1 taps and of weighted ones
@example((_NEAR_WORD, pentagonal(1, 40)))
@example((_NEAR_WORD, jacobi_cube(1, 40)))
@example((_NEAR_WORD, from_coeffs([-1, 1, -1, 3, 0, -2], 40)))
def test_div_matches_long_division(division):
    a, b = division
    assert div(a, b).coeffs == long_division(a.coeffs, b.coeffs)


def test_euler_product_pentagonal():
    assert euler_product(1, 1, 13).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def test_euler_product_single_factor():
    assert euler_product(3, 3, 4).coeffs == (1, 0, 0, -1)


def test_euler_product_all_factors_beyond_order():
    assert euler_product(5, 3, 5) == one(5)


def test_euler_product_validation():
    with pytest.raises(ValueError):
        euler_product(0, 1, 5)
    with pytest.raises(ValueError):
        euler_product(1, 0, 5)


def test_pentagonal_pattern_to_200():
    assert list(euler_product(1, 1, 200).coeffs) == pentagonal_coeffs(200)


def test_pentagonal_pattern_to_6000():
    assert list(euler_product(1, 1, 6000).coeffs) == pentagonal_coeffs(6000)


def test_cube_pentagonal_pattern():
    # (q^3; q^3) is (q; q) at q^3: the pentagonal pattern spread to multiples of 3
    order = 6000
    spread = [0] * order
    spread[::3] = pentagonal_coeffs(len(spread[::3]))
    assert list(euler_product(3, 3, order).coeffs) == spread


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 400))
def test_euler_product_matches_literal_product(a, m, order):
    assert euler_product(a, m, order) == _literal_euler_product(a, m, order)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 400))
def test_pentagonal_is_the_euler_product(m, order):
    assert pentagonal(m, order) == euler_product(m, m, order)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 400))
def test_jacobi_cube_is_the_cubed_euler_product(m, order):
    e = euler_product(m, m, order)
    assert jacobi_cube(m, order) == mul(mul(e, e), e)


def test_sparse_builders_spot_values():
    assert pentagonal(1, 13).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)
    assert pentagonal(2, 6).coeffs == (1, 0, -1, 0, -1, 0)
    assert jacobi_cube(1, 11).coeffs == (1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9)
    assert jacobi_cube(3, 10).coeffs == (1, 0, 0, -3, 0, 0, 0, 0, 0, 5)
    assert pentagonal(7, 1) == jacobi_cube(7, 1) == one(1)


@pytest.mark.parametrize("builder", [pentagonal, jacobi_cube])
def test_sparse_builders_validation(builder):
    with pytest.raises(ValueError):
        builder(0, 5)
    with pytest.raises(ValueError):
        builder(1, 0)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(st.integers(1, 300))
@example(1)
@example(300)
def test_core_tuple_series_matches_euler_quotient(t, k, order):
    assert core_tuple_series(t, k, order) == _euler_quotient(t, k, order)


def test_core_tuple_series_uses_only_the_sparse_factors(monkeypatch):
    # the dense Euler products are the oracle here, not the engine
    def refuse(*args):
        raise AssertionError("core_tuple_series called euler_product")
    monkeypatch.setattr("core3.series.euler_product", refuse)
    assert core_tuple_series(3, 3, 4).coeffs == (1, 3, 9, 13)


def test_core_tuple_series_spot_values():
    assert core_tuple_series(3, 1, 5).coeffs == (1, 1, 2, 0, 2)
    assert core_tuple_series(3, 2, 3).coeffs == (1, 2, 5)
    assert core_tuple_series(3, 3, 4).coeffs == (1, 3, 9, 13)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_core_tuple_series_nonnegative(t, k):
    s = core_tuple_series(t, k, 200)
    assert s[0] == 1
    assert all(c >= 0 for c in s.coeffs)


def test_pair_and_triple_series_are_convolution_powers():
    n = 120
    single = core_tuple_series(3, 1, n)
    assert core_tuple_series(3, 2, n) == mul(single, single)
    assert core_tuple_series(3, 3, n) == mul(mul(single, single), single)


def test_core_tuple_series_validation():
    with pytest.raises(ValueError):
        core_tuple_series(1, 1, 10)
    with pytest.raises(ValueError):
        core_tuple_series(3, 0, 10)


@pytest.mark.parametrize("order", [1, 50, 500])
def test_q_split(order):
    assert verify_q_split(order)
