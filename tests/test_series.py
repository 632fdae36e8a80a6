from hypothesis import given
from hypothesis import strategies as st

import pytest

from _series import TruncatedSeries

coeff_lists = st.lists(st.integers(min_value=-10**20, max_value=10**20),
                       min_size=1, max_size=9)


def make(coeffs, deg):
    return TruncatedSeries.from_coefficients(coeffs, deg)


def test_construction_and_access():
    s = make([1, 2, 3], 4)
    assert s.coefficients == (1, 2, 3, 0, 0)
    assert s.coefficient(2) == 3
    assert s.coefficient(99) == 0
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_addition_exact():
    a = make([10**30, 1], 2)
    b = make([10**30, -1], 2)
    assert (a + b).coefficients == (2 * 10**30, 0, 0)


def test_multiplication_truncates():
    a = make([0, 1], 2)          # z
    b = make([0, 0, 1], 2)       # z^2
    assert (a * b).coefficients == (0, 0, 0)  # z^3 truncated away
    c = make([1, 1], 3)
    assert (c * c).coefficients == (1, 2, 1, 0)


def test_scalar_multiplication():
    s = make([1, -2, 3], 2) * 5
    assert s.coefficients == (5, -10, 15)


@given(coeff_lists, coeff_lists)
def test_product_commutes(xs, ys):
    deg = max(len(xs), len(ys))
    a, b = make(xs, deg), make(ys, deg)
    assert (a * b).coefficients == (b * a).coefficients


@given(coeff_lists, coeff_lists, coeff_lists)
def test_distributive(xs, ys, zs):
    deg = max(len(xs), len(ys), len(zs))
    a, b, c = make(xs, deg), make(ys, deg), make(zs, deg)
    assert (a * (b + c)).coefficients == (a * b + a * c).coefficients


@given(coeff_lists)
def test_big_integer_exactness(xs):
    deg = len(xs)
    big = make([x * 10**18 for x in xs], deg)
    doubled = big + big
    assert all(d == 2 * c for d, c in zip(doubled.coefficients,
                                          big.coefficients))
