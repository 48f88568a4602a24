from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semiforge import polys
from conftest import cyclotomic

F = Fraction

coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
poly = st.lists(coeff, max_size=6).map(polys.trim)
nonzero_poly = poly.filter(lambda p: p != polys.ZERO)


def test_trim_drops_trailing_zeros():
    assert polys.trim([1, 2, 0, 0]) == (F(1), F(2))
    assert polys.trim([0, 0]) == polys.ZERO
    assert polys.degree(polys.ZERO) == -1


def test_mul_example():
    # (1 + x)(1 - x) = 1 - x^2
    assert polys.mul((F(1), F(1)), (F(1), F(-1))) == (F(1), F(0), F(-1))


def test_divmod_example():
    # x^3 - 1 = (x - 1)(x^2 + x + 1)
    p = (F(-1), F(0), F(0), F(1))
    q = (F(-1), F(1))
    quo, rem = polys.divmod_poly(p, q)
    assert quo == (F(1), F(1), F(1))
    assert rem == polys.ZERO


def test_division_by_zero_and_constant_moduli_are_refused():
    with pytest.raises(ZeroDivisionError):
        polys.divmod_poly((F(1),), polys.ZERO)
    with pytest.raises(ValueError):
        polys.pow_x_mod(3, (F(2),))


@given(poly, nonzero_poly)
def test_divmod_reconstructs(p, q):
    quo, rem = polys.divmod_poly(p, q)
    assert polys.add(polys.mul(quo, q), rem) == p
    assert polys.degree(rem) < polys.degree(q)


@given(poly, poly)
def test_gcd_divides_both(p, q):
    g = polys.gcd(p, q)
    if g == polys.ZERO:
        assert p == polys.ZERO and q == polys.ZERO
        return
    assert polys.mod(p, g) == polys.ZERO
    assert polys.mod(q, g) == polys.ZERO
    assert g[-1] == 1


def test_derivative():
    # d/dx (3 + 2x + x^2) = 2 + 2x
    assert polys.derivative((F(3), F(2), F(1))) == (F(2), F(2))


@given(st.integers(min_value=0, max_value=200), nonzero_poly.filter(lambda p: polys.degree(p) >= 1))
def test_pow_x_mod_matches_naive(e, q):
    naive = polys.ONE
    for _ in range(e):
        naive = polys.mod(polys.mul(naive, polys.X), q)
    assert polys.pow_x_mod(e, q) == naive


def test_cyclotomic_builder():
    assert cyclotomic(1) == (F(-1), F(1))
    assert cyclotomic(2) == (F(1), F(1))
    assert cyclotomic(4) == (F(1), F(0), F(1))
    assert cyclotomic(6) == (F(1), F(-1), F(1))
    # product over divisors of 12 rebuilds x^12 - 1
    product = polys.ONE
    for d in (1, 2, 3, 4, 6, 12):
        product = polys.mul(product, cyclotomic(d))
    assert product == polys.trim([F(-1)] + [F(0)] * 11 + [F(1)])
