import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semiforge import (Mat, Subspace, det, image, inverse,
                       kernel, minimal_polynomial, rank, rref,
                       DimensionMismatch, NotInvertible)
from semiforge.linalg import LinAlgError, stack
from conftest import ROT90, mat, random_rational

F = Fraction

entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(st.lists(entry, min_size=m, max_size=m),
                               min_size=n, max_size=n).map(Mat)))


def square_matrices(max_dim=3):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(Mat))


class TestMat:
    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            Mat([[1, 2], [3]])
        with pytest.raises(DimensionMismatch):
            Mat([], cols=None)
        empty = Mat([], cols=3)
        assert empty.rows == 0 and empty.cols == 3

    def test_product_example(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert a * b == mat([[2, 1], [4, 3]])
        assert 2 * a == mat([[2, 4], [6, 8]])
        assert a * F(1, 2) == mat([[F(1, 2), 1], [F(3, 2), 2]])

    def test_zero_width_product(self):
        a = Mat([(), ()], cols=0)
        b = Mat([], cols=2)
        assert (a * b).data == ((F(0), F(0)), (F(0), F(0)))

    def test_key_distinguishes(self):
        seen = {}
        for rows in itertools.product([0, 1, -1, F(1, 2)], repeat=4):
            m = Mat([rows[:2], rows[2:]])
            assert seen.setdefault(m, m) == m
        assert len(seen) == 256

    @given(square_matrices(), square_matrices())
    def test_hash_eq_consistent(self, a, b):
        if a == b:
            assert hash(a) == hash(b)
        else:
            assert a != b


class TestRref:
    def test_example(self):
        res = rref(mat([[2, 4, 0], [1, 2, 1]]))
        assert res.matrix == mat([[1, 2, 0], [0, 0, 1]])
        assert res.pivots == (0, 2)
        assert res.rank == 2

    @given(matrices())
    def test_idempotent(self, m):
        once = rref(m)
        again = rref(once.matrix)
        assert once.matrix == again.matrix
        assert once.rank == again.rank

    @given(matrices())
    def test_row_space_preserved(self, m):
        r = rref(m).matrix
        assert image(m) == image(r)

    @given(matrices())
    def test_rank_nullity(self, m):
        assert rank(m) + kernel(m).dim == m.rows

    @given(matrices())
    def test_rank_of_transpose(self, m):
        assert rank(m) == rank(m.transpose())


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace.from_rows(3, [[1, 1, 0], [0, 0, 1]])
        b = Subspace.from_rows(3, [[2, 2, 2], [0, 0, 5], [1, 1, 1]])
        assert a == b and hash(a) == hash(b)

    def test_contains(self):
        w = Subspace.from_rows(3, [[1, 0, 1]])
        assert w.contains([2, 0, 2])
        assert not w.contains([1, 0, 0])

    def test_coords_roundtrip(self):
        w = Subspace.from_rows(3, [[1, 0, 2], [0, 1, 3]])
        assert w.coordinates(Mat.row_vector([2, 1, 7])) == Mat.row_vector([2, 1])
        with pytest.raises(LinAlgError):
            w.coordinates(Mat.row_vector([0, 0, 1]))

    def test_zero_and_full(self):
        assert Subspace.zero(3).dim == 0
        assert Subspace.full(3).dim == 3

    @given(matrices())
    def test_kernel_annihilates(self, m):
        k = kernel(m)
        for row in k.basis.data:
            assert (Mat.row_vector(row) * m).is_zero()


class TestInverseDet:
    def test_inverse_example(self):
        assert inverse(ROT90) == mat([[0, 1], [-1, 0]])
        with pytest.raises(NotInvertible):
            inverse(mat([[1, 1], [1, 1]]))

    def test_inverse_of_the_0x0_matrix(self):
        # eliminating the empty [N | I] finds no pivot, and none is needed
        assert inverse(Mat.identity(0)) == Mat.identity(0)

    @given(square_matrices())
    def test_det_zero_iff_singular(self, m):
        assert (det(m) == 0) == (rank(m) < m.rows)

    @given(square_matrices(), square_matrices())
    def test_det_multiplicative(self, a, b):
        if a.rows == b.rows:
            assert det(a * b) == det(a) * det(b)

    @given(square_matrices())
    def test_inverse_roundtrip(self, m):
        if det(m) != 0:
            assert m * inverse(m) == Mat.identity(m.rows)


class TestMinimalPolynomial:
    def test_rotation(self):
        # x^2 + 1, constant term first
        assert minimal_polynomial(ROT90) == (F(1), F(0), F(1))

    def test_identity_and_nilpotent(self):
        assert minimal_polynomial(Mat.identity(3)) == (F(-1), F(1))
        assert minimal_polynomial(mat([[0, 1], [0, 0]])) == (F(0), F(0), F(1))

    def test_projection(self):
        # x^2 - x
        assert minimal_polynomial(mat([[1, 0], [0, 0]])) == (F(0), F(-1), F(1))

    @settings(max_examples=40)
    @given(square_matrices())
    def test_annihilates_and_is_monic(self, m):
        mu = minimal_polynomial(m)
        assert mu[-1] == 1
        total = Mat.zeros(m.rows, m.rows)
        power = Mat.identity(m.rows)
        for c in mu:
            total = total + c * power
            power = power * m
        assert total.is_zero()


def test_stack():
    s = stack(mat([[1, 2]]), mat([[3, 4]]))
    assert s == mat([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        stack(mat([[1]]), mat([[1, 2]]))


# ------------------------------------------- oracle for the integer representation
#
# Plain Fraction loops, independent of Mat's numerators-over-one-denominator
# storage and of its fraction-free elimination. `oracle_rref` is the
# Gauss-Jordan rref the library used before elimination moved to integers.

def oracle_mul(a, b, inner, cols):
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), F(0)) for j in range(cols)]
            for i in range(len(a))]


def oracle_rref(a, ncols):
    m = [list(r) for r in a]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def oracle_det(a):
    n = len(a)
    m = [list(r) for r in a]
    result = F(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return F(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def grids(rows, cols, entries=st.fractions(min_value=-5, max_value=5, max_denominator=6)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


dims = st.integers(0, 4)


def as_tuples(grid):
    return tuple(tuple(r) for r in grid)


def assert_lowest_terms(m):
    assert m.den > 0
    assert math.gcd(m.den, *m.num) == 1
    assert m.is_integral() == all(x.denominator == 1 for r in m.data for x in r)


class TestAgainstFractionOracle:
    @given(st.tuples(dims, dims, dims).flatmap(
        lambda s: st.tuples(grids(s[0], s[1]), grids(s[1], s[2]), st.just(s))))
    def test_product(self, case):
        a, b, (r, k, c) = case
        p = Mat(a, cols=k) * Mat(b, cols=c)
        assert (p.rows, p.cols) == (r, c)
        assert p.data == as_tuples(oracle_mul(a, b, k, c))
        assert p == Mat(oracle_mul(a, b, k, c), cols=c)
        assert_lowest_terms(p)

    @given(st.tuples(dims, dims).flatmap(
        lambda s: st.tuples(grids(*s), grids(*s), st.just(s))),
        st.fractions(min_value=-4, max_value=4, max_denominator=5))
    def test_sum_scalar_transpose(self, case, s):
        a, b, (r, c) = case
        A, B = Mat(a, cols=c), Mat(b, cols=c)
        total = A + B
        assert total.data == as_tuples([[x + y for x, y in zip(u, v)] for u, v in zip(a, b)])
        assert (A - B).data == as_tuples([[x - y for x, y in zip(u, v)] for u, v in zip(a, b)])
        assert (s * A).data == (A * s).data == as_tuples([[s * x for x in u] for u in a])
        t = A.transpose()
        assert (t.rows, t.cols) == (c, r)
        assert t.data == as_tuples([[a[i][j] for i in range(r)] for j in range(c)])
        for m in (total, s * A, t):
            assert_lowest_terms(m)

    @given(st.tuples(dims, dims).flatmap(lambda s: st.tuples(grids(*s), st.just(s))))
    def test_rref_and_rank(self, case):
        a, (r, c) = case
        expected, pivots = oracle_rref(a, c)
        res = rref(Mat(a, cols=c))
        assert res.matrix.data == as_tuples(expected)
        assert res.pivots == pivots
        assert res.rank == rank(Mat(a, cols=c)) == len(pivots)
        assert_lowest_terms(res.matrix)

    def test_rank_of_low_rank_products(self):
        # random fractions are nearly always of full rank; an n x k times
        # k x m product has rank at most k, so every k up to min(n, m)
        # gives rank-deficient input, 0-row and 0-column shapes included
        rng = random.Random(14)
        deficient = 0
        for n, m in itertools.product(range(6), repeat=2):
            for k in range(min(n, m) + 1):
                for _ in range(3):
                    a = [[random_rational(rng) for _ in range(k)] for _ in range(n)]
                    b = [[random_rational(rng) for _ in range(m)] for _ in range(k)]
                    p = oracle_mul(a, b, k, m)
                    expected = len(oracle_rref(p, m)[1])
                    assert rank(Mat(p, cols=m)) == rank(Mat(a, cols=k) * Mat(b, cols=m)) == expected
                    assert expected <= k
                    deficient += 0 < expected < min(n, m)
        assert deficient >= 80

    @given(dims.flatmap(lambda n: grids(n, n)))
    def test_det_and_inverse(self, a):
        n = len(a)
        A = Mat(a, cols=n)
        assert det(A) == oracle_det(a)
        aug = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
        reduced, pivots = oracle_rref(aug, 2 * n)
        if pivots[:n] != tuple(range(n)):
            with pytest.raises(NotInvertible):
                inverse(A)
        else:
            inv = inverse(A)
            assert inv.data == as_tuples([r[n:] for r in reduced])
            assert_lowest_terms(inv)

    @given(st.tuples(dims, dims).flatmap(lambda s: st.tuples(grids(*s), st.just(s))),
           st.integers(1, 30))
    def test_equal_values_hash_equal(self, case, scale):
        a, (r, c) = case
        A = Mat(a, cols=c)
        # the same values reached through strings, a detour through a
        # scaling and a product with the identity
        for B in (Mat([[str(x) for x in row] for row in a], cols=c),
                  F(1, scale) * (scale * A),
                  A * Mat.identity(c)):
            assert B == A and hash(B) == hash(A)
            assert (B.den, B.num) == (A.den, A.num)
        assert_lowest_terms(A)


class TestEntries:
    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Mat([[0.1]])
        with pytest.raises(TypeError):
            Mat([[1, 2.0]])
        with pytest.raises(TypeError):
            Mat.identity(2) * 0.5

    def test_ints_fractions_and_rational_strings(self):
        m = Mat([[1, F(1, 2), "-2/3"]])
        assert m.data == ((F(1), F(1, 2), F(-2, 3)),)
        assert (m.den, m.num) == (6, (6, 3, -4))
