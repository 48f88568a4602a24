import ast
import itertools
import math
import operator
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from semiforge import (AffineVass, Configuration, Mat, Shortener, Transition,
                       decide_finiteness, det, image, inverse, kernel, minimal_polynomial,
                       rank, reach_bounded, rref, DimensionMismatch, NotInvertible)
from semiforge import linalg, semigroup
from semiforge.linalg import _UNROLL_BUDGET, LinAlgError, _product, _reduced, stack
from semiforge.serialize import ParseError, automaton_from_json, generators_from_json
from conftest import ROT90, mat, random_rational, signed_perm_generators, table_from
from oracles import oracle_minimal_polynomial

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
        with pytest.raises(DimensionMismatch):
            Mat([[1, 2]], cols=3)
        empty = Mat([], cols=3)
        assert empty.rows == 0 and empty.cols == 3
        with pytest.raises(DimensionMismatch):
            mat([[1, 2]]) * mat([[1, 2]])
        with pytest.raises(DimensionMismatch):
            mat([[1]]) + mat([[1, 2]])
        for square_only in (inverse, det, minimal_polynomial):
            with pytest.raises(DimensionMismatch):
                square_only(mat([[1, 2]]))

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

    def test_repr_reads_back(self):
        # a matrix with no rows is left out: reading it back needs `cols`
        for m in (mat([[1, 2], [3, 4]]), mat([[F(1, 2), F(-2, 3)], [0, 5]]),
                  mat([[-7, F(-1, 6)]]), mat([[0, 0], [0, 0]]), Mat([()], cols=0)):
            assert repr(m).startswith("Mat([") and repr(m).endswith("])")
            assert Mat(ast.literal_eval(repr(m)[4:-1])) == m
        assert repr(mat([[F(1, 2), -1], [0, F(6, 4)]])) == "Mat([['1/2', '-1'], ['0', '3/2']])"

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
        a = image(Mat([[1, 1, 0], [0, 0, 1]]))
        b = image(Mat([[2, 2, 2], [0, 0, 5], [1, 1, 1]]))
        assert a == b and hash(a) == hash(b)
        # the basis carries the ambient dimension: equal ranks in different spaces differ
        assert image(Mat([], cols=2)) != image(Mat([], cols=3))
        assert image(Mat.identity(2)) != image(Mat([[1, 0, 0], [0, 1, 0]]))
        c = image(Mat([[0, 0, 3], [F(1, 2), F(1, 2), 0]]))
        assert c == a and hash(c) == hash(a)

    def test_contains(self):
        w = image(Mat([[1, 0, 1]]))
        assert w.coordinates(Mat([[2, 0, 2]])) == Mat([[2]])
        with pytest.raises(LinAlgError):
            w.coordinates(Mat([[1, 0, 0]]))

    def test_coords_roundtrip(self):
        w = image(Mat([[1, 0, 2], [0, 1, 3]]))
        assert w.coordinates(Mat([[2, 1, 7]])) == Mat([[2, 1]])
        with pytest.raises(LinAlgError):
            w.coordinates(Mat([[0, 0, 1]]))

    def test_zero_and_full(self):
        assert image(Mat([], cols=3)).dim == 0
        assert image(Mat.identity(3)).dim == 3

    def test_kernel_of_empty_shapes(self):
        # no rows: the kernel of Q^0; no columns: every x*A is the empty row
        assert kernel(Mat([], cols=3)) == image(Mat([], cols=0))
        assert kernel(Mat([(), ()], cols=0)) == image(Mat.identity(2))

    @given(matrices())
    def test_kernel_annihilates(self, m):
        k = kernel(m)
        for row in k.basis.data:
            assert not any((Mat([row]) * m).num)


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
        total = Mat([[0] * m.rows] * m.rows, cols=m.rows)
        power = Mat.identity(m.rows)
        for c in mu:
            total = total + c * power
            power = power * m
        assert not any(total.num)

    # the characteristic polynomial also annihilates and is monic; only the
    # former hand-written reduction pins minimality
    @settings(max_examples=60)
    @given(square_matrices(max_dim=4))
    @example(Mat.identity(0))
    def test_matches_the_hand_written_reduction(self, m):
        assert minimal_polynomial(m) == oracle_minimal_polynomial(m)


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


# Shapes on both sides of the compiled kernels' budget (square 6^3 and
# 7^3, a 1 x n row times n x n at n = 16 and 17, a 256-term sum and a
# 257-term one), the benchmark's largest product, lopsided ones, and zero
# dimensions.
PRODUCT_SHAPES = [
    (6, 6, 6), (7, 7, 7), (1, 16, 16), (1, 17, 17), (1, 256, 1), (1, 257, 1),
    (5, 7, 7), (16, 16, 16), (17, 17, 17), (8, 1, 8), (40, 3, 40), (3, 40, 3),
    (1, 5000, 1), (5000, 1, 1), (3, 0, 4), (0, 5, 3), (4, 5, 0), (0, 0, 0)]


def shape_id(shape):
    return "x".join(map(str, shape))


class TestAgainstFractionOracle:
    @given(st.tuples(dims, dims, dims).flatmap(
        lambda s: st.tuples(grids(s[0], s[1]), grids(s[1], s[2]), st.just(s))))
    def test_product(self, case):
        self.assert_product(*case)

    @staticmethod
    def assert_product(a, b, shape):
        r, k, c = shape
        p = Mat(a, cols=k) * Mat(b, cols=c)
        assert (p.rows, p.cols) == (r, c)
        assert p.data == as_tuples(oracle_mul(a, b, k, c))
        assert p == Mat(oracle_mul(a, b, k, c), cols=c)
        assert_lowest_terms(p)

    # With `big`, each matrix has entries with 30-digit numerators over one
    # 20-digit denominator, like those of a rationally conjugated group.
    # Besides the product of two such matrices, each shape multiplies one
    # by an integral matrix on either side, a zero matrix by one, and a
    # product that cancels a denominator: entries over q times multiples of
    # q over q + 1.
    @pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=shape_id)
    @pytest.mark.parametrize("big", [False, True], ids=["small", "big"])
    def test_product_shapes(self, shape, big):
        assert _UNROLL_BUDGET == 16 ** 2
        r, k, c = shape
        for build, name in ((_product, "<product"), (_reduced, "<reduced")):
            compiled = build(r, k, c).__code__.co_filename.startswith(name)
            assert compiled == (0 < r * k * c <= _UNROLL_BUDGET)
        rng = random.Random(f"{shape} {big}")

        def grid(rows, cols):
            if not big:
                return [[random_rational(rng, 5, 6) for _ in range(cols)] for _ in range(rows)]
            den = rng.randint(1, 10 ** 20)
            return [[F(rng.randint(-10 ** 30, 10 ** 30), den) for _ in range(cols)]
                    for _ in range(rows)]

        def integral(rows, cols):
            bound = 10 ** 30 if big else 5
            return [[F(rng.randint(-bound, bound)) for _ in range(cols)] for _ in range(rows)]

        a, b = grid(r, k), grid(k, c)
        q = rng.randint(2, 10 ** 6)
        over_q = [[F(rng.randint(-9, 9), q) for _ in range(k)] for _ in range(r)]
        multiples = [[F(q * rng.randint(-9, 9), q + 1) for _ in range(c)] for _ in range(k)]
        for x, y in ((a, b), (a, integral(k, c)), (integral(r, k), b), ([[F(0)] * k] * r, b),
                     (over_q, multiples)):
            self.assert_product(x, y, shape)

    def test_large_product_builds_no_slow_kernel(self):
        # the kernel is built past the cache, so the time includes making
        # it whichever test multiplied 64 x 64 matrices first
        rng = random.Random(64)
        a, b = ([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(64)] for _ in range(64)]
                for _ in range(2))
        A, B = Mat(a), Mat(b)
        start = time.monotonic()
        kernel = _product.__wrapped__(64, 64, 64)
        num = kernel(A.num, B.num)
        assert time.monotonic() - start < 0.5
        assert not kernel.__code__.co_filename.startswith("<product")
        p = A * B
        assert p.num == num
        assert p == Mat(oracle_mul(a, b, 64, 64))

    @given(st.tuples(dims, dims).flatmap(
        lambda s: st.tuples(grids(*s), grids(*s), st.just(s))),
        st.fractions(min_value=-4, max_value=4, max_denominator=5))
    # a zero scalar, int or Fraction, times a rational matrix gives 0 over 1
    @example(([[F(1, 2), F(-2, 3)]], [[F(1, 3), 0]], (1, 2)), 0)
    @example(([[F(1, 2), F(-2, 3)]], [[F(1, 3), 0]], (1, 2)), F(0))
    # summands over one denominator: a pair that cancels, a sum in lower terms
    @example(([[F(1, 6), F(1, 3)]], [[F(-1, 6), F(1, 6)]], (1, 2)), F(1, 2))
    @example(([[F(1, 4), F(-3, 4)]], [[F(-1, 4), F(3, 4)]], (1, 2)), F(1, 2))
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


class TestLowestTermsKernel:
    """A rational product leaves `_reduced`'s kernel in lowest terms;
    `test_product_shapes` and the Fraction products of `oracle_mul` check
    it shape by shape."""

    @given(st.tuples(dims, dims, dims).flatmap(lambda s: st.tuples(
        grids(s[0], s[1], st.fractions(min_value=-10 ** 30, max_value=10 ** 30,
                                       max_denominator=10 ** 12)),
        grids(s[1], s[2], st.fractions(min_value=-10 ** 30, max_value=10 ** 30,
                                       max_denominator=10 ** 12)),
        st.just(s))))
    @example(([[F(1, 2)]], [[F(2)]], (1, 1, 1)))
    @example(([[F(1, 2), F(1, 2)]], [[F(1, 3)], [F(-1, 3)]], (1, 2, 1)))
    @example(([[F(0), F(0)]], [[F(1, 3)], [F(1, 5)]], (1, 2, 1)))
    @example(([[F(1, 6), F(1, 4)], [F(1, 2), F(1, 3)]], [[F(2), F(0)], [F(0), F(4)]], (2, 2, 2)))
    def test_matches_fractions(self, case):
        TestAgainstFractionOracle.assert_product(*case)

    @pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=shape_id)
    def test_kernel_matches_the_loop(self, monkeypatch, shape):
        """The compiled kernel, against the loop and gcd that a zero budget
        selects; d = 1 passes through and all-zero products come out over 1."""
        r, k, c = shape
        kernel = _reduced(r, k, c)
        monkeypatch.setattr(linalg, "_UNROLL_BUDGET", 0)
        loop = _reduced.__wrapped__(r, k, c)
        assert not loop.__code__.co_filename.startswith("<reduced")
        rng = random.Random(f"loop {shape}")
        for _ in range(4):
            a = tuple(rng.randint(-10 ** 30, 10 ** 30) for _ in range(r * k))
            b = tuple(rng.randint(-10 ** 30, 10 ** 30) for _ in range(k * c))
            for d in (1, 2, rng.randint(2, 10 ** 20)):
                num, den = kernel(a, b, d)
                assert (num, den) == loop(a, b, d)
                assert type(num) is tuple and den > 0 and math.gcd(den, *num) == 1
                assert num == tuple(x // (d // den) for x in _product(r, k, c)(a, b))
            assert kernel((0,) * (r * k), b, 6) == ((0,) * (r * c), 1)

    def test_integral_paths_never_reach_it(self, monkeypatch):
        """Integral products, an integral word fold, a VASS search and the
        sweep's decide-and-shorten on 2 x 2 tables run without it."""
        def refuse(*shape):
            raise AssertionError(f"the lowest-terms kernel ran for {shape}")
        monkeypatch.setattr(linalg, "_reduced", refuse)
        monkeypatch.setattr(semigroup, "_reduced", refuse)
        rng = random.Random(35)
        for r, k, c in PRODUCT_SHAPES:
            a = Mat([[rng.randint(-5, 5) for _ in range(k)] for _ in range(r)], cols=k)
            b = Mat([[rng.randint(-5, 5) for _ in range(c)] for _ in range(k)], cols=c)
            assert (a * b).den == 1
        gens = signed_perm_generators(4)
        table = table_from(gens)
        word = [rng.choice(table.alphabet) for _ in range(200)]
        start = Mat([[rng.randint(-3, 3) for _ in range(4)]])
        assert table.evaluate(word, start).den == table.evaluate(word).den == 1
        V = AffineVass(2, ("p", "q"), (
            Transition("p", Mat.identity(2), (1, 0), "p"),
            Transition("p", mat([[0, 1], [1, 0]]), (0, 0), "q"),
            Transition("q", Mat.identity(2), (0, -1), "q")))
        assert reach_bounded(V, Configuration("p", (0, 0)), Configuration("q", (0, -2)),
                             10000).status == "reached"
        for gens in ([[[0, 1], [1, 0]], [[1, 0], [0, -1]]], [[[1, 1], [0, 1]]],
                     [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]):
            table = table_from(gens)
            if decide_finiteness(table, 61).status == "finite":
                shortener = Shortener(table, assume_finite=True)
                for w in itertools.product(table.alphabet, repeat=6):
                    assert table.evaluate(shortener.shorten(w)) == table.evaluate(w)


# what a compiled kernel's source may hold: names of one letter and digits,
# the keywords and names its lines use, decimal digits, operators and
# brackets; no quote, so no string, and no other literal
_KERNEL_TOKEN = re.compile(r"\b(?:[a-z][0-9]*|[0-9]+|def|return|if|gcd|product|reduced|charpoly)\b"
                           r"|//|==|[-+*/=,():\[\]\s]")


def test_kernel_sources_hold_only_indices(monkeypatch):
    """Every source compiled within the budget, for every product shape and
    every characteristic-polynomial size, is built from integer indices
    alone. `compile` is patched to keep each source and compile a stub."""
    sources = []

    def keep(source, filename, mode):
        sources.append((filename, source))
        name = source[4:source.index("(")]
        return compile(f"def {name}(*args): pass", filename, mode)
    monkeypatch.setattr(linalg, "compile", keep, raising=False)
    budget = _UNROLL_BUDGET
    shapes = [(r, k, c) for r in range(1, budget + 1) for k in range(1, budget // r + 1)
              for c in range(1, budget // (r * k) + 1)]
    for shape in shapes:
        linalg._product.__wrapped__(*shape)
        linalg._reduced.__wrapped__(*shape)
    sizes = [n for n in range(1, budget + 1) if n ** 3 <= budget]
    for n in sizes:
        semigroup._berkowitz.__wrapped__(n)
    assert len(sources) == 2 * len(shapes) + len(sizes) == 2 * 5136 + 6
    for filename, source in sources:
        assert re.fullmatch(r"<(product|reduced) \d+x\d+x\d+>|<charpoly \d>", filename)
        assert source.startswith(("def product(a, b):", "def reduced(a, b, d):",
                                  "def charpoly(e):"))
        assert not _KERNEL_TOKEN.sub("", source), filename


class TestEntries:
    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Mat([[0.1]])
        with pytest.raises(TypeError):
            Mat([[1, 2.0]])
        with pytest.raises(TypeError):
            Mat.identity(2) * 0.5

    def test_strings_are_entries_not_scalars(self):
        m = Mat([[1, 2], [3, 4]])
        for product in (lambda: m * "1/2", lambda: "3" * m, lambda: m * "x"):
            with pytest.raises(TypeError):
                product()
        assert m * Fraction(1, 2) == Fraction(1, 2) * m == Mat([[Fraction(1, 2), 1], ["3/2", 2]])
        assert m * 3 == 3 * m == Mat([[3, 6], [9, 12]])

    def test_sums_with_a_non_matrix_are_type_errors(self):
        m = Mat([[1, 2], [3, 4]])
        for op, symbol in ((operator.add, r"\+"), (operator.sub, "-")):
            for other in (1, "x", F(1, 2)):
                with pytest.raises(TypeError, match=f"for {symbol}: 'Mat'"):
                    op(m, other)
        assert m + m == 2 * m and m - m == Mat([[0, 0], [0, 0]])

    def test_ints_fractions_and_rational_strings(self):
        m = Mat([[1, F(1, 2), "-2/3"]])
        assert m.data == ((F(1), F(1, 2), F(-2, 3)),)
        assert (m.den, m.num) == (6, (6, 3, -4))

    def test_strings_follow_the_file_grammar(self):
        # the readers' grammar: ASCII digits, an optional '-' and '/q', nothing
        # around, a nonzero q; each case goes through Mat and both file readers
        def generator(s):
            return generators_from_json({"n": 1, "generators": {"a": {"entries": [[s]]}}})

        def automaton(s):
            return automaton_from_json({"n": 1, "alphabet": ["a"], "eta": ["1"], "alpha": [s],
                                        "transitions": {"a": {"entries": [["1"]]}}})
        assert Mat([["-0", "6/4", "007", "-4/6"]]) == Mat([[0, F(3, 2), 7, F(-2, 3)]])
        for good in ("-0", "6/4", "007", "-4/6", "12/1", "0/5"):
            m = Mat([[good]])
            assert generator(good).mapping["a"] == m == automaton(good).alpha
        bad = {s: "malformed rational" for s in (" 1", "1 ", "1.5", "1e3", "1_000", "\u0661",
                                                  "+1", "1/-2", "", "1/")}
        bad.update({s: "zero denominator in" for s in ("1/0", "-3/0", "0/0")})
        for s, message in bad.items():
            text = f"{message} {s!r}"
            with pytest.raises(ValueError) as raised:
                Mat([[1, s]])
            assert type(raised.value) is ValueError and str(raised.value) == text
            for read in (generator, automaton):
                with pytest.raises(ParseError) as raised:
                    read(s)
                assert str(raised.value).endswith(text)
        # a JSON value that is neither an integer nor a string
        for x in (1.5, True, None):
            with pytest.raises(TypeError, match="pass an int, a Fraction or a rational string"):
                Mat([[1, x]])
            for read in (generator, automaton):
                with pytest.raises(ParseError) as raised:
                    read(x)
                assert str(raised.value).endswith(f"expected a rational string, got {x!r}")

    def test_bools_are_neither_entries_nor_scalars(self):
        m = Mat([[1, 2], [3, 4]])
        for refused in (lambda: Mat([[True]]), lambda: Mat([[1, False]]),
                        lambda: True * m, lambda: m * False):
            with pytest.raises(TypeError):
                refused()
