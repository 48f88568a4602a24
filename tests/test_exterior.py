import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semiforge import Mat, image, trivial_intersection
from semiforge.exterior import AmbientMismatch
from conftest import rank_oracle_trivial
from oracles import MultiVector, _merge_indices, iota, wedge

F = Fraction

vec3 = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                min_size=3, max_size=3)


def test_merge_indices():
    assert _merge_indices((0, 2), (1,)) == ((0, 1, 2), -1)
    assert _merge_indices((0,), (1, 2)) == ((0, 1, 2), 1)
    assert _merge_indices((1,), (1,)) == (None, 0)
    assert _merge_indices((), (0, 3)) == ((0, 3), 1)


def test_wedge_example():
    e0 = MultiVector.from_row([1, 0, 0])
    e1 = MultiVector.from_row([0, 1, 0])
    assert wedge(e0, e1).coeffs == {(0, 1): F(1)}
    assert wedge(e1, e0).coeffs == {(0, 1): F(-1)}


@given(vec3, vec3)
def test_antisymmetry(u, v):
    uv = wedge(MultiVector.from_row(u), MultiVector.from_row(v))
    vu = wedge(MultiVector.from_row(v), MultiVector.from_row(u))
    assert uv.coeffs == {k: -c for k, c in vu.coeffs.items()}


@given(vec3)
def test_self_wedge_vanishes(v):
    mv = MultiVector.from_row(v)
    assert wedge(mv, mv).is_zero


@given(vec3, vec3, vec3)
def test_bilinear_in_first_argument(u, v, w):
    mu, mv, mw = (MultiVector.from_row(x) for x in (u, v, w))
    s = [a + b for a, b in zip(u, v)]
    left = wedge(MultiVector.from_row(s), mw)
    right = wedge(mu, mw).coeffs.copy()
    for k, c in wedge(mv, mw).coeffs.items():
        right[k] = right.get(k, F(0)) + c
    assert left.coeffs == {k: c for k, c in right.items() if c}


def test_grade_overflow_is_zero():
    full = iota(image(Mat.identity(2)))
    assert wedge(full, MultiVector.from_row([1, 1])).is_zero


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        wedge(MultiVector.from_row([1]), MultiVector.from_row([1, 0]))
    with pytest.raises(AmbientMismatch):
        trivial_intersection(image(Mat([], cols=2)), image(Mat([], cols=3)))


def test_iota_zero_subspace_is_unit():
    z = iota(image(Mat([], cols=3)))
    assert z.grade == 0 and z.coeffs == {(): F(1)}


def test_iota_is_canonical():
    a = image(Mat([[2, 2, 0], [0, 0, 3]]))
    b = image(Mat([[1, 1, 1], [1, 1, 0]]))
    assert a == b
    assert iota(a) == iota(b)


def _all_01_subspaces(n):
    vectors = [v for v in itertools.product((0, 1), repeat=n) if any(v)]
    seen = {}
    for r in range(len(vectors) + 1):
        for subset in itertools.combinations(vectors, r):
            w = image(Mat(subset, cols=n))
            seen.setdefault(w.basis, w)
    return list(seen.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trivial_intersection_matches_rank_oracle(n):
    spaces = _all_01_subspaces(n)
    for w1 in spaces:
        for w2 in spaces:
            got = trivial_intersection(w1, w2)
            assert got == rank_oracle_trivial(w1, w2)
            assert got == (not wedge(iota(w1), iota(w2)).is_zero)
