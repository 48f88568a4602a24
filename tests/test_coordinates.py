"""`Subspace.coordinates`: the one pivot-column coordinate read, shared by
`shortener.cycle_rep` and weighted-automaton minimization."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semiforge import Mat, Subspace, image, rank
from semiforge.linalg import DimensionMismatch, LinAlgError, stack

F = Fraction

rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def spaces_and_combinations(draw):
    """A subspace of Q^n and a matrix of coefficient rows for its basis."""
    n = draw(st.integers(0, 4))
    row = st.lists(rationals, min_size=n, max_size=n)
    W = image(Mat(draw(st.lists(row, max_size=4)), cols=n))
    k = draw(st.integers(0, 3))
    C = Mat(draw(st.lists(st.lists(rationals, min_size=W.dim, max_size=W.dim),
                          min_size=k, max_size=k)), cols=W.dim)
    return W, C


@given(spaces_and_combinations())
def test_reads_back_the_coefficients(case):
    W, C = case
    assert W.coordinates(C * W.basis) == C


@given(spaces_and_combinations(), st.data())
def test_rejects_a_row_outside_the_space(case, data):
    W, C = case
    n = W.ambient_dim
    units = [Mat([[int(i == j) for i in range(n)]]) for j in range(n)]
    outside = [u for u in units if rank(stack(W.basis, u)) > W.dim]
    if not outside:
        return  # W is all of Q^n
    unit = data.draw(st.sampled_from(outside))
    rows = C * W.basis
    M = Mat(list(rows.data) + list(unit.data), cols=n)
    with pytest.raises(LinAlgError):
        W.coordinates(M)
    assert not W.contains(unit.data[0])


def test_known_case():
    W = Subspace.from_rows(3, [[1, 0, 2], [0, 1, 3]])
    assert W.coordinates(Mat([[2, 1, 7], [0, 0, 0]])) == Mat([[2, 1], [0, 0]])
    with pytest.raises(LinAlgError):
        W.coordinates(Mat([[2, 1, 7], [0, 0, 1]]))
    with pytest.raises(DimensionMismatch):
        W.coordinates(Mat([[1, 0]]))
