import pytest
from hypothesis import given, strategies as st

from semiforge import (AffineVass, Configuration, Mat, Transition, check_fmp,
                       reach_bounded, step)
from semiforge.vass import transition_matrices, _apply
from conftest import mat


def counter_machine():
    """One state, one counter, a +1 loop."""
    t = Transition("q", Mat.identity(1), (1,), "q")
    return AffineVass(1, ("q",), (t,))


def two_state_machine():
    ident = Mat.identity(2)
    return AffineVass(2, ("p", "q"), (
        Transition("p", ident, (1, 0), "p"),
        Transition("p", mat([[0, 1], [1, 0]]), (0, 0), "q"),
        Transition("q", ident, (0, -1), "q"),
    ))


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            AffineVass(1, ("q",), (Transition("q", Mat.identity(1), (1,), "r"),))
        with pytest.raises(ValueError):
            AffineVass(2, ("q",), (Transition("q", Mat.identity(1), (1,), "q"),))
        with pytest.raises(ValueError):
            AffineVass(1, ("q",), (Transition("q", mat([["1/2"]]), (1,), "q"),))
        with pytest.raises(ValueError):
            AffineVass(1, ("q",), (Transition("q", Mat.identity(1), (1, 2), "q"),))

    def test_step_applies_matrix_then_offset(self):
        V = two_state_machine()
        successors = step(V, Configuration("p", (3, 5)))
        assert Configuration("p", (4, 5)) in successors
        assert Configuration("q", (5, 3)) in successors
        assert step(V, Configuration("q", (0, 0))) == [Configuration("q", (0, -1))]

    def test_apply_column_convention(self):
        t = Transition("q", mat([[2, 1], [0, 1]]), (0, 3), "q")
        assert _apply(t, (1, 1)) == (3, 4)

    def test_transition_matrices_dedupe(self):
        V = two_state_machine()
        table = transition_matrices(V)
        assert len(table.alphabet) == 2  # identity appears twice


class TestFmp:
    def test_identity_updates_are_finite(self):
        assert check_fmp(counter_machine()).status == "finite"
        assert check_fmp(two_state_machine()).status == "finite"

    def test_doubling_update_is_infinite(self):
        V = AffineVass(1, ("q",), (Transition("q", mat([[2]]), (0,), "q"),))
        verdict = check_fmp(V)
        assert verdict.status == "infinite"

    def test_no_transitions(self):
        assert check_fmp(AffineVass(1, ("q",), ())).status == "finite"


class TestReach:
    def test_counter_path(self):
        V = counter_machine()
        result = reach_bounded(V, Configuration("q", (0,)),
                               Configuration("q", (5,)), budget=10)
        assert result.status == "reached"
        assert result.path == (0,) * 5

    def test_source_equals_target(self):
        V = counter_machine()
        result = reach_bounded(V, Configuration("q", (0,)),
                               Configuration("q", (0,)), budget=0)
        assert result.status == "reached" and result.path == ()

    def test_budget_exhaustion(self):
        V = counter_machine()
        result = reach_bounded(V, Configuration("q", (0,)),
                               Configuration("q", (5,)), budget=3)
        assert result.status == "not_within_budget"
        assert result.path is None
        with pytest.raises(ValueError):
            reach_bounded(V, Configuration("q", (0,)),
                          Configuration("q", (5,)), budget=-1)

    def test_state_change_path_replays(self):
        V = two_state_machine()
        source = Configuration("p", (0, 0))
        target = Configuration("q", (0, 1))
        result = reach_bounded(V, source, target, budget=200)
        assert result.status == "reached"
        c = source
        for i in result.path:
            t = V.transitions[i]
            assert t.source == c.state
            c = Configuration(t.target, _apply(t, c.vector))
        assert c == target


# `oracle_apply` is the Fraction loop `_apply` ran before it moved to
# integer dot products.

def oracle_apply(t, v):
    return tuple(int(sum(t.matrix.data[i][j] * v[j] for j in range(len(v)))) + t.offset[i]
                 for i in range(len(v)))


@st.composite
def transitions_and_vectors(draw):
    d = draw(st.integers(0, 3))
    entries = st.lists(st.integers(-5, 5), min_size=d, max_size=d)
    t = Transition("q", Mat(draw(st.lists(entries, min_size=d, max_size=d)), cols=d),
                   tuple(draw(entries)), "q")
    return t, tuple(draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d)))


@given(transitions_and_vectors())
def test_apply_matches_the_fraction_loop(case):
    t, v = case
    w = _apply(t, v)
    assert w == oracle_apply(t, v)
    assert all(type(x) is int for x in w)
    V = AffineVass(len(v), ("q",), (t,))
    assert step(V, Configuration("q", v)) == [Configuration("q", w)]
