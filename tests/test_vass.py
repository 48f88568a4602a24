import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

import semiforge.vass
from semiforge import (AffineVass, Configuration, Mat, Transition, check_fmp,
                       reach_bounded, step)
from semiforge.linalg import _UNROLL_BUDGET
from semiforge.vass import transition_matrices
from conftest import mat
from oracles import oracle_reach_bounded


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

    @pytest.mark.parametrize("offset", [(0.5,), (True,), ("1",)])
    def test_non_integer_offset_refused(self, offset):
        with pytest.raises(ValueError, match="offset entries must be integers"):
            AffineVass(1, ("q",), (Transition("q", Mat.identity(1), offset, "q"),))

    def test_step_applies_matrix_then_offset(self):
        V = two_state_machine()
        # successors come in transition-index order
        assert step(V, Configuration("p", (3, 5))) == [
            Configuration("p", (4, 5)), Configuration("q", (5, 3))]
        assert step(V, Configuration("q", (0, 0))) == [Configuration("q", (0, -1))]
        assert step(AffineVass(0, ("q",), ()), Configuration("q", ())) == []

    def test_apply_column_convention(self):
        t = Transition("q", mat([[2, 1], [0, 1]]), (0, 3), "q")
        V = AffineVass(2, ("q",), (t,))
        assert step(V, Configuration("q", (1, 1))) == [Configuration("q", (3, 4))]

    @pytest.mark.parametrize("config", [
        Configuration("r", (0, 0)),       # state not in the model
        Configuration("p", (7,)),         # too short: once read as (8, 0)
        Configuration("p", (1, 2, 3)),    # too long: once truncated
        Configuration("p", (0.5, 0)),     # floats are never coerced
        Configuration("p", (True, 0)),    # nor bools
        Configuration("p", ("1", 0)),
    ])
    def test_malformed_configuration_refused(self, config):
        V = two_state_machine()
        good = Configuration("p", (0, 0))
        with pytest.raises(ValueError, match="configuration"):
            step(V, config)
        with pytest.raises(ValueError, match="configuration"):
            reach_bounded(V, config, good, budget=10)
        with pytest.raises(ValueError, match="configuration"):
            reach_bounded(V, good, config, budget=10)

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
            c = Configuration(t.target, oracle_apply(t, c.vector))
        assert c == target


# ------------------------------------------- differential against the oracle

def random_vass(rng, d=None):
    """1-3 states, d = 0..3 unless given, up to 5 transitions whose matrices
    are zero, identity or small random integers. The last state has no
    incoming transition when there are at least two states."""
    if d is None:
        d = rng.randint(0, 3)
    states = tuple(f"s{k}" for k in range(rng.randint(1, 3)))
    targets = states[:-1] if len(states) > 1 else states
    transitions = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(("zero", "identity", "random", "random"))
        if kind == "zero":
            A = Mat.zeros(d, d)
        elif kind == "identity":
            A = Mat.identity(d)
        else:
            A = Mat([[rng.randint(-1, 2) for _ in range(d)] for _ in range(d)], cols=d)
        offset = tuple(rng.randint(-2, 2) for _ in range(d))
        transitions.append(Transition(rng.choice(states), A, offset, rng.choice(targets)))
    return AffineVass(d, states, tuple(transitions))


def random_target(rng, V, source):
    """The source itself, the end of a short random walk, a random
    configuration, or one in a state nothing enters."""
    kind = rng.choice(("source", "walk", "walk", "random", "unentered"))
    if kind == "source":
        return source
    if kind == "walk":
        c = source
        for _ in range(rng.randint(1, 6)):
            out = [t for t in V.transitions if t.source == c.state]
            if not out:
                break
            t = rng.choice(out)
            c = Configuration(t.target, oracle_apply(t, c.vector))
        return c
    state = V.states[-1] if kind == "unentered" else rng.choice(V.states)
    return Configuration(state, tuple(rng.randint(-3, 3) for _ in range(V.d)))


def test_reach_matches_the_scanning_loop():
    rng = random.Random(2019)
    reached = 0
    for _ in range(300):
        V = random_vass(rng)
        source = Configuration(rng.choice(V.states),
                               tuple(rng.randint(-2, 2) for _ in range(V.d)))
        target = random_target(rng, V, source)
        for budget in (0, 1, 7, 300):
            got = reach_bounded(V, source, target, budget)
            want = oracle_reach_bounded(V, source, target, budget)
            assert (got.status, got.path) == (want.status, want.path), (V, source, target, budget)
            reached += got.status == "reached"
    assert 200 < reached < 1000  # both answers are well represented


@pytest.mark.parametrize("d", [0, 16])
def test_both_kernel_paths_match_the_oracles(d):
    # a step is the row (v, 1) times the (d+1) x (d+1) numerators H: at
    # d = 16 that is 1 x 17 x 17 = 289 multiplications, past the unrolled
    # kernel's budget, so the generic loop runs; at d = 0, H = (1,)
    assert ((d + 1) ** 2 > _UNROLL_BUDGET) == (d == 16)
    rng = random.Random(1729 + d)
    reached = 0
    for _ in range(40):
        V = random_vass(rng, d)
        source = Configuration(rng.choice(V.states),
                               tuple(rng.randint(-2, 2) for _ in range(d)))
        assert step(V, source) == [Configuration(t.target, oracle_apply(t, source.vector))
                                   for t in V.transitions if t.source == source.state]
        target = random_target(rng, V, source)
        for budget in (0, 1, 7, 60):
            got = reach_bounded(V, source, target, budget)
            want = oracle_reach_bounded(V, source, target, budget)
            assert (got.status, got.path) == (want.status, want.path), (V, source, target, budget)
            reached += got.status == "reached"
    assert 20 < reached < 150  # both answers are well represented


@pytest.mark.parametrize("budget", [0, 1, 2000])
def test_unentered_target_spends_the_whole_budget(monkeypatch, budget):
    # nothing enters z, so no configuration in z is reachable, and the
    # search still spends every dequeue it is given: a shortcut would
    # change which queries a budget answers
    dequeued = []

    class CountingDeque(deque):
        def popleft(self):
            dequeued.append(1)
            return super().popleft()

    monkeypatch.setattr(semiforge.vass, "deque", CountingDeque)
    M = two_state_machine()
    V = AffineVass(2, ("p", "q", "z"),
                   M.transitions + (Transition("z", Mat.identity(2), (0, 0), "p"),))
    result = reach_bounded(V, Configuration("p", (0, 0)), Configuration("z", (0, 0)), budget)
    assert result.status == "not_within_budget"
    assert len(dequeued) == budget


# `oracle_apply` is the Fraction loop the successor rule ran before it
# moved to integer dot products.

def oracle_apply(t, v):
    rows = t.matrix.data  # rebuilt on each read, so read once
    return tuple(int(sum(rows[i][j] * v[j] for j in range(len(v)))) + t.offset[i]
                 for i in range(len(v)))


@st.composite
def transitions_and_vectors(draw):
    d = draw(st.integers(0, 3))
    entries = st.lists(st.integers(-5, 5), min_size=d, max_size=d)
    # one case in three is a translation, which `step` runs like any other
    # transition: the row (v, 1) times H = [[I, 0], [b, 1]]
    if draw(st.integers(0, 2)) == 0:
        A = Mat.identity(d)
    else:
        A = Mat(draw(st.lists(entries, min_size=d, max_size=d)), cols=d)
    t = Transition("q", A, tuple(draw(entries)), "q")
    return t, tuple(draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d)))


@given(transitions_and_vectors())
def test_apply_matches_the_fraction_loop(case):
    t, v = case
    (c,) = step(AffineVass(len(v), ("q",), (t,)), Configuration("q", v))
    assert c == Configuration("q", oracle_apply(t, v))
    assert all(type(x) is int for x in c.vector)


def test_deep_path_matches_the_scanning_loop():
    # 752 steps: the answer is rebuilt from parent links, and the ties
    # between equally short paths still go to the least indices
    one = Mat.identity(1)
    V = AffineVass(1, ("p", "q"), (
        Transition("p", one, (1,), "p"),
        Transition("p", one, (0,), "q"),
        Transition("q", one, (2,), "q"),
        Transition("q", one, (1,), "p"),
    ))
    source, target = Configuration("p", (0,)), Configuration("q", (1501,))
    got = reach_bounded(V, source, target, 5000)
    assert got == oracle_reach_bounded(V, source, target, 5000)
    assert got.path == (0, 1) + (2,) * 750
