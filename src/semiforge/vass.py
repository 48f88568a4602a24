"""Affine integer VASS: configurations, step semantics, the finite monoid
property check, and bounded-budget reachability exploration.

A step runs in homogeneous coordinates: the update v -> A v + b is the
linear map [[A, b], [0, 1]] on (v, 1), so every transition, a translation
included, is one (d+1)-dimensional product of the row (v, 1) and the
numerators of that map's transpose.
"""

from __future__ import annotations

import reprlib
from collections import deque
from dataclasses import dataclass

from .linalg import Mat, _product
from .semigroup import DEFAULT_CAP, FinitenessResult, MorphismTable, decide_finiteness


@dataclass(frozen=True)
class Transition:
    source: str
    matrix: Mat  # integral d x d
    offset: tuple[int, ...]
    target: str


@dataclass
class AffineVass:
    d: int
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"'d' must be at least 0, got {reprlib.repr(self.d)}")
        self.states = tuple(self.states)
        known = set(self.states)
        for t in self.transitions:
            if t.source not in known or t.target not in known:
                ends = f"{reprlib.repr(t.source)} -> {reprlib.repr(t.target)}"
                raise ValueError(f"transition {ends} touches an unknown state")
            if t.matrix.rows != self.d or t.matrix.cols != self.d:
                raise ValueError("transition matrix has wrong dimension")
            if not t.matrix.is_integral():
                raise ValueError("transition matrices must be integral")
            if len(t.offset) != self.d:
                raise ValueError("offset vector has wrong dimension")
            if any(type(x) is not int for x in t.offset):
                raise ValueError(f"offset entries must be integers: {reprlib.repr(t.offset)}")


@dataclass(frozen=True)
class Configuration:
    state: str
    vector: tuple[int, ...]


def _by_source(V: AffineVass) -> tuple[dict[str, list], dict[str, dict]]:
    """Transitions by source state, in index order, as (index, H, the
    target's visited dict, target), with the visited dicts by state.

    H is the row-major (d+1) x (d+1) numerator tuple [[A^T, 0], [b, 1]] (row r
    of A^T is column r of A, num[r::d]), so the row (v, 1) steps to
    (A v + b, 1) as _product(1, d + 1, d + 1)((v, 1), H).
    """
    d, out, seen = V.d, {s: [] for s in V.states}, {s: {} for s in V.states}
    for i, t in enumerate(V.transitions):
        H = sum((t.matrix.num[r::d] + (0,) for r in range(d)), ()) + t.offset + (1,)
        out[t.source].append((i, H, seen[t.target], t.target))
    return out, seen


def _checked(V: AffineVass, c: Configuration) -> tuple[str, tuple[int, ...]]:
    """(state, (vector..., 1)), or ValueError for a malformed configuration."""
    v = tuple(c.vector)
    if c.state not in V.states:
        raise ValueError(f"configuration state {reprlib.repr(c.state)} is not in the model")
    if len(v) != V.d or any(type(x) is not int for x in v):
        raise ValueError(f"configuration vector must be {V.d} integers: {reprlib.repr(c.vector)}")
    return c.state, v + (1,)


def step(V: AffineVass, c: Configuration) -> list[Configuration]:
    """The successors of c, in transition-index order."""
    state, v = _checked(V, c)
    times = _product(1, V.d + 1, V.d + 1)
    return [Configuration(t, times(v, H)[:-1]) for _, H, _, t in _by_source(V)[0][state]]


def transition_matrices(V: AffineVass) -> MorphismTable:
    """The update matrices of V as a morphism table (deduplicated)."""
    distinct = dict.fromkeys(t.matrix for t in V.transitions)
    mapping = {f"t{k}": m for k, m in enumerate(distinct)}
    return MorphismTable(V.d, tuple(mapping), mapping)


def check_fmp(V: AffineVass, cap: int = DEFAULT_CAP) -> FinitenessResult:
    """Finite monoid property: is the semigroup of update matrices finite?"""
    return decide_finiteness(transition_matrices(V), cap)


@dataclass
class ReachResult:
    status: str  # "reached" | "not_within_budget"
    path: tuple[int, ...] | None = None  # indices into V.transitions


def reach_bounded(V: AffineVass, source: Configuration, target: Configuration,
                  budget: int) -> ReachResult:
    """BFS over configurations, spending `budget` dequeues.

    A returned path is a shortest one, ties broken by transition index
    (the lexicographically least sequence of indices).
    Sound but deliberately incomplete: a returned path is genuine, but
    exhausting the budget proves nothing. A configuration whose state is
    not in V, or whose vector is not V.d ints, raises ValueError.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    start, goal = _checked(V, source), _checked(V, target)
    if start == goal:
        return ReachResult("reached", ())
    index, parents = _by_source(V)
    times = _product(1, V.d + 1, V.d + 1)
    # parents: state -> {(vector..., 1): (its predecessor, transition index)}
    parents[start[0]][start[1]] = None
    goal_parents, goal_vector = parents[goal[0]], goal[1]
    queue = deque([start])
    spent = 0
    while queue and spent < budget:
        state, v = c = queue.popleft()
        spent += 1
        for i, H, seen, nxt_state in index[state]:
            w = times(v, H)
            if w in seen:
                continue
            seen[w] = (c, i)
            if seen is goal_parents and w == goal_vector:
                path = [i]
                while parents[c[0]][c[1]] is not None:
                    c, i = parents[c[0]][c[1]]
                    path.append(i)
                return ReachResult("reached", tuple(reversed(path)))
            queue.append((nxt_state, w))
    return ReachResult("not_within_budget")
