"""Affine integer VASS: configurations, step semantics, the finite monoid
property check, and bounded-budget reachability exploration.
"""

from __future__ import annotations

import reprlib
from collections import deque
from dataclasses import dataclass
from operator import mul

from .linalg import Mat
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


def _by_source(V: AffineVass) -> dict[str, list]:
    """Transitions by source state, in index order, as (index, matrix
    rows, offset, target) with the rows sliced from the numerators."""
    d, out = V.d, {s: [] for s in V.states}
    for i, t in enumerate(V.transitions):
        a = t.matrix.num
        out[t.source].append((i, [a[r * d:(r + 1) * d] for r in range(d)], t.offset, t.target))
    return out


def _checked(V: AffineVass, c: Configuration) -> tuple[str, tuple[int, ...]]:
    v = tuple(c.vector)
    if c.state not in V.states:
        raise ValueError(f"configuration state {reprlib.repr(c.state)} is not in the model")
    if len(v) != V.d or any(type(x) is not int for x in v):
        raise ValueError(f"configuration vector must be {V.d} integers: {reprlib.repr(c.vector)}")
    return c.state, v


def _successors(entries: list, v: tuple[int, ...]):
    # column-vector update: w = A*v + b, on the numerators (A is integral)
    for i, rows, b, target in entries:
        yield i, target, tuple([sum(map(mul, row, v)) + c for row, c in zip(rows, b)])


def step(V: AffineVass, c: Configuration) -> list[Configuration]:
    """The successors of c, in transition-index order."""
    state, v = _checked(V, c)
    return [Configuration(target, w) for _, target, w in _successors(_by_source(V)[state], v)]


def transition_matrices(V: AffineVass) -> MorphismTable:
    """The update matrices of V as a morphism table (deduplicated)."""
    mapping: dict[str, Mat] = {}
    seen: dict[Mat, str] = {}
    for t in V.transitions:
        if t.matrix not in seen:
            name = f"t{len(seen)}"
            seen[t.matrix] = name
            mapping[name] = t.matrix
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
    index = _by_source(V)
    queue = deque([start])
    parent = {start: None}  # configuration -> (its predecessor, transition index)
    spent = 0
    while queue and spent < budget:
        state, v = c = queue.popleft()
        spent += 1
        for i, nxt_state, w in _successors(index[state], v):
            nxt = (nxt_state, w)
            if nxt in parent:
                continue
            parent[nxt] = (c, i)
            if nxt == goal:
                path = []
                while parent[nxt] is not None:
                    nxt, i = parent[nxt]
                    path.append(i)
                return ReachResult("reached", tuple(reversed(path)))
            queue.append(nxt)
    return ReachResult("not_within_budget")
