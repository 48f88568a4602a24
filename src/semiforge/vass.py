"""Affine integer VASS: configurations, step semantics, the finite monoid
property check, and bounded-budget reachability exploration.
"""

from __future__ import annotations

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
        self.states = tuple(self.states)
        known = set(self.states)
        for t in self.transitions:
            if t.source not in known or t.target not in known:
                raise ValueError(f"transition touches unknown state: {t!r}")
            if t.matrix.rows != self.d or t.matrix.cols != self.d:
                raise ValueError("transition matrix has wrong dimension")
            if not t.matrix.is_integral():
                raise ValueError("transition matrices must be integral")
            if len(t.offset) != self.d:
                raise ValueError("offset vector has wrong dimension")


@dataclass(frozen=True)
class Configuration:
    state: str
    vector: tuple[int, ...]


def _apply(t: Transition, v: tuple[int, ...]) -> tuple[int, ...]:
    # column-vector update: w = A*v + b, on the numerators (A is integral)
    a, d = t.matrix.num, len(v)
    return tuple(sum(map(mul, a[i * d:(i + 1) * d], v)) + b for i, b in enumerate(t.offset))


def step(V: AffineVass, c: Configuration) -> list[Configuration]:
    return [Configuration(t.target, _apply(t, c.vector))
            for t in V.transitions if t.source == c.state]


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
    if not V.transitions:
        return FinitenessResult("finite")
    return decide_finiteness(transition_matrices(V), cap)


@dataclass
class ReachResult:
    status: str  # "reached" | "not_within_budget"
    path: tuple[int, ...] | None = None  # indices into V.transitions


def reach_bounded(V: AffineVass, source: Configuration, target: Configuration,
                  budget: int) -> ReachResult:
    """BFS over configurations, spending `budget` dequeues.

    Sound but deliberately incomplete: a returned path is genuine, but
    exhausting the budget proves nothing.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if source == target:
        return ReachResult("reached", ())
    queue = deque([(source, ())])
    visited = {source}
    spent = 0
    while queue and spent < budget:
        c, path = queue.popleft()
        spent += 1
        for i, t in enumerate(V.transitions):
            if t.source != c.state:
                continue
            nxt = Configuration(t.target, _apply(t, c.vector))
            if nxt in visited:
                continue
            if nxt == target:
                return ReachResult("reached", path + (i,))
            visited.add(nxt)
            queue.append((nxt, path + (i,)))
    return ReachResult("not_within_budget")
