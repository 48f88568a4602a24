"""Weighted automata over Q: evaluation, forward/backward state-space
restriction (the minimal-automaton construction), and the finiteness
decision through the transition monoid of the minimized automaton.

`evaluate` and `forward_space` share one kernel on ints: a row of
numerators times a letter's numerator columns, sliced once per call.
`evaluate` keeps the row's denominator and takes a gcd only after a
letter whose denominator is not 1; `forward_space` needs only spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .linalg import Mat, Subspace, _frac, image, stack
from .semigroup import DEFAULT_CAP, FinitenessResult, MorphismTable, decide_finiteness


class UnknownLetter(KeyError):
    pass


@dataclass
class WeightedAutomaton:
    """States are coordinates; the value of a word is alpha * M(w) * eta^T."""

    table: MorphismTable
    alpha: tuple[Fraction, ...]
    eta: tuple[Fraction, ...]

    def __post_init__(self):
        self.alpha = tuple(_frac(x) for x in self.alpha)
        self.eta = tuple(_frac(x) for x in self.eta)
        if len(self.alpha) != self.table.n or len(self.eta) != self.table.n:
            raise ValueError("state vectors must have one entry per state")

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.table.alphabet


def _times(row, columns: list) -> list[int]:
    return [sum(map(mul, row, col)) for col in columns]


def evaluate(A: WeightedAutomaton, word) -> Fraction:
    mapping, letters = A.table.mapping, {}
    start, eta = Mat.row_vector(A.alpha), Mat.row_vector(A.eta)
    row, den = start.num, start.den
    for a in word:
        if a not in letters:
            if a not in mapping:
                raise UnknownLetter(a)
            letters[a] = mapping[a].transpose().int_rows(), mapping[a].den
        columns, d = letters[a]
        row = _times(row, columns)
        if d != 1:
            g = gcd(den * d, *row)
            row, den = [x // g for x in row], den * d // g
    return Fraction(sum(map(mul, row, eta.num)), den * eta.den)


def forward_space(A: WeightedAutomaton) -> Subspace:
    """span{alpha * M(w) : w over the alphabet}. Every insertion raises the
    dimension, so the basis is rebuilt (one rref) at most n times."""
    letters = [A.table.mapping[a].transpose().int_rows() for a in A.alphabet]
    start = Mat.row_vector(A.alpha)
    space = image(start)
    frontier = [start.num] if space.dim else []
    while frontier:
        fresh = []
        for row in frontier:
            for columns in letters:
                u = _times(row, columns)
                if not space.contains(u):
                    space = image(stack(space.basis, Mat.row_vector(u)))
                    fresh.append(u)
        frontier = fresh
    return space


def reverse(A: WeightedAutomaton) -> WeightedAutomaton:
    table = MorphismTable(A.n, A.alphabet,
                          {a: A.table.mapping[a].transpose() for a in A.alphabet})
    return WeightedAutomaton(table, A.eta, A.alpha)


def _entries(M: Mat) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, M.den) for x in M.num)


def _forward_restrict(A: WeightedAutomaton) -> WeightedAutomaton:
    F = forward_space(A)
    basis = F.basis
    alpha = F.coordinates(Mat.row_vector(A.alpha))
    # rows of basis * M(a) stay inside the forward space
    mapping = {a: F.coordinates(basis * A.table.mapping[a]) for a in A.alphabet}
    eta = basis * Mat.row_vector(A.eta).transpose()
    return WeightedAutomaton(MorphismTable(F.dim, A.alphabet, mapping),
                             _entries(alpha), _entries(eta))


def minimize(A: WeightedAutomaton) -> WeightedAutomaton:
    """Forward restriction followed by a backward restriction; the result
    computes the same word function on as few states as possible."""
    return reverse(_forward_restrict(reverse(_forward_restrict(A))))


def decide_wa_finiteness(A: WeightedAutomaton, cap: int = DEFAULT_CAP) -> FinitenessResult:
    """Whether the value set {alpha*M(w)*eta^T} is finite.

    Minimizes first; on the minimal automaton, finiteness of the value set
    coincides with finiteness of the transition monoid.
    """
    return decide_finiteness(minimize(A).table, cap)
