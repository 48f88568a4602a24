"""Weighted automata over Q: evaluation, forward/backward state-space
restriction (the minimal-automaton construction), and the finiteness
decision through the transition monoid of the minimized automaton.

alpha and eta are 1 x n `Mat` rows. `evaluate` folds a word from alpha
with `MorphismTable.evaluate`, the package's one numerator fold, and dots
the result with eta into one `Fraction`. `forward_space` steps numerator
rows with linalg's product kernel for 1 x n times n x n and grows an
integer echelon basis in place; one `image` at the end gives its RREF.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .linalg import Mat, Subspace, _mat, _pivot_read, _product, image
from .semigroup import DEFAULT_CAP, FinitenessResult, MorphismTable, decide_finiteness


class UnknownLetter(KeyError):
    pass


@dataclass
class WeightedAutomaton:
    """States are coordinates; the value of a word is alpha * M(w) * eta^T.
    A `Mat` row is kept as given; any other rationals become a row."""

    table: MorphismTable
    alpha: Mat
    eta: Mat

    def __post_init__(self):
        rows = [v if isinstance(v, Mat) else Mat([v]) for v in (self.alpha, self.eta)]
        if any(v.rows != 1 or v.cols != self.table.n for v in rows):
            raise ValueError("state vectors must have one entry per state")
        self.alpha, self.eta = rows

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.table.alphabet


def evaluate(A: WeightedAutomaton, word) -> Fraction:
    try:
        row = A.table.evaluate(word, A.alpha)
    except KeyError as unknown:
        raise UnknownLetter(*unknown.args) from None
    return Fraction(sum(map(mul, row.num, A.eta.num)), row.den * A.eta.den)


def _admit(rows: list, v) -> bool:
    """Whether the integer row v lies outside the span of `rows`, a list of
    (pivot, row) in which each row is zero at every earlier row's pivot.
    v is reduced against them fraction-free, in that order; a nonzero
    remainder, divided by its content, is appended to `rows`."""
    for p, r in rows:
        f = v[p]
        if f:
            q = r[p]
            v = [q * x - f * y for x, y in zip(v, r)]
    for p, x in enumerate(v):
        if x:
            g = gcd(*v)
            rows.append((p, [y // g for y in v]))
            return True
    return False


def forward_space(A: WeightedAutomaton) -> Subspace:
    """span{alpha * M(w) : w over the alphabet}, breadth first. A span
    ignores scale, so rows are stepped as numerators."""
    step = _product(1, A.n, A.n)
    letters = [A.table.mapping[a].num for a in A.alphabet]
    rows = []
    layer = [A.alpha.num]
    while layer:
        fresh = [u for u in layer if _admit(rows, u)]
        layer = [step(row, M) for row in fresh for M in letters]
    return image(_mat(len(rows), A.n, tuple(x for _, r in rows for x in r), 1))


def reverse(A: WeightedAutomaton) -> WeightedAutomaton:
    table = MorphismTable(A.n, A.alphabet,
                          {a: A.table.mapping[a].transpose() for a in A.alphabet})
    return WeightedAutomaton(table, A.eta, A.alpha)


def _forward_restrict(A: WeightedAutomaton) -> WeightedAutomaton:
    F = forward_space(A)
    basis = F.basis
    mapping = {}
    for a in A.alphabet:
        # the rows of basis * M(a) lie in the forward space by construction,
        # so their pivot columns are their coordinates
        M = basis * A.table.mapping[a]
        mapping[a] = C = _pivot_read(F, M)
        assert C * basis == M
    return WeightedAutomaton(MorphismTable(F.dim, A.alphabet, mapping),
                             F.coordinates(A.alpha), A.eta * basis.transpose())


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
