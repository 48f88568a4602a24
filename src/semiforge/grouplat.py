"""Finite matrix group utilities: BFS group closure with shortest
witnesses, short products in finite monoids, integer row-style Hermite
normal form, and conjugation of a finite rational matrix group into
GL(n,Z) via its invariant lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import Mat, inverse, rank, det
from .semigroup import NotMember, Word, _bfs


class NonInvertibleGenerator(ValueError):
    pass


class GroupInfinite(Exception):
    """Raised when a closure reveals the generated group is infinite."""

    def __init__(self, witness: Word | None):
        super().__init__(f"infinite group, witness {witness!r}")
        self.witness = witness


@dataclass
class FiniteGroupClosure:
    """Closure of a finite matrix group (monoid convention: the identity
    is always an element, with the empty witness)."""

    n: int
    generators: dict[str, Mat]
    witness: dict[Mat, Word]

    @property
    def order(self) -> int:
        return len(self.witness)

    def contains(self, A: Mat) -> bool:
        return A in self.witness


def _normalize_generators(gens) -> dict[str, Mat]:
    if isinstance(gens, Mapping):
        return dict(gens)
    return {f"g{i}": m for i, m in enumerate(gens)}


def group_closure(gens) -> FiniteGroupClosure:
    """BFS closure from the identity under right multiplication.

    Raises GroupInfinite on a non-torsion element or when the closure
    exceeds the (2n)! cap (either certifies infinitude).
    """
    generators = _normalize_generators(gens)
    if not generators:
        raise ValueError("need at least one generator")
    n = next(iter(generators.values())).rows
    for label, m in generators.items():
        if m.rows != n or m.cols != n:
            raise ValueError(f"generator {label!r} is not {n}x{n}")
        if rank(m) != n:
            raise NonInvertibleGenerator(f"generator {label!r} is singular")
    witness, status, word = _bfs(generators.items(), math.factorial(2 * n), torsion=True,
                                 identity=Mat.identity(n))
    if status != "finite":
        raise GroupInfinite(word)
    return FiniteGroupClosure(n, generators, witness)


def short_product(H: FiniteGroupClosure, target: Mat) -> Word:
    """Shortest generator word for `target`; length is at most |H| - 1,
    and 0 for the identity."""
    if target not in H.witness:
        raise NotMember("target is not in the closure")
    return H.witness[target]


def _hnf_rows(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    work = [list(r) for r in rows if any(r)]
    result: list[list[int]] = []
    for col in range(ncols):
        hitting = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not hitting:
            work = rest
            continue
        while len(hitting) > 1:
            hitting.sort(key=lambda r: abs(r[col]))
            p = hitting[0]
            reduced = [p]
            for r in hitting[1:]:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                if rr[col] != 0:
                    reduced.append(rr)
                elif any(rr):
                    rest.append(rr)
            hitting = reduced
        p = hitting[0]
        if p[col] < 0:
            p = [-a for a in p]
        result.append(p)
        work = rest
    # reduce entries above each pivot into [0, pivot); left-to-right, so
    # later reductions (zero left of their pivot) cannot disturb earlier ones
    for i in range(len(result)):
        pcol = next(j for j, a in enumerate(result[i]) if a)
        pv = result[i][pcol]
        for j in range(i):
            f = result[j][pcol] // pv
            if f:
                result[j] = [a - f * b for a, b in zip(result[j], result[i])]
    return result


def hnf(B: Mat) -> Mat:
    """Row-style HNF basis of the row lattice of the integral matrix B (rows
    may exceed columns and may be dependent): pivots positive, upper
    echelon, entries above each pivot reduced into [0, pivot)."""
    if not isinstance(B, Mat) or not B.is_integral():
        raise ValueError("HNF needs a Mat with integer entries")
    return Mat(_hnf_rows(B.int_rows(), B.cols), cols=B.cols)


def integerize(G: FiniteGroupClosure) -> Mat:
    """A matrix C with C*M*inverse(C) integral of determinant +-1 for every
    M in G.

    Builds the invariant lattice spanned by all rows of all group elements,
    scales denominators away, and takes its HNF basis; intermediate rows
    are re-reduced per element to keep integers small.
    """
    n = G.n
    d = math.lcm(*(m.den for m in G.witness))
    rows: list[list[int]] = []
    for m in G.witness:
        rows.extend([x * (d // m.den) for x in r] for r in m.int_rows())
        rows = _hnf_rows(rows, n)
    if len(rows) != n:
        raise GroupInfinite(None)
    C = Fraction(1, d) * Mat(rows, cols=n)
    Cinv = inverse(C)
    for m in G.witness:
        conj = C * m * Cinv
        if not conj.is_integral() or abs(det(conj)) != 1:
            raise GroupInfinite(None)
    return C
