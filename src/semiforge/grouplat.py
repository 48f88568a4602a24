"""Finite matrix group utilities: group closure with shortest
witnesses, integer row-style Hermite normal form, and conjugation of a
finite rational matrix group into GL(n,Z) via its invariant lattice.
"""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .linalg import Mat, det, inverse, rank, stack
from .semigroup import (DEFAULT_CAP, CapExceeded, ClosureResult, InfiniteSemigroup, MorphismTable,
                        _bfs, _letters)


class NonInvertibleGenerator(ValueError):
    pass


class FiniteGroupClosure(ClosureResult):
    """Closure of a finite matrix group (monoid convention: the identity
    is always an element, with the empty witness)."""

    @property
    def order(self) -> int:
        return len(self.witness)


def group_closure(table: MorphismTable, cap: int = DEFAULT_CAP) -> FiniteGroupClosure:
    """Closure from the identity under right multiplication (`_bfs`'s
    Froidure-Pin enumeration in monoid mode).

    Raises InfiniteSemigroup on a non-torsion element or when the closure
    exceeds (2n)! elements (either certifies infinitude), and CapExceeded
    when it exceeds `cap` elements first.
    """
    n, letters = table.n, _letters(table)
    for a, m in letters:
        if rank(m) != n:
            raise NonInvertibleGenerator(f"generator {reprlib.repr(a)} is singular")
    # not g_upper_bound(n), which refuses the n = 0 of the Shortener's rank-0 words
    bound = math.factorial(2 * n)
    witness, status, word = _bfs(letters, min(cap, bound), identity=Mat.identity(n))
    if status == "exceeded_cap" and cap < bound:
        raise CapExceeded(f"the group has more than {cap} elements")
    if status != "finite":
        raise InfiniteSemigroup(word)
    return FiniteGroupClosure(n, witness)


def _hnf_rows(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    work = [list(r) for r in rows if any(r)]
    result: list[list[int]] = []
    for col in range(ncols):
        hitting = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not hitting:  # then rest is all of work
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
        result.append(p if p[col] > 0 else [-a for a in p])
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

    The rows of C are the HNF basis of the invariant lattice: the least one
    that contains Z^n and is mapped into itself by each generator (element
    with a one-letter witness), found as a fixpoint of B -> HNF(B, B*g, ...).
    Only generators are checked, as in a finite group g^-1 = g^(order - 1).
    The fixpoint ends because G is a whole finite group: every
    `ClosureResult` comes from a BFS that closed.
    """
    gens = [m for m, w in G.witness.items() if len(w) == 1]
    C, prev = Mat.identity(G.n), None
    while C != prev:
        S = reduce(stack, (C * g for g in gens), C)
        prev, C = C, Fraction(1, S.den) * hnf(S.den * S)
    Cinv = inverse(C)
    for conj in (C * g * Cinv for g in gens):
        if not conj.is_integral() or abs(det(conj)) != 1:
            raise InfiniteSemigroup()
    return C
