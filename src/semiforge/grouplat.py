"""Finite matrix group utilities: group closure with shortest
witnesses, integer row-style Hermite normal form, and conjugation of a
finite rational matrix group into GL(n,Z) via its invariant lattice.
"""

from __future__ import annotations

import math
import reprlib
from functools import reduce
from typing import Iterable, Sequence

from .linalg import Mat, _mat, det, rank, stack
from .semigroup import (DEFAULT_CAP, CapExceeded, ClosureResult, InfiniteSemigroup, MorphismTable,
                        _bfs)


class NonInvertibleGenerator(ValueError):
    pass


def group_closure(table: MorphismTable, cap: int = DEFAULT_CAP) -> ClosureResult:
    """Closure from the identity under right multiplication (`_bfs`'s
    Froidure-Pin enumeration in monoid mode): a finite matrix group, whose
    identity is always an element, with the empty witness.

    Raises InfiniteSemigroup on a non-torsion element or when the closure
    exceeds (2n)! elements (either certifies infinitude), and CapExceeded
    when it exceeds `cap` elements first.
    """
    n = table.n
    for a in table.alphabet:
        if rank(table.mapping[a]) != n:
            raise NonInvertibleGenerator(f"generator {reprlib.repr(a)} is singular")
    # not g_upper_bound(n), which refuses the n = 0 of the Shortener's rank-0 words
    bound = math.factorial(2 * n)
    witness, status, word = _bfs(table, min(cap, bound), identity=Mat.identity(n))
    if status == "exceeded_cap" and cap < bound:
        raise CapExceeded(f"the group has more than {cap} elements")
    if status != "finite":
        raise InfiniteSemigroup(word)
    return ClosureResult(n, witness)


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


def integerize(G: ClosureResult) -> Mat:
    """A matrix C with C*M*inverse(C) integral of determinant +-1 for every
    M in G, a finite group.

    The rows of C are the HNF basis of the invariant lattice: the least one
    that contains Z^n and is mapped into itself by each generator (element
    with a one-letter witness), found as a fixpoint of B -> HNF(B, B*g, ...)
    on integer rows: each stack's numerators, over its denominator. A
    generator of determinant 0 raises NonInvertibleGenerator, and one other
    than +-1 InfiniteSemigroup. At the fixpoint the rows of C*g lie in the
    lattice, so C*g*inverse(C) is integral of determinant det(g), and
    g^-1 = g^(order - 1) covers the rest of G. In a finite group each lattice
    met lies in Z^n / lcm(denominators of G); a round that leaves it raises
    InfiniteSemigroup, so the loop ends on any `ClosureResult`.
    """
    gens = {g: w for g, w in G.witness.items() if len(w) == 1}
    for g, w in gens.items():
        d = abs(det(g))
        if not d:
            raise NonInvertibleGenerator(f"generator {reprlib.repr(w[0])} is singular")
        if d != 1:
            raise InfiniteSemigroup(w)
    bound = math.lcm(*(g.den for g in G.witness))
    n, C, prev = G.n, Mat.identity(G.n), None
    while C != prev:
        S = reduce(stack, (C * g for g in gens), C)
        H = _hnf_rows(S.int_rows(), n)  # S holds C, of full rank: n rows
        prev, C = C, _mat(n, n, tuple(x for r in H for x in r), S.den)
        if bound % C.den:
            raise InfiniteSemigroup()
    return C
