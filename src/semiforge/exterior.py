"""Wedge products over Q^n and the canonical subspace embedding.

The embedding sends a subspace to the wedge of its RREF basis rows, which
pins down the scalar ambiguity: two subspaces intersect trivially iff the
wedge of their embeddings is nonzero. `trivial_intersection` decides the
same thing by the rank of the stacked bases, which is cheaper; the wedge
form is the paper's construction and the tests' oracle for it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import Subspace, _frac, rank, stack


class AmbientMismatch(ValueError):
    pass


class MultiVector:
    """Element of the exterior algebra of Q^n, homogeneous of one grade.

    Coefficients are kept on strictly increasing index tuples (0-based
    column indices); absent tuples are zero.
    """

    __slots__ = ("ambient", "grade", "coeffs")

    def __init__(self, ambient: int, grade: int, coeffs: dict | None = None):
        self.ambient = ambient
        self.grade = grade
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def unit(cls, ambient: int) -> "MultiVector":
        return cls(ambient, 0, {(): Fraction(1)})

    @classmethod
    def from_row(cls, row: Sequence) -> "MultiVector":
        row = tuple(_frac(x) for x in row)
        return cls(len(row), 1, {(i,): x for i, x in enumerate(row) if x})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, MultiVector)
                and self.ambient == other.ambient
                and self.grade == other.grade
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ambient, self.grade, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"MultiVector(n={self.ambient}, grade={self.grade}, {self.coeffs!r})"


def _merge_indices(a: tuple, b: tuple):
    """Merge two sorted index tuples; sign is the parity of the shuffle.

    Returns (None, 0) when an index repeats.
    """
    if set(a) & set(b):
        return None, 0
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            if (len(a) - i) % 2:
                sign = -sign
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


def wedge(u: MultiVector, v: MultiVector) -> MultiVector:
    if u.ambient != v.ambient:
        raise AmbientMismatch(f"ambient {u.ambient} vs {v.ambient}")
    grade = u.grade + v.grade
    if grade > u.ambient:
        return MultiVector(u.ambient, grade)
    out: dict = {}
    for ku, cu in u.coeffs.items():
        for kv, cv in v.coeffs.items():
            key, sign = _merge_indices(ku, kv)
            if key is None:
                continue
            acc = out.get(key, 0) + sign * cu * cv
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return MultiVector(u.ambient, grade, out)


def iota(W: Subspace) -> MultiVector:
    """Wedge of the canonical basis rows; the zero subspace maps to the
    grade-0 unit."""
    result = MultiVector.unit(W.ambient_dim)
    for row in W.basis.data:
        result = wedge(result, MultiVector.from_row(row))
    return result


def trivial_intersection(W1: Subspace, W2: Subspace) -> bool:
    if W1.ambient_dim != W2.ambient_dim:
        raise AmbientMismatch(f"ambient {W1.ambient_dim} vs {W2.ambient_dim}")
    return rank(stack(W1.basis, W2.basis)) == W1.dim + W2.dim
