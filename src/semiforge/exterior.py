"""Trivial intersection of subspaces of Q^n.

The paper decides whether two subspaces meet only in 0 through the
exterior algebra: the wedge of their canonical embeddings is nonzero.
`trivial_intersection` decides the same thing by the rank of the stacked
bases, which is cheaper; the wedge form is kept as the tests' oracle.
"""

from __future__ import annotations

from .linalg import Subspace, rank, stack


class AmbientMismatch(ValueError):
    pass


def trivial_intersection(W1: Subspace, W2: Subspace) -> bool:
    if W1.ambient_dim != W2.ambient_dim:
        raise AmbientMismatch(f"ambient {W1.ambient_dim} vs {W2.ambient_dim}")
    return rank(stack(W1.basis, W2.basis)) == W1.dim + W2.dim
