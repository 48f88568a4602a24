"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: closure by
set fixed-point instead of BFS with witnesses, torsion by power
iteration or by the minimal polynomial (the library's former route)
instead of the characteristic-polynomial certificate, and graph
distances by a plain dictionary BFS. Subspace intersection is the exception: the
library tests it by the rank of the stacked bases, as the oracle here
does, so the tests also compare it with the wedge-product embedding in
`tests/oracles.py`, which also keeps other former library code as oracles.
"""

import itertools
import math
from fractions import Fraction

from semiforge import Mat, MorphismTable, minimal_polynomial, rank
from semiforge.linalg import stack
from semiforge import polys

F = Fraction


def mat(rows):
    return Mat(rows)


def table_from(mats, n=None):
    """MorphismTable from a dict letter->rows, or a list (letters a, b, ...)."""
    if not isinstance(mats, dict):
        mats = {chr(ord("a") + i): m for i, m in enumerate(mats)}
    mapping = {k: v if isinstance(v, Mat) else Mat(v) for k, v in mats.items()}
    if n is None:
        n = next(iter(mapping.values())).rows
    return MorphismTable(n, tuple(sorted(mapping)), mapping)


ROT90 = Mat([[0, -1], [1, 0]])
REFLECT = Mat([[1, 0], [0, -1]])
PROJ_X = Mat([[1, 0], [0, 0]])
PROJ_Y = Mat([[0, 0], [0, 1]])
SHIFT_NILP = Mat([[0, 1], [0, 0]])


def all_words(alphabet, max_len, min_len=1):
    for length in range(min_len, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


# ---------------------------------------------------------------- oracles

def brute_closure(mats, cap=100000):
    """Semigroup closure as a set fixed point; returns the set of
    matrices, or None when the cap is exceeded."""
    current = set(mats)
    while True:
        fresh = set()
        for m in current:
            for g in mats:
                p = m * g
                if p not in current:
                    fresh.add(p)
        if not fresh:
            return current
        current |= fresh
        if len(current) > cap:
            return None


def power_iteration_torsion(A, budget=300):
    """Torsion check by storing powers until one repeats. Only valid on
    matrices whose eventual period is known to fit in the budget."""
    seen = {A}
    power = A
    for _ in range(budget):
        power = power * A
        if power in seen:
            return True
        seen.add(power)
    return False


def oracle_totient(k):
    """Euler's phi by its definition: the count of 1 <= i <= k coprime to k."""
    return sum(math.gcd(i, k) == 1 for i in range(1, k + 1))


def oracle_is_torsion(A):
    """Torsion via the minimal polynomial mu = x^a * q over Q: torsion iff
    q is squarefree and divides x^L - 1, with L the lcm of every order k
    of a root of unity of degree phi(k) <= deg q (k <= 2 * (deg q)^2,
    since phi(k) >= sqrt(k/2))."""
    mu = minimal_polynomial(A)
    a = 0
    while mu[a] == 0:
        a += 1
    q = polys.trim(mu[a:])
    d = polys.degree(q)
    if d == 0:
        return True
    if polys.degree(polys.gcd(q, polys.derivative(q))) > 0:
        return False
    L = math.lcm(*(k for k in range(1, 2 * d * d + 1) if oracle_totient(k) <= d))
    return polys.pow_x_mod(L, q) == polys.ONE


def rank_oracle_trivial(W1, W2):
    """W1 and W2 intersect trivially iff stacking their bases adds ranks."""
    if W1.dim == 0 or W2.dim == 0:
        return True
    return rank(stack(W1.basis, W2.basis)) == W1.dim + W2.dim


def bfs_distance(G, V1, V2):
    """Plain BFS edge-count distance in an image graph; None if unreachable."""
    if V1 == V2:
        return 0
    dist = {V1: 0}
    frontier = [V1]
    while frontier:
        fresh = []
        for v in frontier:
            for w in G.out[v].values():
                if w not in dist:
                    dist[w] = dist[v] + 1
                    if w == V2:
                        return dist[w]
                    fresh.append(w)
        frontier = fresh
    return None


# ----------------------------------------------------- polynomial builders

def poly_from_roots_free(coeffs_int):
    """Monic polynomial from integer coefficients, constant term first."""
    return polys.trim([F(c) for c in coeffs_int])


def cyclotomic(k):
    """k-th cyclotomic polynomial, constant term first, via the recursive
    division of x^k - 1 by the lower-order factors."""
    num = polys.trim([F(-1)] + [F(0)] * (k - 1) + [F(1)])
    den = polys.ONE
    for d in range(1, k):
        if k % d == 0:
            den = polys.mul(den, cyclotomic(d))
    quo, rem = polys.divmod_poly(num, den)
    assert rem == polys.ZERO
    return quo


def companion(poly):
    """Companion matrix of a monic polynomial (constant term first)."""
    d = polys.degree(poly)
    assert d >= 1 and poly[-1] == 1
    rows = []
    for i in range(d):
        row = [F(0)] * d
        if i + 1 < d:
            row[i + 1] = F(1)
        rows.append(row)
    rows[-1] = [-c for c in poly[:-1]]
    return Mat(rows)


# ----------------------------------------------------- random generators

def random_rational(rng, max_num=3, max_den=5):
    return F(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_invertible(rng, n, max_num=3, max_den=5):
    from semiforge.linalg import det
    while True:
        m = Mat([[random_rational(rng, max_num, max_den) for _ in range(n)]
                 for _ in range(n)])
        if det(m) != 0:
            return m


def signed_partial_perm(rng, n, r):
    """A rank-r matrix with one +-1 per chosen row, distinct columns.
    Products of such matrices are again of this shape, so any set of them
    generates a finite semigroup."""
    rows_used = rng.sample(range(n), r)
    cols_used = rng.sample(range(n), r)
    m = [[F(0)] * n for _ in range(n)]
    for i, j in zip(rows_used, cols_used):
        m[i][j] = F(rng.choice((-1, 1)))
    return Mat(m)


def random_equal_rank_table(rng, n=None, r=None, letters=None):
    """A finite morphism table whose generators all have one fixed rank.
    Refuses more letters than there are distinct signed partial
    permutations of that shape, which the draw below could never reach."""
    n = n if n is not None else rng.choice((2, 3))
    r = r if r is not None else rng.randint(1, n - 1)
    letters = letters if letters is not None else rng.choice((2, 2, 3))
    distinct = math.comb(n, r) ** 2 * math.factorial(r) * 2 ** r
    if letters > distinct:
        raise ValueError(f"only {distinct} signed partial permutations of rank {r} in dimension {n}")
    mapping = {}
    while len(mapping) < letters:
        m = signed_partial_perm(rng, n, r)
        name = chr(ord("a") + len(mapping))
        if all(m != other for other in mapping.values()):
            mapping[name] = m
    return table_from(mapping), r


def signed_perm_generators(n):
    """Generators of the full signed permutation group in GL(n,Z)."""
    cycle = Mat([[1 if j == (i + 1) % n else 0 for j in range(n)]
                 for i in range(n)])
    flip = Mat([[(-1 if i == j == 0 else (1 if i == j else 0))
                 for j in range(n)] for i in range(n)])
    gens = [cycle, flip]
    if n >= 2:
        swap = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        swap[0][0] = swap[1][1] = 0
        swap[0][1] = swap[1][0] = 1
        gens.append(Mat(swap))
    return gens


def rotation_generator(k):
    """An integer matrix of multiplicative order exactly k (companion of
    the k-th cyclotomic polynomial)."""
    return companion(cyclotomic(k))
