"""Finitely generated rational matrix semigroups: BFS closure with
shortest witness words, the torsion test, the finiteness decision, and
the length / size bound calculators.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from operator import mul

from .linalg import DimensionMismatch, Mat

Word = tuple  # tuple[str, ...]


class NotMember(KeyError):
    pass


class CapExceeded(RuntimeError):
    """The closure cap was hit before reaching a verdict."""


def default_cap() -> int:
    return int(os.environ.get("SEMIFORGE_CAP", "1000000"))


@dataclass
class MorphismTable:
    """Alphabet plus the letter-to-matrix map; words evaluate as products."""

    n: int
    alphabet: tuple[str, ...]
    mapping: dict[str, Mat]

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        if set(self.alphabet) != set(self.mapping):
            raise ValueError("alphabet and mapping keys differ")
        for a, m in self.mapping.items():
            if m.rows != self.n or m.cols != self.n:
                raise ValueError(f"matrix for {a!r} is not {self.n}x{self.n}")

    def evaluate(self, word) -> Mat:
        letters = iter(word)
        first = next(letters, None)
        if first is None:
            return Mat.identity(self.n)
        m = self.mapping[first]
        for a in letters:
            m = m * self.mapping[a]
        return m

    def key(self) -> tuple:
        return tuple((a, self.mapping[a]) for a in self.alphabet)


@dataclass
class ClosureResult:
    """The set M(Sigma+) with a shortest (lex-least among those) witness
    word per element, in BFS order. `status` is "finite" or
    "exceeded_cap"."""

    n: int
    witness: dict[Mat, Word]
    status: str
    cap: int

    def __len__(self) -> int:
        return len(self.witness)

    def contains(self, A: Mat) -> bool:
        return A in self.witness

    @property
    def identity_expressible(self) -> bool:
        return Mat.identity(self.n) in self.witness


def _bfs(letters, cap: int, torsion: bool, identity: Mat | None = None):
    """Closure by word length under right multiplication by `letters`
    (label, matrix) pairs, keeping the first (so shortest, lex-least)
    word that reaches each element.

    Without `identity` the closure is the semigroup: its first layer is
    the generators themselves. With it, the closure is the monoid, and
    `identity` is stored with the empty word. The cap is checked before
    each insertion; with `torsion`, each admitted element is tested by
    `is_torsion`. Returns the store (in insertion order), a status
    ("finite", "exceeded_cap" or "infinite") and, unless finite, the word
    that hit the cap or names a non-torsion element. A cap below 1 is
    refused: it admits nothing, so it can give no verdict.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    store: dict[Mat, Word] = {}
    if identity is not None:
        store[identity] = ()
    frontier = [identity]  # None stands for the empty product
    while frontier:
        fresh = []
        for m in frontier:
            w = () if m is None else store[m]
            for a, g in letters:
                p = g if m is None else m * g
                if p in store:
                    continue
                u = w + (a,)
                if len(store) >= cap:
                    return store, "exceeded_cap", u
                store[p] = u
                if torsion and not is_torsion(p):
                    return store, "infinite", u
                fresh.append(p)
        frontier = fresh
    return store, "finite", None


def _letters(table: MorphismTable) -> list:
    return [(a, table.mapping[a]) for a in table.alphabet]


def closure(table: MorphismTable, cap: int | None = None) -> ClosureResult:
    """Breadth-first closure of the generated semigroup, by word length."""
    cap = default_cap() if cap is None else cap
    witness, status, _ = _bfs(_letters(table), cap, torsion=False)
    return ClosureResult(table.n, witness, status, cap)


def _totient(k: int) -> int:
    result = k
    m = k
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _charpoly(num: tuple, n: int) -> list[int]:
    """det(xI - N) for the n x n integer matrix N with row-major entries
    `num`, leading coefficient first, by Berkowitz's division-free
    recurrence over the leading principal submatrices: with B the leading
    m x m block, R and S the rest of row and column m, and a the diagonal
    entry, the polynomial of the next block is the Toeplitz product of
    (1, -a, -RS, -RBS, ..., -RB^(m-1)S) with that of B."""
    c = [1]
    for m in range(n):
        rows = [num[i * n:i * n + m] for i in range(m)]
        R = num[m * n:m * n + m]
        v = num[m:m * n:n]
        t = [1, -num[m * n + m]]
        for j in range(m):
            if j:
                v = [sum(map(mul, row, v)) for row in rows]
            t.append(-sum(map(mul, R, v)))
        t.reverse()
        c = [sum(map(mul, c, t[m + 1 - k:])) for k in range(m + 2)]
    return c


def _divide(p: list, q: tuple) -> list | None:
    """p / q for integer polynomials, leading coefficient first, q monic;
    None unless q divides p."""
    dq = len(q) - 1
    cut = len(p) - dq
    if cut < 1:
        return None
    p = list(p)
    for i in range(cut):
        c = p[i]
        if c:
            for j in range(1, dq + 1):
                p[i + j] -= c * q[j]
    return None if any(p[cut:]) else p[:cut]


def _times(p: list, q: tuple) -> list:
    """p * q for integer polynomials, leading coefficient first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@functools.cache
def _cyclotomic(k: int) -> tuple:
    """The k-th cyclotomic polynomial, leading coefficient first: x^k - 1
    divided by Phi_d for each proper divisor d of k."""
    p = [1] + [0] * (k - 1) + [-1]
    for d in range(1, k):
        if k % d == 0:
            p = _divide(p, _cyclotomic(d))
    return tuple(p)


@functools.cache
def _orders(d: int) -> tuple:
    """The orders k of the roots of unity of degree phi(k) <= d, which are
    at most 2*d^2 since phi(k) >= sqrt(k/2)."""
    return tuple(k for k in range(1, 2 * d * d + 1) if _totient(k) <= d)


def is_torsion(A: Mat) -> bool:
    """Whether A^i = A^j for some i < j.

    That holds iff every eigenvalue is 0 or a root of unity and the
    nonzero ones are semisimple: iff chi_A = x^b * p with p a product of
    cyclotomic polynomials, and A^b * rad(p)(A) = 0. With A = N / den for
    the integer matrix N:

    1. chi_A, whose x^(n-k) coefficient is that of chi_N over den^k, has
       integer coefficients;
    2. p divides out into cyclotomic factors Phi_k, phi(k) <= deg p; the
       distinct ones multiply to rad(p);
    3. when p is squarefree, x^b * rad(p) is chi_A, which vanishes at A by
       Cayley-Hamilton; otherwise a Horner chain evaluates
       A^b * rad(p)(A).
    """
    if not A.is_square():
        raise DimensionMismatch("torsion test needs a square matrix")
    n, den = A.rows, A.den
    p = []
    scale = 1
    for c in _charpoly(A.num, n):
        a, r = divmod(c, scale)
        if r:
            return False
        p.append(a)
        scale *= den
    while p[-1] == 0:  # chi_A = x^b * p
        p.pop()
    b = n + 1 - len(p)
    factors = []
    squarefree = True
    for k in _orders(len(p) - 1):
        phi = _cyclotomic(k)
        q = _divide(p, phi)
        if q is None:
            continue
        factors.append(phi)
        while q is not None:
            p = q
            q = _divide(p, phi)
            squarefree = squarefree and q is None
        if len(p) == 1:
            break
    if len(p) > 1:
        return False
    if squarefree:
        return True
    f = [1]
    for phi in factors:
        f = _times(f, phi)
    f += [0] * b
    I = Mat.identity(n)
    H = A + f[1] * I  # f is monic
    for c in f[2:]:
        H = H * A + c * I
    return H.is_zero()


@dataclass
class FinitenessResult:
    status: str  # "finite" | "infinite" | "exceeded_cap"
    closure: ClosureResult | None = None
    witness: Word | None = None


def decide_finiteness(table: MorphismTable, cap: int | None = None) -> FinitenessResult:
    """Interleave BFS closure with the torsion test.

    Total for finite semigroups (the BFS closes) and for infinite ones (a
    non-torsion element appears, by McNaughton-Zalcstein); the cap is a
    safety net that yields "exceeded_cap" without a verdict.
    """
    cap = default_cap() if cap is None else cap
    witness, status, word = _bfs(_letters(table), cap, torsion=True)
    if status == "infinite":
        return FinitenessResult("infinite", witness=word)
    if status == "exceeded_cap":
        return FinitenessResult("exceeded_cap")
    return FinitenessResult("finite", closure=ClosureResult(table.n, witness, "finite", cap))


def g_upper_bound(n: int) -> int:
    """(2n)!, an elementary upper bound for the largest finite subgroup
    order in GL(n,Q)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.factorial(2 * n)


def g_signed_permutations(n: int) -> int:
    """2^n * n!, the order of the signed permutation group.

    Equals the true maximum finite subgroup order exactly when n is not in
    {2,4,6,7,8,9,10}; informational only, never used in bounds here.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 ** n * math.factorial(n)


@dataclass(frozen=True)
class BoundReport:
    n: int
    g_upper: int
    length_bound: int


def length_bound(n: int) -> BoundReport:
    """2^{n(2n+3)} * ((2n)!)^{n+1}: every element of a finite semigroup of
    n x n rational matrices is a generator product of at most this length."""
    g = g_upper_bound(n)
    return BoundReport(n, g, 2 ** (n * (2 * n + 3)) * g ** (n + 1))


def size_bound(n: int, m: int) -> int:
    """Cardinality bound for a finite semigroup on m generators: the number
    of nonempty words of length at most length_bound(n)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    L = length_bound(n).length_bound
    if m == 1:
        return L
    return (m ** (L + 1) - m) // (m - 1)


def shortest_word_for(result: ClosureResult, A: Mat) -> Word:
    if result.status != "finite":
        raise ValueError("closure did not complete")
    if A not in result.witness:
        raise NotMember("matrix is not in the semigroup")
    return result.witness[A]
