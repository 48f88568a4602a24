"""Finitely generated rational matrix semigroups: BFS closure with
shortest witness words, the torsion test, the finiteness decision, and
the length / size bound calculators.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import polys
from .linalg import Mat, minimal_polynomial

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
    that hit the cap or names a non-torsion element.
    """
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
    if cap < 1:
        raise ValueError("cap must be >= 1")
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


def is_torsion(A: Mat) -> bool:
    """Whether A^i = A^j for some i < j.

    Via the minimal polynomial mu = x^a * q: torsion iff q is squarefree
    and all roots of q are roots of unity. An eigenvalue of order k has
    phi(k) <= deg q, so it suffices to check q | x^L - 1 for L the lcm of
    all such k (and k <= 2*(deg q)^2 since phi(k) >= sqrt(k/2)).
    """
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
    orders = [k for k in range(1, 2 * d * d + 1) if _totient(k) <= d]
    L = math.lcm(*orders)
    return polys.pow_x_mod(L, q) == polys.ONE


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
