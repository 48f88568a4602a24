"""Finitely generated rational matrix semigroups: the closure with
shortest witness words, enumerated breadth-first by Froidure and Pin's
method, the torsion test, the finiteness decision, and the length / size
bound calculators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

from .linalg import DimensionMismatch, Mat

Word = tuple  # of letters, any hashable labels


class NotMember(KeyError):
    pass


class CapExceeded(RuntimeError):
    """The closure cap was hit before reaching a verdict."""


class InfiniteSemigroup(RuntimeError):
    """The generated semigroup or group is infinite; `witness`, when known,
    is a word over the caller's letters."""

    def __init__(self, witness: Word | None = None):
        super().__init__(f"semigroup is infinite (witness {witness!r})")
        self.witness = witness


DEFAULT_CAP = 1_000_000

_END = object()  # the end of a word for `evaluate`: a letter may be None


@dataclass
class MorphismTable:
    """Alphabet plus the letter-to-matrix map; words evaluate as products.
    A letter is any hashable label: the Shortener's derived letters are
    matrices, each standing for itself."""

    n: int
    alphabet: tuple[object, ...]
    mapping: dict[object, Mat]

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
        first = next(letters, _END)
        if first is _END:
            return Mat.identity(self.n)
        m = self.mapping[first]
        for a in letters:
            m = m * self.mapping[a]
        return m


@dataclass
class ClosureResult:
    """The whole set M(Sigma+), in BFS order, with a shortest (lex-least
    among those) witness word per element. Only a BFS that closed builds
    one."""

    n: int
    witness: dict[Mat, Word]

    def __len__(self) -> int:
        return len(self.witness)

    @property
    def identity_expressible(self) -> bool:
        return Mat.identity(self.n) in self.witness


DEFER = 8  # the BFS tests its k-th new element for torsion once it has DEFER * k


def _bfs(letters, cap: int, identity: Mat | None = None):
    """Closure by word length under right multiplication by `letters`
    (label, matrix) pairs, keeping the first (so shortest, lex-least)
    word that reaches each element, and stopping at a non-torsion one.

    Without `identity` the closure is the semigroup: its first layer is
    the generators themselves. With it, the closure is the monoid, and
    `identity` is stored with the empty word. The cap is checked before
    each insertion. Returns the store (in insertion order), a status
    ("finite", "exceeded_cap" or "infinite") and, unless finite, the word
    that hit the cap or names a non-torsion element. A cap below 1 is
    refused: it admits nothing, so it can give no verdict.

    The enumeration is Froidure and Pin's ("Algorithms for computing
    finite semigroups", 1997). Elements are numbered in insertion order
    from the root 0, the empty product, and a word is kept as a parent
    pointer: its prefix and its last letter. Write an element u as b.s,
    with b its first letter and s its suffix, and let r be the element
    s.a for a letter a. If r's word is s's word then a, u.a is
    multiplied out and looked up. Otherwise r's word is shortlex-less,
    and u.a = b.prefix(r).final(r) is read off the right and left
    Cayley graphs at elements whose rows are already known; the left
    rows of a length level are filled once the next level starts. So
    the store gains the same elements, in the same (element, letter)
    order, as a BFS that multiplies every pair. The words are spelled
    into it, shortest first, once the graphs are dropped.

    Torsion is tested late (see DEFER) but in insertion order, and every
    untested element is tested before a cap is reported, so all is as if
    each were tested on admission. A BFS that closes skips the rest: each
    element of a finite semigroup is torsion (pigeonhole on its powers).
    An infinite one holds a non-torsion element (McNaughton-Zalcstein).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    labels = [a for a, _ in letters]
    gens = [g for _, g in letters]
    k = len(gens)
    store: dict = {}  # matrix -> element number, until the words are spelled
    if identity is not None:
        store[identity] = 0
    mats = [identity]  # by element number; without `identity` the root's is None
    first, final, prefix, suffix = [None], [None], [None], [None]
    right: list = []  # right[u * k + a] is the element u.a
    left: list = []  # left[u * k + b] is the element b.u
    tested = 1  # mats[tested:] awaits the torsion test
    filled = level = 0  # elements below `filled` have left rows; the next level starts at `level`
    for u, m in enumerate(mats):  # reaches what the loop appends
        if u == level:  # every element before u has its right row
            for v in range(filled, u):
                if v:
                    pk, f = prefix[v] * k, final[v]
                    for b in range(k):
                        left.append(right[left[pk + b] * k + f])
                else:
                    left += right[:k]
            filled, level = u, len(mats)
        b, s = first[u], suffix[u]
        for a, r in enumerate(right[s * k:s * k + k] if u else [0] * k):
            if not u:
                p = gens[a]
            elif r == 0:  # s.a is the identity, so u.a = b
                right.append(right[b])
                continue
            elif prefix[r] != s or final[r] != a:  # r's word is shortlex-less than s's then a
                right.append(right[left[prefix[r] * k + b] * k + final[r]])
                continue
            else:
                p = m * gens[a]
            i = store.get(p)
            if i is None:
                if len(store) >= cap:
                    words = _spell(store, mats, prefix, final, labels)
                    for q in range(tested, len(mats)):
                        if not is_torsion(mats[q]):
                            return store, "infinite", words[q]
                    return store, "exceeded_cap", words[u] + (labels[a],)
                i = len(mats)
                store[p] = i
                mats.append(p)
                first.append(b if u else a)
                final.append(a)
                prefix.append(u)
                suffix.append(r)
                if len(mats) > DEFER * tested:
                    if not is_torsion(mats[tested]):
                        return store, "infinite", _spell(store, mats, prefix, final, labels)[tested]
                    tested += 1
            right.append(i)
    del right, left, first, suffix  # the Cayley graphs go before the words come
    _spell(store, mats, prefix, final, labels)
    return store, "finite", None


def _spell(store: dict, mats: list, prefix: list, final: list, labels: list) -> list:
    """Write each element's word over its number in `store`, shortest
    first, and return the words by element number."""
    words = [()]
    for i in range(1, len(mats)):
        w = words[prefix[i]] + (labels[final[i]],)
        words.append(w)
        store[mats[i]] = w
    if mats[0] is not None:
        store[mats[0]] = ()
    return words


def _letters(table: MorphismTable) -> list:
    return [(a, table.mapping[a]) for a in table.alphabet]


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
       Cayley-Hamilton; otherwise one Horner chain per distinct factor
       gives Phi(A), and A^b * rad(p)(A) is their product times A^b.
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
    I = Mat.identity(n)
    chains = []
    for phi in factors:
        H = A + phi[1] * I  # phi is monic
        for c in phi[2:]:
            H = H * A + c * I
        chains.append(H)
    return functools.reduce(mul, chains + [A] * b).is_zero()


@dataclass
class FinitenessResult:
    status: str  # "finite" | "infinite" | "exceeded_cap"
    closure: ClosureResult | None = None
    witness: Word | None = None


def decide_finiteness(table: MorphismTable, cap: int = DEFAULT_CAP) -> FinitenessResult:
    """BFS closure that stops at a non-torsion element (see `_bfs`).

    Total for finite semigroups (the BFS closes) and for infinite ones (a
    non-torsion element appears, by McNaughton-Zalcstein); the cap is a
    safety net that yields "exceeded_cap" without a verdict.
    """
    witness, status, word = _bfs(_letters(table), cap)
    if status == "infinite":
        return FinitenessResult("infinite", witness=word)
    if status == "exceeded_cap":
        return FinitenessResult("exceeded_cap")
    return FinitenessResult("finite", closure=ClosureResult(table.n, witness))


def g_upper_bound(n: int) -> int:
    """(2n)!, an elementary upper bound for the largest finite subgroup
    order in GL(n,Q)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.factorial(2 * n)


def length_bound(n: int) -> int:
    """2^{n(2n+3)} * ((2n)!)^{n+1}: every element of a finite semigroup of
    n x n rational matrices is a generator product of at most this length."""
    return 2 ** (n * (2 * n + 3)) * g_upper_bound(n) ** (n + 1)


def size_bound(n: int, m: int) -> int:
    """Cardinality bound for a finite semigroup on m generators: the number
    of nonempty words of length at most length_bound(n)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    L = length_bound(n)
    if m == 1:
        return L
    return (m ** (L + 1) - m) // (m - 1)


def shortest_word_for(result: ClosureResult, A: Mat) -> Word:
    if A not in result.witness:
        raise NotMember("matrix is not in the semigroup")
    return result.witness[A]
