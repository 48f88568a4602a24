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

from .linalg import (_UNROLL_BUDGET, DimensionMismatch, Mat, _compiled, _mat, _product,
                     _reduced)

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

    def evaluate(self, word, start: Mat | None = None) -> Mat:
        """`start` times the letters' product; without `start`, the product
        (the identity for no letters). The package's one numerator fold: an
        integral letter is a `_product` step on the numerators, and a letter
        whose denominator is not 1 a `_reduced` step, whose kernel takes the
        gcd and returns the pair in lowest terms (fetched on the first such
        letter). `_mat` reduces once more at the end, since an integral
        letter can cancel the denominator."""
        mapping, n = self.mapping, self.n
        letters = iter(word)
        if start is None:
            first = next(letters, _END)
            if first is _END:
                return Mat.identity(n)
            start = mapping[first]
        elif start.cols != n:
            raise DimensionMismatch(f"a start of width {start.cols} for {n} x {n} letters")
        rows, num, den = start.rows, start.num, start.den
        times = _product(rows, n, n)
        reduced = None
        for a in letters:
            m = mapping[a]
            if m.den == 1:
                num = times(num, m.num)
            else:
                if reduced is None:
                    reduced = _reduced(rows, n, n)
                num, den = reduced(num, m.num, den * m.den)
        return _mat(rows, n, num, den)


@dataclass
class ClosureResult:
    """The whole set M(Sigma+), in BFS order, with a shortest (lex-least
    among those) witness word per element; a group closure is the monoid,
    with the identity under the empty word. Only a BFS that closed builds
    one."""

    n: int
    witness: dict[Mat, Word]

    def __len__(self) -> int:
        return len(self.witness)

    @property
    def order(self) -> int:
        return len(self.witness)

    @property
    def identity_expressible(self) -> bool:
        return Mat.identity(self.n) in self.witness


DEFER = 8  # the BFS tests its k-th new element for torsion once it has _due(k)


def _due(k: int) -> int:
    """How many elements the BFS holds before it tests its k-th: DEFER * k,
    times floor(log2(k / 256)) from k = 1024 on, so a large closure that
    closes runs far fewer tests than one per DEFER elements (2047, not
    5759, for 46080 elements)."""
    return DEFER * k * max(1, (k >> 9).bit_length())


def _bfs(table: MorphismTable, cap: int, identity: Mat | None = None):
    """Closure of `table` by word length under right multiplication by its
    letters, taken in `table.alphabet` order, keeping the first (so
    shortest, lex-least) word that reaches each element, and stopping at a
    non-torsion one.

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

    Torsion is tested late (see `_due`) but in insertion order, and every
    untested element is tested before a cap is reported, so all is as if
    each were tested on admission. A BFS that closes skips the rest: each
    element of a finite semigroup is torsion (pigeonhole on its powers).
    An infinite one holds a non-torsion element (McNaughton-Zalcstein).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    labels = table.alphabet
    gens = [table.mapping[a] for a in labels]
    k = len(gens)
    store: dict = {}  # matrix -> element number, until the words are spelled
    if identity is not None:
        store[identity] = 0
    mats = [identity]  # by element number; without `identity` the root's is None
    first, final, prefix, suffix = [None], [None], [None], [None]
    right: list = []  # right[u * k + a] is the element u.a
    left: list = []  # left[u * k + b] is the element b.u
    tested, due = 1, _due(1)  # mats[tested:] awaits the torsion test, mats[tested] past `due`
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
                if len(mats) > due:
                    if not is_torsion(mats[tested]):
                        return store, "infinite", _spell(store, mats, prefix, final, labels)[tested]
                    tested += 1
                    due = _due(tested)
            right.append(i)
    del right, left, first, suffix  # the Cayley graphs go before the words come
    _spell(store, mats, prefix, final, labels)
    return store, "finite", None


def _spell(store: dict, mats: list, prefix: list, final: list, labels: tuple) -> list:
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
    (1, -a, -RS, -RBS, ..., -RB^(m-1)S) with that of B. Within the
    product kernels' budget (n^3 <= _UNROLL_BUDGET) it runs compiled
    (see `_berkowitz`)."""
    if 0 < n ** 3 <= _UNROLL_BUDGET:
        return _berkowitz(n)(num)
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


@functools.cache
def _berkowitz(n: int):
    """`_charpoly`'s recurrence for n x n matrices as a function compiled
    once per process, with the n^2 entries unpacked into locals e0, e1, ...
    and every sum written out: w holds B^j S, u[j] the negated t[j], and c
    the coefficients so far. The source is built from integer indices
    alone."""
    lines = ["def charpoly(e):", "".join(f"e{x}," for x in range(n * n)) + " = e"]
    for m in range(n):
        lines.append(f"u1 = e{m * n + m}")
        w = [f"e{i * n + m}" for i in range(m)]  # S
        for j in range(m):
            if j:
                lines.append("".join(f"w{i}," for i in range(m)) + " = " + "".join(
                    "+".join(f"e{i * n + t}*{w[t]}" for t in range(m)) + "," for i in range(m)))
                w = [f"w{i}" for i in range(m)]
            lines.append(f"u{j + 2} = " + "+".join(f"e{m * n + t}*{w[t]}" for t in range(m)))
        lines.append("".join(f"c{k}," for k in range(1, m + 2)) + " = " + "".join(
            (f"c{k}" if k <= m else "") + f"-u{k}"
            + "".join(f"-c{i}*u{k - i}" for i in range(1, k)) + "," for k in range(1, m + 2)))
    lines.append("return [1," + "".join(f"c{k}," for k in range(1, n + 1)) + "]")
    return _compiled(f"<charpoly {n}>", "charpoly", lines)


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


_SPLITS: dict = {}  # a product of cyclotomic polynomials -> `_cyclotomic_split`'s orders


def _cyclotomic_split(p: list) -> tuple | None:
    """The orders k, with repeats, of the cyclotomic factors Phi_k of the
    integer polynomial p (leading coefficient first), dividing out each
    Phi_k with phi(k) <= deg p as often as it divides; None when a factor
    of positive degree is left. A p that splits is kept per process: there
    are finitely many products of cyclotomic polynomials of each degree,
    and conjugate elements share a characteristic polynomial."""
    key = tuple(p)
    orders = _SPLITS.get(key)
    if orders is None:
        orders = []
        for k in _orders(len(p) - 1):
            while (q := _divide(p, _cyclotomic(k))) is not None:
                orders.append(k)
                p = q
        if len(p) > 1:
            return None
        orders = _SPLITS[key] = tuple(orders)
    return orders


def is_torsion(A: Mat) -> bool:
    """Whether A^i = A^j for some i < j.

    That holds iff every eigenvalue is 0 or a root of unity and the
    nonzero ones are semisimple: iff chi_A = x^b * p with p a product of
    cyclotomic polynomials, and A^b * rad(p)(A) = 0. With A = N / den for
    the integer matrix N:

    1. chi_A, whose x^(n-k) coefficient is that of chi_N over den^k, has
       integer coefficients (chi_N by Berkowitz, compiled for n^3 within
       the product kernels' budget, see `_berkowitz`);
    2. p divides out into cyclotomic factors Phi_k, phi(k) <= deg p, each
       as often as it divides, leaving no factor of positive degree (the
       orders of a p that splits are kept, see `_cyclotomic_split`);
    3. if no k repeats, chi_A = x^b * rad(p) vanishes at A (Cayley-
       Hamilton); otherwise the test is the definition, A^b = A^(b+L) with
       L the lcm of the k, which a torsion A passes: its minimal
       polynomial divides x^b * rad(p), a divisor of x^b * (x^L - 1).
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
    orders = _cyclotomic_split(p)
    if orders is None:  # a root that is not a root of unity
        return False
    if len(set(orders)) == len(orders):
        return True
    power = A  # A^L by repeated squaring, from the top bit of L
    for bit in bin(math.lcm(*orders))[3:]:
        power = power * power * A if bit == "1" else power * power
    return (functools.reduce(mul, [A] * b, power)
            == functools.reduce(mul, [A] * b, Mat.identity(n)))


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
    witness, status, word = _bfs(table, cap)
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
