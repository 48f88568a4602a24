"""Former library code kept as independent oracles for the tests.

- The exterior algebra of Q^n (`MultiVector`, `wedge`, `iota`): the
  paper's embedding of a subspace as the wedge of its canonical basis
  rows. Two subspaces intersect trivially iff the wedge of their
  embeddings is nonzero; the library decides that by a rank instead.
- `prefix_scan_decompose`: the SCC segmentation as it was before it
  became a walk on the image graph. It multiplies out every prefix and
  checks its rank.
- `kernel_edges`: the image graph's edges from explicit kernels, as
  `build_image_graph` once computed them.
- `oracle_reach_bounded`: the VASS breadth-first search as it was before
  it indexed the transitions by source state. Every dequeue scans all
  transitions and builds a `Configuration` per successor.
- `oracle_forward_space`: the forward space of a weighted automaton as
  it was before it moved to integer rows. It multiplies 1 x n `Mat` rows
  by the letter matrices.
- `oracle_integerize`: the integerization as it was before it became a
  fixpoint over the generators. It takes one HNF per group element and
  conjugates every element to check it.
- `oracle_tarjan`: the image graph's SCCs as they were before Kosaraju's
  two traversals replaced them. It keeps Tarjan's index, lowlink and
  on-stack bookkeeping in one iterative DFS.
- `oracle_bfs`: the closure BFS as it was before it deferred the torsion
  test. It tests every element as it admits it.
- `oracle_minimal_polynomial`: the minimal polynomial as it was before it
  became a left kernel of the stacked powers. It reduces each power
  against the earlier ones by hand, keeping each row's combination.
- `OracleShortener`: the `Shortener` with its rank peel as it was before
  it became one pass. Every block scan restarts from the identity, and
  every block body is shortened, even when an earlier block already gave
  its value a derived letter.
"""

import math
from collections import deque
from fractions import Fraction
from operator import mul
from typing import Sequence

from semiforge import (Configuration, InfiniteSemigroup, Mat, MorphismTable, ReachResult,
                       Shortener, Subspace, det, inverse, kernel, rank, trivial_intersection)
from semiforge.exterior import AmbientMismatch
from semiforge import semigroup
from semiforge.grouplat import _hnf_rows
from semiforge.imagegraph import RankDropped
from semiforge.linalg import DimensionMismatch, _frac, _mat, image, stack
from semiforge.shortener import _spell


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


def prefix_scan_decompose(G, word):
    """scc_segment_decompose by products: every prefix is multiplied out
    and must keep rank G.rank; then letters are grouped by the SCC of
    their image."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    m = Mat.identity(G.table.n)
    for i, a in enumerate(word):
        m = m * G.table.mapping[a]
        if rank(m) != G.rank:
            raise RankDropped(f"prefix {word[:i + 1]!r} leaves rank {G.rank}")
    segments = []
    head = word[0]
    current = G.scc_id[G.letter_image[head]]
    body = []
    for a in word[1:]:
        cid = G.scc_id[G.letter_image[a]]
        if cid == current:
            body.append(a)
        else:
            segments.append((head, tuple(body)))
            head, current, body = a, cid, []
    segments.append((head, tuple(body)))
    return segments


def kernel_edges(G):
    """The edge set {(V, a): V meets ker M(a) trivially} over the vertices
    of G, computed from left kernels."""
    kernels = {a: kernel(G.table.mapping[a]) for a in G.table.alphabet}
    return {(V, a) for V in G.vertices for a in G.table.alphabet
            if trivial_intersection(V, kernels[a])}


def _apply(t, v):
    # column-vector update: w = A*v + b, on the numerators (A is integral)
    a, d = t.matrix.num, len(v)
    return tuple(sum(map(mul, a[i * d:(i + 1) * d], v)) + b for i, b in enumerate(t.offset))


def oracle_reach_bounded(V, source, target, budget):
    """BFS over configurations, spending `budget` dequeues."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if source == target:
        return ReachResult("reached", ())
    queue = deque([(source, ())])
    visited = {source}
    spent = 0
    while queue and spent < budget:
        c, path = queue.popleft()
        spent += 1
        for i, t in enumerate(V.transitions):
            if t.source != c.state:
                continue
            nxt = Configuration(t.target, _apply(t, c.vector))
            if nxt in visited:
                continue
            if nxt == target:
                return ReachResult("reached", path + (i,))
            visited.add(nxt)
            queue.append((nxt, path + (i,)))
    return ReachResult("not_within_budget")


def oracle_forward_space(A):
    """span{alpha * M(w) : w over the alphabet}, one `Mat` row product at
    a time."""
    mats = [A.table.mapping[a] for a in A.alphabet]
    start = Mat.row_vector(A.alpha)
    space = image(start)
    frontier = [start] if space.dim else []
    while frontier:
        fresh = []
        for v in frontier:
            for m in mats:
                u = v * m
                if not space.contains(u.num):
                    space = image(stack(space.basis, u))
                    fresh.append(u)
        frontier = fresh
    return space


def oracle_integerize(G):
    """integerize by rows of every element: the HNF basis of the lattice
    spanned by the rows of all of G, re-reduced after each element, then
    every element conjugated and checked."""
    n = G.n
    d = math.lcm(*(m.den for m in G.witness))
    rows = []
    for m in G.witness:
        rows.extend([x * (d // m.den) for x in r] for r in m.int_rows())
        rows = _hnf_rows(rows, n)
    if len(rows) != n:
        raise InfiniteSemigroup()
    C = Fraction(1, d) * Mat(rows, cols=n)
    Cinv = inverse(C)
    for m in G.witness:
        conj = C * m * Cinv
        if not conj.is_integral() or abs(det(conj)) != 1:
            raise InfiniteSemigroup()
    return C


def oracle_tarjan(vertices, neighbors):
    """Iterative Tarjan; components come out sinks-first."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[list] = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(neighbors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(neighbors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def oracle_bfs(letters, cap, identity=None):
    """`semigroup._bfs` with the torsion test run on each element as it is
    admitted, layer by layer; the same result contract."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    store = {}
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
                if not semigroup.is_torsion(p):
                    return store, "infinite", u
                fresh.append(p)
        frontier = fresh
    return store, "finite", None


def oracle_minimal_polynomial(A: Mat) -> tuple:
    """Monic minimal polynomial of A, constant term first.

    With A = N / den for the integer matrix N, the flattened powers N^0,
    N^1, ... are reduced against each other, fraction-free, while each
    reduced row keeps its combination of the powers. The first power that
    reduces to zero gives the dependence sum c_j N^j = 0, that is
    sum c_j den^j A^j = 0.

    The 0x0 matrix gets the unit polynomial 1.
    """
    if not A.is_square():
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    n = A.rows
    if n == 0:
        return (Fraction(1),)
    N = _mat(n, n, A.num, 1)
    reduced = []  # (pivot, row, combination) for the independent powers so far
    power = Mat.identity(n)
    for k in range(n + 1):
        row = list(power.num)
        comb = [int(j == k) for j in range(n + 1)]
        for p, prow, pcomb in reduced:
            f = row[p]
            if f:
                g = prow[p]
                row = [g * x - f * y for x, y in zip(row, prow)]
                comb = [g * x - f * y for x, y in zip(comb, pcomb)]
        if not any(row):
            lead = comb[k] * A.den ** k
            return tuple(Fraction(c * A.den ** j, lead) for j, c in enumerate(comb[:k + 1]))
        g = math.gcd(*row, *comb)
        reduced.append((next(j for j, x in enumerate(row) if x),
                        [x // g for x in row], [x // g for x in comb]))
        power = power * N
    raise AssertionError("minimal polynomial of degree <= n must exist")


def peel_blocks(table, word, r):
    """The rank-r blocks of `word` as (head letter, body) pairs, left to
    right, and the prefix of rank > r they leave: each peel scans from the
    right end of what is left, from the identity, until the product first
    has rank r."""
    segments = []
    rest = word
    while rest:
        found = None
        m = Mat.identity(table.n)
        for j in range(len(rest) - 1, -1, -1):
            m = table.mapping[rest[j]] * m
            if rank(m) == r:
                found = j
                break
        if found is None:
            break
        segments.insert(0, (rest[found], rest[found + 1:]))
        rest = rest[:found]
    return segments, rest


class OracleShortener(Shortener):
    """`Shortener` whose `_shorten` shortens the body of every peeled block
    and takes the value of the shortened block as its derived letter."""

    def _shorten(self, word):
        table = self.table
        if not word:
            return ()
        value = table.evaluate(word)
        r = rank(value)
        n = table.n
        if r == n:
            used = set(word)
            spelled = {}
            for a in table.alphabet:
                if a in used:
                    spelled.setdefault(table.mapping[a], (a,))
            u = self._group_word(spelled, value)
            return word if len(word) < len(u) else u
        segments, prefix = peel_blocks(table, word, r)
        short_prefix = self.shorten(prefix)
        derived = {}
        derived_word = []
        for head, body in segments:
            short_body = self.shorten(body)
            m = table.mapping[head] * table.evaluate(short_body)
            assert rank(m) == r
            if m not in derived:
                derived[m] = (m, (head,) + short_body)
            derived_word.append(derived[m][0])
        sub_table = MorphismTable(n, tuple(name for name, _ in derived.values()),
                                  {name: m for m, (name, _) in derived.items()})
        replacement = dict(derived.values())
        try:
            x = self._max_rank(sub_table, tuple(derived_word))
        except InfiniteSemigroup as exc:
            raise InfiniteSemigroup(_spell(exc.witness, replacement)) from None
        u = short_prefix + _spell(x, replacement)
        assert table.evaluate(u) == value
        return word if len(word) < len(u) else u
