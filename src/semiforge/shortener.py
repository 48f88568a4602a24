"""Constructive rewriting of semigroup words into short equivalents.

The pipeline follows the finiteness structure of the generated semigroup:
cycles around a fixed image space act through small invertible matrices
that form a finite group, so long runs of cycles collapse to short group
words; segments between SCCs are few; and a rank-stratified recursion
reduces the general case to the equal-rank case. The result always
evaluates to the same matrix as the input and is never longer (ties keep
the computed word).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .grouplat import FiniteGroupClosure, GroupInfinite, group_closure, short_product
from .imagegraph import (ImageGraph, NotSameSCC, RankDropped, build_image_graph,
                         scc_segment_decompose, scc_shortest_path)
from .linalg import Mat, Subspace, image, inverse, kernel, rank
from .exterior import trivial_intersection
from .semigroup import CapExceeded, MorphismTable, Word, decide_finiteness, default_cap


class NotACycle(ValueError):
    pass


class OrderCapExceeded(RuntimeError):
    pass


class InfiniteSemigroup(RuntimeError):
    def __init__(self, witness: Word | None = None):
        super().__init__(f"semigroup is infinite (witness {witness!r})")
        self.witness = witness


@dataclass(frozen=True)
class CycleFrame:
    """A rank-r base space together with its canonical basis matrix P."""

    base_space: Subspace

    @property
    def P(self) -> Mat:
        return self.base_space.basis


@dataclass(frozen=True)
class CycleRep:
    """The unique invertible r x r matrix with P*M(w) = mprime*P for a
    cycle w around the frame's base space."""

    frame: CycleFrame
    word: Word
    mprime: Mat


def cycle_rep(table: MorphismTable, frame: CycleFrame, word) -> CycleRep:
    word = tuple(word)
    if not word:
        raise NotACycle("the empty word is not a cycle")
    mw = table.evaluate(word)
    base = frame.base_space
    if image(mw) != base:
        raise NotACycle(f"image of {word!r} is not the base space")
    if not trivial_intersection(base, kernel(mw)):
        raise NotACycle(f"{word!r} kills part of the base space")
    # rows of P*M(w) lie in the base space; coordinates() checks that too
    mprime = base.coordinates(frame.P * mw)
    return CycleRep(frame, word, mprime)


def rho(rep: CycleRep) -> int:
    """Multiplicative order of the cycle's matrix; appending the cycle that
    many times after any word with matching image is a no-op."""
    r = rep.mprime.rows
    ident = Mat.identity(r)
    cap = factorial(2 * r) if r else 1
    power = rep.mprime
    k = 1
    while power != ident:
        power = power * rep.mprime
        k += 1
        if k > cap:
            raise OrderCapExceeded(f"order exceeds (2r)! = {cap}; the semigroup is infinite")
    return k


class _Caches:
    """Shared memoization across one shortening run (all value-keyed, so
    derived alphabets reuse entries)."""

    def __init__(self):
        self.graphs: dict = {}
        self.groups: dict = {}
        self.mprimes: dict = {}
        self.paths: dict = {}

    def graph(self, table: MorphismTable) -> ImageGraph:
        k = table.key()
        if k not in self.graphs:
            self.graphs[k] = build_image_graph(table)
        return self.graphs[k]

    def group(self, gen_items: tuple) -> FiniteGroupClosure:
        if gen_items not in self.groups:
            self.groups[gen_items] = group_closure(dict(gen_items))
        return self.groups[gen_items]

    def mprime(self, table: MorphismTable, frame: CycleFrame, word: Word) -> Mat:
        value = table.evaluate(word)
        k = (frame.base_space.basis, value)
        if k not in self.mprimes:
            self.mprimes[k] = cycle_rep(table, frame, word).mprime
        return self.mprimes[k]

    def path(self, G: ImageGraph, V1: Subspace, V2: Subspace) -> Word:
        k = (G.table.key(), V1.basis, V2.basis)
        if k not in self.paths:
            self.paths[k] = scc_shortest_path(G, V1, V2)
        return self.paths[k]


def _reduce_to_target(table: MorphismTable, frame: CycleFrame,
                      candidates: list[Word], target: Mat, caches: _Caches) -> list[Word]:
    """Pick cycles from `candidates` whose representation matrices multiply
    to `target`; at most |group| - 1 of them."""
    labels: dict[Mat, str] = {}
    gens: dict[str, Mat] = {}
    label_word: dict[str, Word] = {}
    for w in candidates:
        m = caches.mprime(table, frame, w)
        if m not in labels:
            name = f"c{len(labels)}"
            labels[m] = name
            gens[name] = m
            label_word[name] = w
    gen_items = tuple(sorted(gens.items(), key=lambda kv: kv[0]))
    try:
        H = caches.group(gen_items)
        witness = short_product(H, target)
    except GroupInfinite as exc:
        raise InfiniteSemigroup(exc.witness) from exc
    return [label_word[label] for label in witness]


def reduce_cycles(table: MorphismTable, frame: CycleFrame, cycles) -> list[Word]:
    """Replace a run of cycles around one base space by a subsequence with
    the same effect after any word whose image is that base space."""
    cycles = [tuple(w) for w in cycles]
    caches = _Caches()
    target = Mat.identity(frame.base_space.dim)
    for w in cycles:
        target = target * caches.mprime(table, frame, w)
    if not cycles:
        return []
    return _reduce_to_target(table, frame, cycles, target, caches)


def shorten_within_scc(G: ImageGraph, a: str, word, _caches: _Caches | None = None) -> Word:
    """Rewrite a path that stays in the SCC of im(a): same value after the
    leading letter, length bounded independently of the input."""
    word = tuple(word)
    if not word:
        return ()
    caches = _caches if _caches is not None else _Caches()
    table = G.table
    base = G.letter_image[a]
    frame = CycleFrame(base)

    # validate that `word` really is a path from im(a) inside its SCC
    V = base
    for b in word:
        nxt = G.out[V].get(b)
        if nxt is None:
            raise RankDropped(f"no edge labelled {b!r} from {V!r}")
        V = nxt
    home = G.scc_id[base]
    for b in word:
        if G.scc_id[G.letter_image[b]] != home:
            raise NotSameSCC(f"letter {b!r} leaves the SCC of the segment head")

    def sp(x: str, y: str) -> Word:
        return caches.path(G, G.letter_image[x], G.letter_image[y])

    candidates: list[Word] = []
    target = Mat.identity(base.dim)
    previous: str | None = None
    for b in word:
        if previous is None:
            around = (b,) + sp(b, a)
        else:
            around = sp(a, previous) + (b,) + sp(b, a)
        back_and_forth = sp(a, b) + sp(b, a)
        target = target * caches.mprime(table, frame, around)
        candidates.append(around)
        if back_and_forth:
            # the proof appends this cycle order-minus-one times; its group
            # element is simply the inverse
            target = target * inverse(caches.mprime(table, frame, back_and_forth))
            candidates.append(back_and_forth)
        previous = b
    tail = sp(a, word[-1])
    chosen = _reduce_to_target(table, frame, candidates, target, caches)
    u = tuple(x for w in chosen for x in w) + tail
    assert table.evaluate((a,) + u) == table.evaluate((a,) + word)
    return word if len(word) < len(u) else u


def shorten_max_rank(table: MorphismTable, word, _caches: _Caches | None = None) -> Word:
    """Equal-rank case: rewrite any rank-r word over rank-r generators."""
    word = tuple(word)
    if not word:
        return ()
    caches = _caches if _caches is not None else _Caches()
    G = caches.graph(table)
    segments = scc_segment_decompose(G, word)
    pieces: list[str] = []
    for head, body in segments:
        reduced = shorten_within_scc(G, head, body, caches)
        pieces.append(head)
        pieces.extend(reduced)
    u = tuple(pieces)
    assert table.evaluate(u) == table.evaluate(word)
    return word if len(word) < len(u) else u


class Shortener:
    """Word rewriter for one morphism table; caches graphs, groups and
    cycle representations across calls, results are deterministic."""

    def __init__(self, table: MorphismTable, assume_finite: bool = False,
                 cap: int | None = None):
        self.table = table
        self.cap = default_cap() if cap is None else cap
        if not assume_finite:
            verdict = decide_finiteness(table, self.cap)
            if verdict.status == "infinite":
                raise InfiniteSemigroup(verdict.witness)
            if verdict.status == "exceeded_cap":
                raise CapExceeded(f"no finiteness verdict within cap {self.cap}")
        self._caches = _Caches()
        self._memo: dict[Word, Word] = {}

    def shorten(self, word) -> Word:
        word = tuple(word)
        if word not in self._memo:
            self._memo[word] = self._shorten(word)
        return self._memo[word]

    def _shorten(self, word: Word) -> Word:
        table = self.table
        if not word:
            return ()
        value = table.evaluate(word)
        r = rank(value)
        n = table.n
        if r == n:
            # every letter of the word is invertible; use the group route
            letters = tuple(a for a in table.alphabet if a in set(word))
            gen_items = tuple((a, table.mapping[a]) for a in letters)
            try:
                H = self._caches.group(gen_items)
                u = short_product(H, value)
            except GroupInfinite as exc:
                raise InfiniteSemigroup(exc.witness) from exc
            return word if len(word) < len(u) else u

        # peel rank-r suffixes from the right; each peeled block (head
        # letter + remainder) has rank exactly r, remainders rank > r
        segments: list[tuple[str, Word]] = []
        rest = word
        while rest:
            found = None
            m = Mat.identity(n)
            for j in range(len(rest) - 1, -1, -1):
                m = table.mapping[rest[j]] * m
                if rank(m) == r:
                    found = j
                    break
            if found is None:
                break
            segments.insert(0, (rest[found], rest[found + 1:]))
            rest = rest[:found]
        prefix = rest  # rank > r (possibly empty)

        short_prefix = self.shorten(prefix)
        derived: dict[Mat, tuple[str, Word]] = {}
        letters: list[str] = []
        mapping: dict[str, Mat] = {}
        derived_word: list[str] = []
        for head, body in segments:
            short_body = self.shorten(body)
            m = table.mapping[head] * table.evaluate(short_body)
            assert rank(m) == r
            if m not in derived:
                name = f"s{len(derived)}"
                derived[m] = (name, (head,) + short_body)
                letters.append(name)
                mapping[name] = m
            derived_word.append(derived[m][0])
        sub_table = MorphismTable(n, tuple(letters), mapping)
        x = shorten_max_rank(sub_table, tuple(derived_word), self._caches)
        replacement = {name: w for name, w in derived.values()}
        expanded = tuple(letter for b in x for letter in replacement[b])
        u = short_prefix + expanded
        assert table.evaluate(u) == value
        return word if len(word) < len(u) else u


def shorten(table: MorphismTable, word, assume_finite: bool = False,
            cap: int | None = None) -> Word:
    return Shortener(table, assume_finite=assume_finite, cap=cap).shorten(word)
