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

from .grouplat import GroupInfinite, group_closure, short_product
from .imagegraph import ImageGraph, build_image_graph, scc_segment_decompose, scc_shortest_path
from .linalg import Mat, Subspace, image, inverse, kernel, rank
from .exterior import trivial_intersection
from .semigroup import CapExceeded, MorphismTable, Word, decide_finiteness, default_cap


class NotACycle(ValueError):
    pass


class InfiniteSemigroup(RuntimeError):
    def __init__(self, witness: Word | None = None):
        super().__init__(f"semigroup is infinite (witness {witness!r})")
        self.witness = witness


def cycle_rep(table: MorphismTable, base: Subspace, word) -> Mat:
    """The unique invertible r x r matrix M' with P*M(w) = M'*P, where P
    is the basis of the rank-r base space and w a cycle around it."""
    word = tuple(word)
    if not word:
        raise NotACycle("the empty word is not a cycle")
    mw = table.evaluate(word)
    if image(mw) != base:
        raise NotACycle(f"image of {word!r} is not the base space")
    if not trivial_intersection(base, kernel(mw)):
        raise NotACycle(f"{word!r} kills part of the base space")
    # rows of P*M(w) lie in the base space; coordinates() checks that too
    return base.coordinates(base.basis * mw)


class Shortener:
    """Word rewriter for one morphism table; results are deterministic.

    Image graphs, group closures, cycle matrices and SCC paths are cached
    across calls. The caches are keyed by value, so the derived alphabets
    of the rank recursion reuse entries."""

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
        self.graphs: dict = {}
        self.groups: dict = {}
        self.mprimes: dict = {}
        self.paths: dict = {}
        self._memo: dict[Word, Word] = {}

    def shorten(self, word) -> Word:
        word = tuple(word)
        if word not in self._memo:
            self._memo[word] = self._shorten(word)
        return self._memo[word]

    def _group_word(self, gens: tuple, target: Mat) -> Word:
        """Shortest word over the (label, invertible matrix) pairs `gens`
        for `target`, at most |group| - 1 letters."""
        try:
            if gens not in self.groups:
                self.groups[gens] = group_closure(dict(gens))
            return short_product(self.groups[gens], target)
        except GroupInfinite as exc:
            raise InfiniteSemigroup(exc.witness) from exc

    def _within_scc(self, G: ImageGraph, a: str, word: Word) -> Word:
        """Rewrite a path that stays in the SCC of im(a): same value after
        the leading letter, length bounded independently of the input."""
        if not word:
            return ()
        table = G.table
        base = G.letter_image[a]

        def sp(x: str, y: str) -> Word:
            key = (table.key(), G.letter_image[x].basis, G.letter_image[y].basis)
            if key not in self.paths:
                self.paths[key] = scc_shortest_path(G, G.letter_image[x], G.letter_image[y])
            return self.paths[key]

        # distinct cycle matrices, labelled c0, c1, ... in order of appearance
        cycles: dict[Mat, tuple[str, Word]] = {}

        def cycle(w: Word) -> Mat:
            key = (base.basis, table.evaluate(w))
            if key not in self.mprimes:
                self.mprimes[key] = cycle_rep(table, base, w)
            m = self.mprimes[key]
            if m not in cycles:
                cycles[m] = (f"c{len(cycles)}", w)
            return m

        target = Mat.identity(base.dim)
        previous: str | None = None
        for b in word:
            if previous is None:
                around = (b,) + sp(b, a)
            else:
                around = sp(a, previous) + (b,) + sp(b, a)
            back_and_forth = sp(a, b) + sp(b, a)
            target = target * cycle(around)
            if back_and_forth:
                # the proof appends this cycle order-minus-one times; its group
                # element is simply the inverse
                target = target * inverse(cycle(back_and_forth))
            previous = b
        tail = sp(a, word[-1])
        gens = tuple(sorted((label, m) for m, (label, _) in cycles.items()))
        label_word = dict(cycles.values())
        u = tuple(x for label in self._group_word(gens, target) for x in label_word[label]) + tail
        assert table.evaluate((a,) + u) == table.evaluate((a,) + word)
        return word if len(word) < len(u) else u

    def _max_rank(self, table: MorphismTable, word: Word) -> Word:
        """Equal-rank case: rewrite a rank-r word over rank-r generators."""
        key = table.key()
        if key not in self.graphs:
            self.graphs[key] = build_image_graph(table)
        G = self.graphs[key]
        u = tuple(x for head, body in scc_segment_decompose(G, word)
                  for x in (head,) + self._within_scc(G, head, body))
        assert table.evaluate(u) == table.evaluate(word)
        return word if len(word) < len(u) else u

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
            u = self._group_word(tuple((a, table.mapping[a]) for a in letters), value)
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
        derived_word: list[str] = []
        for head, body in segments:
            short_body = self.shorten(body)
            m = table.mapping[head] * table.evaluate(short_body)
            assert rank(m) == r
            if m not in derived:
                derived[m] = (f"s{len(derived)}", (head,) + short_body)
            derived_word.append(derived[m][0])
        sub_table = MorphismTable(n, tuple(name for name, _ in derived.values()),
                                  {name: m for m, (name, _) in derived.items()})
        x = self._max_rank(sub_table, tuple(derived_word))
        replacement = dict(derived.values())
        u = short_prefix + tuple(letter for b in x for letter in replacement[b])
        assert table.evaluate(u) == value
        return word if len(word) < len(u) else u


def shorten(table: MorphismTable, word, assume_finite: bool = False,
            cap: int | None = None) -> Word:
    return Shortener(table, assume_finite=assume_finite, cap=cap).shorten(word)
