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

from functools import reduce

from .grouplat import group_closure
from .imagegraph import ImageGraph, build_image_graph, scc_segment_decompose, scc_shortest_path
from .linalg import Mat, Subspace, image, inverse, rank
from .semigroup import (DEFAULT_CAP, CapExceeded, InfiniteSemigroup, MorphismTable, Word,
                        decide_finiteness, shortest_word_for)


class NotACycle(ValueError):
    pass


def _spell(word: Word, spelled: dict[Mat, Word]) -> Word:
    """`word`, whose letters are matrices, with each letter replaced by the
    word it stands for."""
    return tuple(x for m in word for x in spelled[m])


def cycle_rep(table: MorphismTable, base: Subspace, word) -> Mat:
    """The unique invertible r x r matrix M' with P*M(w) = M'*P, where P
    is the basis of the rank-r base space and w a cycle around it."""
    word = tuple(word)
    if not word:
        raise NotACycle("the empty word is not a cycle")
    mw = table.evaluate(word)
    if image(mw) != base:
        raise NotACycle(f"image of {word!r} is not the base space")
    # rows of P*M(w) lie in the base space; coordinates() checks that too.
    # M'*P = P*M(w) and P has full row rank, so M' is singular exactly when
    # M(w) kills part of the base space
    m = base.coordinates(base.basis * mw)
    if rank(m) < base.dim:
        raise NotACycle(f"{word!r} kills part of the base space")
    return m


class Shortener:
    """Word rewriter for one morphism table; results are deterministic.

    Image graphs, the image and edge tests they are built from, group
    closures, cycle matrices, their inverses and SCC paths are cached
    across calls. Every cache is keyed by values: each invented letter (a
    block product of the rank recursion, a cycle matrix) is its own matrix."""

    def __init__(self, table: MorphismTable, assume_finite: bool = False,
                 cap: int = DEFAULT_CAP):
        self.table = table
        if not assume_finite:
            verdict = decide_finiteness(table, cap)
            if verdict.status == "infinite":
                raise InfiniteSemigroup(verdict.witness)
            if verdict.status == "exceeded_cap":
                raise CapExceeded(f"no finiteness verdict within cap {cap}")
        self.cap = cap
        self.letter_rank = {a: rank(m) for a, m in table.mapping.items()}
        self.graphs: dict = {}
        self.image_tests: dict = {}
        self.groups: dict = {}
        self.mprimes: dict = {}
        self.inverses: dict[Mat, Mat] = {}
        self.paths: dict = {}
        self._memo: dict[Word, Word] = {}

    def shorten(self, word) -> Word:
        word = tuple(word)
        if word not in self._memo:
            self._memo[word] = self._shorten(word)
        return self._memo[word]

    def _group_word(self, spelled: dict[Mat, Word], target: Mat) -> Word:
        """Shortest word for `target` over the invertible matrices in
        `spelled`, at most |group| - 1 letters, spelled out in the words
        they stand for; so is an InfiniteSemigroup witness."""
        gens = tuple(spelled)
        if gens not in self.groups:
            try:
                self.groups[gens] = group_closure(
                    MorphismTable(target.rows, gens, {m: m for m in gens}), self.cap)
            except InfiniteSemigroup as exc:
                raise InfiniteSemigroup(_spell(exc.witness, spelled)) from None
        return _spell(shortest_word_for(self.groups[gens], target), spelled)

    def _within_scc(self, G: ImageGraph, a: object, word: Word, value: Mat | None) -> Word:
        """Rewrite a path that stays in the SCC of im(a): same value after
        the leading letter, length bounded independently of the input.
        `value` is M(a)*M(word), for the self-check (None under -O)."""
        if not word:
            return ()
        table = G.table
        base = G.letter_image[a]

        def sp(x: object, y: object) -> Word:
            key = (table.alphabet, G.letter_image[x].basis, G.letter_image[y].basis)
            if key not in self.paths:
                self.paths[key] = scc_shortest_path(G, G.letter_image[x], G.letter_image[y])
            return self.paths[key]

        # each distinct cycle matrix M', in order of appearance: its first word
        cycles: dict[Mat, Word] = {}

        def cycle(w: Word) -> Mat:
            # a word over matrices fixes its value, whose image is the base
            m = self.mprimes.get(w)
            if m is None:
                m = self.mprimes[w] = cycle_rep(table, base, w)
            cycles.setdefault(m, w)
            return m

        target = Mat.identity(base.dim)
        previous = a  # sp(a, a) is empty
        for b in word:
            around = sp(a, previous) + (b,) + sp(b, a)
            back_and_forth = sp(a, b) + sp(b, a)
            target = target * cycle(around)
            if back_and_forth:
                # the proof appends this cycle order-minus-one times; its group
                # element is simply the inverse
                m = cycle(back_and_forth)
                if m not in self.inverses:
                    self.inverses[m] = inverse(m)
                target = target * self.inverses[m]
            previous = b
        # a witness over the M' spells a non-torsion word: P*M(w)^k = M'^k*P
        u = self._group_word(cycles, target) + sp(a, previous)
        assert table.evaluate((a,) + u) == value
        return word if len(word) < len(u) else u

    def _max_rank(self, table: MorphismTable, word: Word) -> Word:
        """Equal-rank case: rewrite a rank-r word over rank-r generators."""
        if table.alphabet not in self.graphs:
            self.graphs[table.alphabet] = build_image_graph(table, self.image_tests)
        G = self.graphs[table.alphabet]
        segments = scc_segment_decompose(G, word)
        # the self-checks compare against each segment's value, computed once
        # from the input (and not at all under -O), and against their product
        values = [table.evaluate((head,) + body) if __debug__ else None
                  for head, body in segments]
        u = tuple(x for (head, body), value in zip(segments, values)
                  for x in (head,) + self._within_scc(G, head, body, value))
        assert table.evaluate(u) == reduce(Mat.__mul__, values)
        return word if len(word) < len(u) else u

    def _shorten(self, word: Word) -> Word:
        table = self.table
        if not word:
            return ()
        value = table.evaluate(word)
        r = rank(value)
        n = table.n
        if r == n:
            # every letter is invertible: the group route, each matrix spelled by its first letter
            used = set(word)
            spelled: dict[Mat, Word] = {}
            for a in table.alphabet:
                if a in used:
                    spelled.setdefault(table.mapping[a], (a,))
            u = self._group_word(spelled, value)
            assert table.evaluate(u) == value
            return word if len(word) < len(u) else u

        # one right-to-left pass cuts rank-r blocks (head letter + body of
        # rank > r) and keeps their products; the rest has rank > r. A block
        # ends at any letter of rank r: rank(M(a)*m) <= rank M(a) = r, and no
        # subword of a rank-r word has rank below r
        blocks: list[tuple[int, int, Mat]] = []
        end, m = len(word), None
        for j in range(len(word) - 1, -1, -1):
            a = word[j]
            m = table.mapping[a] if m is None else table.mapping[a] * m
            if self.letter_rank[a] == r or rank(m) == r:
                blocks.append((j, end, m))
                end, m = j, None

        short_prefix = self.shorten(word[:end])
        # each block value is a derived letter, spelled by its first block
        replacement: dict[Mat, Word] = {}
        for start, stop, m in reversed(blocks):
            if m not in replacement:
                head, short_body = word[start], self.shorten(word[start + 1:stop])
                assert table.mapping[head] * table.evaluate(short_body) == m
                replacement[m] = (head,) + short_body
        sub_table = MorphismTable(n, tuple(replacement), {m: m for m in replacement})
        try:
            x = self._max_rank(sub_table, tuple(m for *_, m in reversed(blocks)))
        except InfiniteSemigroup as exc:
            raise InfiniteSemigroup(_spell(exc.witness, replacement)) from None
        u = short_prefix + _spell(x, replacement)
        assert table.evaluate(u) == value
        return word if len(word) < len(u) else u


def shorten(table: MorphismTable, word, assume_finite: bool = False,
            cap: int = DEFAULT_CAP) -> Word:
    return Shortener(table, assume_finite=assume_finite, cap=cap).shorten(word)
