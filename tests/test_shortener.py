import itertools
import random

import pytest

from semiforge import (CapExceeded, InfiniteSemigroup, Mat, MorphismTable,
                       NotACycle, Shortener, build_image_graph, cycle_rep,
                       group_closure, image, inverse, is_torsion, rank, shorten)
from semiforge import imagegraph as imagegraph_module, shortener as shortener_module
from conftest import (PROJ_X, ROT90, all_words, mat, random_equal_rank_table,
                      random_invertible, signed_partial_perm, table_from)
from oracles import OracleShortener, peel_blocks

# the rotation and a reflection of the xy-plane in Q^3, both of rank 2 with
# that plane as image: their words stay in one SCC of the image graph
ROT_PLANE = mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
REFLECT_PLANE = mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])


def rotation_table():
    return table_from({"a": ROT90})


def rho(table, base, word) -> int:
    """The cycle's order: appending the cycle that many times after any
    word with matching image is a no-op."""
    return group_closure(table_from({"c": cycle_rep(table, base, word)})).order


class TestCycleRep:
    def test_full_rank_cycle(self):
        t = rotation_table()
        base = image(ROT90)
        m = cycle_rep(t, base, ("a",))
        assert m == ROT90
        assert m * base.basis == base.basis * ROT90

    def test_rank_one_cycle(self):
        # scaling projection: the cycle acts on the base line as [2]
        t = table_from({"a": mat([[2, 0], [0, 0]])})
        assert cycle_rep(t, image(t.mapping["a"]), ("a",)) == mat([[2]])

    def test_rejects_non_cycles(self):
        t = table_from({"a": PROJ_X, "b": mat([[0, 0], [0, 1]])})
        base = image(PROJ_X)
        with pytest.raises(NotACycle):
            cycle_rep(t, base, ())
        with pytest.raises(NotACycle):
            cycle_rep(t, base, ("b",))  # wrong image

    def test_rejects_cycle_that_kills_the_base(self):
        # b maps e2 to e1 and kills e1: its image is the base line
        # span(e1) = im(a), but it sends that line to 0
        t = table_from({"a": mat([[1, 0], [0, 0]]), "b": mat([[0, 0], [1, 0]])})
        with pytest.raises(NotACycle, match="kills part of the base space"):
            cycle_rep(t, image(t.mapping["a"]), ("b",))

    def test_multiplicative_on_composed_cycles(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(40):
            table, r = random_equal_rank_table(rng)
            G = build_image_graph(table)
            cycles = _self_cycles(G)
            for V, words in cycles.items():
                for w1 in words:
                    for w2 in words:
                        m1 = cycle_rep(table, V, w1)
                        m2 = cycle_rep(table, V, w2)
                        assert cycle_rep(table, V, w1 + w2) == m1 * m2
                        checked += 1
        assert checked >= 30


def _self_cycles(G, limit=3):
    """For each vertex, a few edge-paths that return to it (each such path
    is a cycle around the vertex)."""
    out = {}
    for V in G.vertices:
        words = []
        # single-letter loops and two-letter round trips
        for a, W in sorted(G.out[V].items()):
            if W == V:
                words.append((a,))
            else:
                for b, X in sorted(G.out[W].items()):
                    if X == V:
                        words.append((a, b))
        if words:
            out[V] = words[:limit]
    return out


class TestRho:
    """rho, the order of a cycle's matrix, as the order of the cyclic
    group the matrix generates."""

    def test_rotation_order(self):
        assert rho(rotation_table(), image(ROT90), ("a",)) == 4

    def test_identity_cycle(self):
        t = table_from({"a": Mat.identity(2)})
        assert rho(t, image(Mat.identity(2)), ("a",)) == 1

    def test_cycle_identity_after_matching_image(self):
        # M(w0) * M(w)^rho = M(w0) whenever im(w0) is the base space
        rng = random.Random(43)
        checked = 0
        for _ in range(40):
            table, r = random_equal_rank_table(rng)
            G = build_image_graph(table)
            for V, words in _self_cycles(G).items():
                heads = [a for a in table.alphabet if G.letter_image[a] == V]
                for w in words:
                    power = table.evaluate(w * rho(table, V, w))
                    for a in heads:
                        m0 = table.mapping[a]
                        assert m0 * power == m0
                        checked += 1
        assert checked >= 30

    def test_order_cap(self):
        # the cycle acts on its base line as [2], which has no finite order
        t = table_from({"a": mat([[2, 0], [0, 0]])})
        with pytest.raises(InfiniteSemigroup):
            rho(t, image(t.mapping["a"]), ("a",))


class TestReduceCycles:
    """A run of cycles around one base space collapses to a group word."""

    def test_rotations_cancel(self):
        s = Shortener(table_from({"a": ROT_PLANE}))
        assert s.shorten(("a",) * 5) == ("a",)
        assert s.shorten(("a",) * 9) == ("a",)
        assert s.shorten(()) == ()

    def test_matches_product(self):
        t = table_from({"a": ROT_PLANE})
        s = Shortener(t)
        for reps in range(1, 13):
            u = s.shorten(("a",) * reps)
            assert t.evaluate(u) == t.evaluate(("a",) * reps)
            # the head letter, then at most 3 rotations
            assert u == ("a",) * (reps % 4 or 4)


class TestShortenWithinScc:
    def test_projection_loop(self):
        # both letters project away the z-axis; a loop in their one SCC
        # keeps its head letter, then a word in the dihedral group of order 8
        t = table_from({"a": ROT_PLANE, "b": REFLECT_PLANE})
        s = Shortener(t)
        for word in all_words(("a", "b"), 7):
            u = s.shorten(word)
            assert u[0] == word[0]
            assert t.evaluate(u) == t.evaluate(word)
            assert len(u) <= min(len(word), 8)


def test_random_equal_rank_table_refuses_too_many_letters():
    # n = 1, r = 1 has only [1] and [-1]; a third letter used to loop forever
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_equal_rank_table(rng, n=1, r=1, letters=3)
    table, r = random_equal_rank_table(rng, n=1, r=1, letters=2)
    assert r == 1 and set(table.mapping.values()) == {mat([[1]]), mat([[-1]])}


class TestShortenMaxRank:
    def test_idempotent_run(self):
        assert shorten(table_from({"a": PROJ_X}), ("a",) * 7) == ("a",)

    def test_preserves_value_randomized(self):
        rng = random.Random(47)
        for _ in range(20):
            table, r = random_equal_rank_table(rng, letters=2)
            G = build_image_graph(table)
            s = Shortener(table)
            for _ in range(5):
                word = _random_walk(rng, G)
                if word is None:
                    continue
                u = s.shorten(word)
                assert table.evaluate(u) == table.evaluate(word)
                assert len(u) <= len(word)


def _random_walk(rng, G, max_len=10):
    a = rng.choice(G.table.alphabet)
    word = [a]
    V = G.letter_image[a]
    for _ in range(rng.randint(0, max_len - 1)):
        options = sorted(G.out[V])
        if not options:
            break
        b = rng.choice(options)
        word.append(b)
        V = G.out[V][b]
    return tuple(word)


class TestShortener:
    def test_power_of_rotation(self):
        assert shorten(rotation_table(), ("a",) * 9) == ("a",)
        assert shorten(rotation_table(), ()) == ()

    def test_infinite_semigroup_rejected(self):
        t = table_from({"a": mat([[1, 1], [0, 1]])})
        with pytest.raises(InfiniteSemigroup):
            shorten(t, ("a", "a"))
        # even with the finiteness gate skipped, the group route notices
        with pytest.raises(InfiniteSemigroup):
            shorten(t, ("a", "a"), assume_finite=True)

    def test_witness_is_a_non_torsion_word_over_the_table(self):
        # with the finiteness gate skipped, infinitude shows inside the
        # shortener, in a group closure over cycle matrices or derived
        # letters; the witness is still spelled in the table's letters
        rng = random.Random(53)
        raised = 0
        for _ in range(600):
            n = rng.randint(1, 3)
            letters = "abc"[:rng.randint(1, 3)]
            table = table_from({a: [[rng.choice((-1, 0, 1, 2)) for _ in range(n)]
                                    for _ in range(n)] for a in letters})
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 7)))
            try:
                shorten(table, word, assume_finite=True)
            except InfiniteSemigroup as exc:
                raised += 1
                w = exc.witness
                assert w is None or (w and set(w) <= set(table.alphabet)
                                     and not is_torsion(table.evaluate(w)))
        assert raised >= 200

    def test_cap_exceeded(self):
        t = rotation_table()
        with pytest.raises(CapExceeded):
            Shortener(t, cap=2)

    def test_group_bound_for_invertible_generators(self):
        t = table_from({"a": ROT90, "b": mat([[1, 0], [0, -1]])})
        s = Shortener(t)
        order = 8  # dihedral group of the square's rotations and a reflection
        for word in all_words(("a", "b"), 5):
            u = s.shorten(word)
            assert t.evaluate(u) == t.evaluate(word)
            assert len(u) <= min(len(word), order - 1)

    def test_mixed_rank_word(self):
        t = table_from({"a": ROT90, "b": PROJ_X})
        s = Shortener(t)
        for word in all_words(("a", "b"), 6):
            u = s.shorten(word)
            assert t.evaluate(u) == t.evaluate(word)
            assert len(u) <= len(word)

    def test_zero_rank_words(self):
        t = table_from({"p": mat([[0, 1], [0, 0]])})
        s = Shortener(t)
        u = s.shorten(("p", "p", "p"))
        assert t.evaluate(u) == Mat.zeros(2, 2)
        assert len(u) <= 3

    def test_memoized_and_deterministic(self):
        t = table_from({"a": ROT90, "b": PROJ_X})
        s1 = Shortener(t)
        s2 = Shortener(t)
        w = ("a", "b", "a", "a", "b", "a", "a", "a")
        assert s1.shorten(w) == s1.shorten(w) == s2.shorten(w)


def _repeats_a_value_with_another_body(table, word) -> bool:
    """Whether two rank-r blocks of `word` have one value but two bodies."""
    segments, _ = peel_blocks(table, word, rank(table.evaluate(word)))
    bodies = {}
    for head, body in segments:
        if bodies.setdefault(table.evaluate((head,) + body), body) != body:
            return True
    return False


@pytest.mark.parametrize("n", range(2, 6))
def test_same_words_as_the_restarting_peel(n):
    """One-pass peel against `OracleShortener`, which restarts every block
    scan and shortens every block body: identical words. Letters are signed
    partial permutations of rank n, n - 1 or n - 2 (a finite semigroup), every
    other table rationally conjugated."""
    rng = random.Random(60 + n)
    repeats = 0
    for i in range(10):
        mats = [signed_partial_perm(rng, n, rng.choice((n, n, n - 1, n - 1, n - 2)))
                for _ in range(rng.randint(2, 3))]
        if i % 2:
            T = random_invertible(rng, n)
            mats = [inverse(T) * m * T for m in mats]
        table = table_from(mats)
        ours = Shortener(table, assume_finite=True)
        oracle = OracleShortener(table, assume_finite=True)
        for length in range(0, 31, 5):
            word = tuple(rng.choice(table.alphabet) for _ in range(length))
            assert ours.shorten(word) == oracle.shorten(word), (table.mapping, word)
            repeats += bool(word) and _repeats_a_value_with_another_body(table, word)
    assert repeats >= 5


def _cycle_letter(rng, n, rows, cols):
    """A signed partial permutation with rows `rows` and columns `cols`: it
    maps span(e_i : i in rows) onto span(e_j : j in cols)."""
    m = [[0] * n for _ in range(n)]
    for i, j in zip(rows, rng.sample(cols, len(cols))):
        m[i][j] = rng.choice((-1, 1))
    return Mat(m)


# a cycle S0 -> S1 -> S2 -> S0 of row and column sets, with a second
# letter on the first edge so that walks have choices
CYCLE_EDGES = {"a": (0, 1), "b": (1, 2), "c": (2, 0), "d": (0, 1)}
LEAVING = {s: [x for x, (u, _) in CYCLE_EDGES.items() if u == s] for s in range(3)}


def _cycle_tables(rng, count, n=5, r=3):
    """Tables of rank-r signed partial permutations on the edges of
    CYCLE_EDGES, every other one rationally conjugated."""
    subsets = [list(s) for s in itertools.combinations(range(n), r)]
    tables = []
    for i in range(count):
        S = rng.sample(subsets, 3)
        mats = {x: _cycle_letter(rng, n, S[s], S[t]) for x, (s, t) in CYCLE_EDGES.items()}
        if i % 2:
            T = random_invertible(rng, n)
            mats = {x: inverse(T) * m * T for x, m in mats.items()}
        tables.append(table_from(mats))
    return tables


def _cycle_words(rng, table, count, walk_lengths, free_lengths):
    """`count` times a walk around CYCLE_EDGES, then a free word over the
    alphabet of `table`, with lengths drawn from the given ranges."""
    for _ in range(count):
        at, walk = rng.randrange(3), []
        for _ in range(rng.randint(*walk_lengths)):
            walk.append(rng.choice(LEAVING[at]))
            at = CYCLE_EDGES[walk[-1]][1]
        yield tuple(walk)
        yield tuple(rng.choice(table.alphabet) for _ in range(rng.randint(*free_lengths)))


def test_warm_shortener_matches_fresh_ones():
    """One warm `Shortener` per table against a fresh `shorten` and the
    restarting peel, on walks around the cycle and free words. Later words
    hit cycle matrices cached by earlier ones, keyed by the cycle word over
    derived letters, which are matrices."""
    rng = random.Random(14)
    words = graphs = 0
    for table in _cycle_tables(rng, 4):
        warm = Shortener(table)
        for word in _cycle_words(rng, table, 8, (4, 14), (8, 20)):
            u = warm.shorten(word)
            assert u == shorten(table, word, assume_finite=True)
            assert u == OracleShortener(table, assume_finite=True).shorten(word)
            assert table.evaluate(u) == table.evaluate(word)
            words += 1
        # every cached cycle matrix is the one its word alone gives: the
        # word's letters are matrices, and its image is the base space
        for w, (m, _) in warm.mprimes.items():
            letters = tuple(dict.fromkeys(w))
            sub = MorphismTable(table.n, letters, {x: x for x in letters})
            assert m == cycle_rep(sub, image(sub.evaluate(w)), w)
        # every cached product and image is the one computed afresh
        for (a, m), p in warm.left.items():
            assert p == table.mapping[a] * m
        for m, V in warm.image_tests.items():
            if isinstance(m, Mat):
                assert V == image(m)
        # every graph built on the shared image and edge tests is the one
        # its alphabet alone gives, in the same order
        graphs += len(warm.graphs)
        for G, _ in warm.graphs.values():
            fresh = build_image_graph(G.table)
            assert G.vertices == fresh.vertices and G.scc_id == fresh.scc_id
            assert [list(G.out[V].items()) for V in G.vertices] == \
                [list(fresh.out[V].items()) for V in fresh.vertices]
    assert words >= 50 and graphs >= 20


def test_no_matrix_is_ranked_twice(monkeypatch):
    """One warm `Shortener` per table, on walks around the cycle and free
    words: the input values and the block passes rank each matrix once,
    whichever word or recursion level meets it again. Calls inside
    `cycle_rep` are left out, since one matrix may have two cycle words."""
    ranked, in_cycle_rep = [], []
    real_cycle_rep = shortener_module.cycle_rep

    def cycle_rep_(*args):
        in_cycle_rep.append(True)
        try:
            return real_cycle_rep(*args)
        finally:
            in_cycle_rep.pop()

    def recording(real):
        def wrapper(m):
            if not in_cycle_rep:
                ranked.append(m)
            return real(m)
        return wrapper

    monkeypatch.setattr(shortener_module, "cycle_rep", cycle_rep_)
    for name in ("image", "rank"):
        monkeypatch.setattr(shortener_module, name, recording(getattr(shortener_module, name)))
    rng = random.Random(28)
    total = 0
    for table in _cycle_tables(rng, 3):
        warm = Shortener(table, assume_finite=True)
        for word in _cycle_words(rng, table, 6, (5, 15), (8, 22)):
            assert table.evaluate(warm.shorten(word)) == table.evaluate(word)
        assert len(set(ranked)) == len(ranked)
        total += len(ranked)
        ranked.clear()
    assert total >= 100


def test_repeated_cycles_are_not_recomputed(monkeypatch):
    calls = []
    real = shortener_module.cycle_rep

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(shortener_module, "cycle_rep", counting)
    t = table_from({"a": ROT_PLANE, "b": REFLECT_PLANE})
    s = Shortener(t)
    s.shorten(("a", "b", "b", "a", "b"))
    seen = len(calls)
    assert seen >= 2
    # the same derived letters (the matrices of a and b) and the same
    # cycles around their one image space, in another order
    word = ("a", "b", "a", "b", "b", "a")
    u = s.shorten(word)
    assert len(calls) == seen
    assert t.evaluate(u) == t.evaluate(word)


def test_image_tests_are_shared(monkeypatch):
    """A graph over letters whose images and edge tests are in the memo
    makes no image or rank call, and equals the graph built without it."""
    calls = []

    def counting(real):
        def wrapper(m):
            calls.append(m)
            return real(m)
        return wrapper

    for name in ("image", "rank"):
        monkeypatch.setattr(imagegraph_module, name, counting(getattr(imagegraph_module, name)))
    t = table_from({"a": ROT_PLANE, "b": REFLECT_PLANE, "p": mat([[1, 0, 0], [0, 0, 0], [0, 0, 1]])})
    memo = {}
    build_image_graph(t, memo)
    assert calls
    calls.clear()
    # the same matrices under other letters, in another order
    renamed = MorphismTable(3, ("q", "r", "s"), {"q": t.mapping["p"], "r": t.mapping["b"],
                                                  "s": t.mapping["a"]})
    G = build_image_graph(renamed, memo)
    assert calls == []
    fresh = build_image_graph(renamed)
    assert (G.vertices, G.out, G.scc_id) == (fresh.vertices, fresh.out, fresh.scc_id)


@pytest.mark.skipif(not __debug__, reason="the self-checks are asserts")
@pytest.mark.parametrize("letter", [ROT_PLANE, ROT90], ids=["within_scc", "group"])
def test_self_checks_catch_a_wrong_group_word(monkeypatch, letter):
    """A group word with one generator too many has another value: the
    self-check of the cycle route (rank 2 of 3) and of the full-rank
    route both refuse it."""
    real = Shortener._group_word
    monkeypatch.setattr(Shortener, "_group_word",
                        lambda self, spelled, target: real(self, spelled, target)
                        + next(iter(spelled.values())))
    with pytest.raises(AssertionError):
        Shortener(table_from({"a": letter})).shorten(("a",) * 5)


def test_group_route_honours_the_cap():
    # the dihedral group of order 8, with the finiteness gate skipped
    t = table_from({"a": ROT90, "b": mat([[1, 0], [0, -1]])})
    with pytest.raises(CapExceeded):
        Shortener(t, assume_finite=True, cap=7).shorten(("a", "b"))
    assert Shortener(t, assume_finite=True, cap=8).shorten(("a", "b")) == ("a", "b")
