import random

import pytest

from semiforge import (CapExceeded, GroupInfinite, InfiniteSemigroup, Mat,
                       NotACycle, Shortener, build_image_graph, cycle_rep,
                       group_closure, image, shorten)
from conftest import (PROJ_X, ROT90, all_words, mat, random_equal_rank_table,
                      table_from)

# the rotation and a reflection of the xy-plane in Q^3, both of rank 2 with
# that plane as image: their words stay in one SCC of the image graph
ROT_PLANE = mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
REFLECT_PLANE = mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])


def rotation_table():
    return table_from({"a": ROT90})


def rho(table, base, word) -> int:
    """The cycle's order: appending the cycle that many times after any
    word with matching image is a no-op."""
    return group_closure({"c": cycle_rep(table, base, word)}).order


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
        with pytest.raises(GroupInfinite):
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
