import random
from math import comb

import pytest

from semiforge import (Mat, MixedRankGenerators, NotSameSCC, RankDropped,
                       build_image_graph, image, inverse, scc_segment_decompose,
                       scc_shortest_path, to_dot)
from semiforge.imagegraph import _sccs
from conftest import (PROJ_X, PROJ_Y, ROT90, all_words, bfs_distance, mat, random_invertible,
                      random_equal_rank_table, table_from)
from oracles import kernel_edges, oracle_tarjan, prefix_scan_decompose


def cross_edges(G):
    """The edges (v, a, w) of G whose ends lie in different SCCs."""
    return {(v, a, w) for v in G.vertices for a, w in G.out[v].items()
            if G.scc_id[v] != G.scc_id[w]}


def two_projection_table():
    return table_from({"a": PROJ_X, "b": PROJ_Y})


class TestBuild:
    def test_rejects_mixed_ranks(self):
        with pytest.raises(MixedRankGenerators):
            build_image_graph(table_from({"a": ROT90, "b": PROJ_X}))

    def test_two_projections(self):
        G = build_image_graph(two_projection_table())
        assert G.rank == 1
        assert len(G.vertices) == 2
        # each projection fixes its own axis and kills the other, so the
        # only edges are the self loops
        for a in ("a", "b"):
            V = G.letter_image[a]
            assert G.out[V] == {a: V}
        assert G.num_sccs == 2
        assert cross_edges(G) == set()

    def test_full_rank_single_vertex(self):
        G = build_image_graph(table_from({"a": ROT90}))
        assert len(G.vertices) == 1
        assert G.num_sccs == 1
        V = G.vertices[0]
        assert G.out[V] == {"a": V}

    def test_rank_one_cycle_between_lines(self):
        # a: span(e1) -> span(e2), b: back again; one SCC of two vertices
        a = mat([[0, 1], [0, 0]])
        b = mat([[0, 0], [1, 0]])
        G = build_image_graph(table_from({"a": a, "b": b}))
        assert len(G.vertices) == 2
        assert G.num_sccs == 1
        va, vb = G.letter_image["a"], G.letter_image["b"]
        assert G.out[va] == {"b": vb}
        assert G.out[vb] == {"a": va}

    def test_scc_ids_reverse_topological(self):
        # the only cross edge goes from the c-vertex to the a-vertex, so
        # the sink SCC (a's) gets the lower id
        a = PROJ_X
        c = mat([[0, 0], [1, 1]])
        G = build_image_graph(table_from({"a": a, "c": c}))
        va, vc = G.letter_image["a"], G.letter_image["c"]
        ia, ic = G.scc_id[va], G.scc_id[vc]
        assert cross_edges(G) == {(vc, "a", va)}
        assert ia < ic


class TestSccsMatchTarjan:
    """Kosaraju's `_sccs` against `oracle_tarjan`: the same components in
    the same order, sinks first (vertices within a component may differ
    in order)."""

    @staticmethod
    def same(vertices, out):
        ours = _sccs(vertices, lambda v: out[v])
        oracle = oracle_tarjan(vertices, lambda v: out[v])
        assert [set(c) for c in ours] == [set(c) for c in oracle]
        assert sorted(v for c in ours for v in c) == sorted(vertices)

    def test_random_multigraphs(self):
        # duplicate edges and self-loops included; vertex order shuffled
        rng = random.Random(21)
        for _ in range(400):
            size = rng.randint(1, 20)
            vertices = list(range(size))
            rng.shuffle(vertices)
            out = {v: [rng.randrange(size) for _ in range(rng.randint(0, 3))] for v in vertices}
            self.same(vertices, out)

    def test_long_path_and_cycle_need_no_recursion(self):
        size = 3000
        path = {v: [v + 1] if v + 1 < size else [] for v in range(size)}
        self.same(list(range(size)), path)
        assert _sccs(range(size), lambda v: path[v]) == [[v] for v in reversed(range(size))]
        cycle = {v: [(v + 1) % size] for v in range(size)}
        self.same(list(range(size)), cycle)


class TestPaths:
    def test_shortest_path_example(self):
        a = mat([[0, 1], [0, 0]])
        b = mat([[0, 0], [1, 0]])
        G = build_image_graph(table_from({"a": a, "b": b}))
        va, vb = G.letter_image["a"], G.letter_image["b"]
        assert scc_shortest_path(G, va, va) == ()
        assert scc_shortest_path(G, va, vb) == ("b",)

    def test_cross_scc_raises(self):
        G = build_image_graph(two_projection_table())
        with pytest.raises(NotSameSCC):
            scc_shortest_path(G, G.letter_image["a"], G.letter_image["b"])

    def test_distances_match_bfs_oracle_and_bound(self):
        rng = random.Random(17)
        for _ in range(25):
            table, r = random_equal_rank_table(rng)
            G = build_image_graph(table)
            bound = comb(table.n, r)
            for v in G.vertices:
                for w in G.vertices:
                    if G.scc_id[v] != G.scc_id[w]:
                        continue
                    d = bfs_distance(G, v, w)
                    assert d is not None and d <= bound
                    assert len(scc_shortest_path(G, v, w)) == d


class TestSegments:
    def two_scc_table(self):
        # a projects onto span(e1); c maps everything to span((1,1)) but
        # kills e1, so words may go c...c then a...a and never back
        return table_from({"a": PROJ_X, "c": mat([[0, 0], [1, 1]])})

    def test_decompose_example(self):
        G = build_image_graph(self.two_scc_table())
        assert scc_segment_decompose(G, ("c", "c", "a")) == [
            ("c", ("c",)), ("a", ())]
        assert scc_segment_decompose(G, ("a",)) == [("a", ())]

    def test_rank_drop_detected(self):
        G = build_image_graph(self.two_scc_table())
        with pytest.raises(RankDropped):
            scc_segment_decompose(G, ("a", "c"))
        with pytest.raises(ValueError):
            scc_segment_decompose(G, ())

    def test_segment_count_bound_randomized(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            table, r = random_equal_rank_table(rng)
            G = build_image_graph(table)
            word = random_walk_word(rng, G)
            if word is None:
                continue
            segments = scc_segment_decompose(G, word)
            assert tuple(x for head, body in segments for x in (head,) + body) == word
            assert len(segments) <= 2 * comb(table.n, r)
            # consecutive segments live in different SCCs
            ids = [G.scc_id[G.letter_image[head]] for head, _ in segments]
            assert all(x != y for x, y in zip(ids, ids[1:]))
            checked += 1
        assert checked >= 20


def random_walk_word(rng, G, max_len=8):
    """A word all of whose prefixes keep the generator rank, built by
    walking edges of the image graph; None when the walk gets stuck."""
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


def test_to_dot_structure():
    G = build_image_graph(two_projection_table())
    dot = to_dot(G)
    assert dot.startswith("digraph image_graph {")
    assert dot.count("subgraph cluster_") == 2
    assert '[label="a"]' in dot and '[label="b"]' in dot


def test_vertices_are_reachable_images():
    """The vertices are the distinct letter images in alphabet order, and
    they hold the image of every rank-r word."""
    rng = random.Random(29)
    for _ in range(10):
        table, r = random_equal_rank_table(rng)
        G = build_image_graph(table)
        for v in G.vertices:
            assert v.dim == r
        images = [image(table.mapping[a]) for a in table.alphabet]
        assert list(G.vertices) == [V for i, V in enumerate(images) if V not in images[:i]]
        for w in all_words(table.alphabet, 4):
            V = image(table.evaluate(w))
            assert V.dim < r or V in G.vertices


# ------------------------------------------- differential against oracles

def differential_tables(rng):
    """Equal-rank tables at 0 < r < n, r = n and r = 0, each followed by a
    rational conjugate C*M*C^-1 of itself."""
    tables = [random_equal_rank_table(rng)[0] for _ in range(30)]
    tables += [random_equal_rank_table(rng, n=n, r=n, letters=2)[0]
               for n in (1, 2, 3) for _ in range(2)]
    tables += [table_from({"a": Mat([[0] * n] * n, cols=n)}) for n in (1, 2, 3)]
    for table in list(tables):
        C = random_invertible(rng, table.n, max_num=2, max_den=3)
        Ci = inverse(C)
        tables.append(table_from({a: C * m * Ci for a, m in table.mapping.items()}))
    return tables


def outcome(decompose, G, word):
    try:
        return "segments", decompose(G, word)
    except RankDropped as exc:
        return "dropped", str(exc)
    except KeyError as exc:
        return "unknown", exc.args


class TestWalkMatchesPrefixScan:
    def test_same_segments_or_same_message(self):
        rng = random.Random(53)
        seen = {"segments": 0, "dropped": 0}
        for table in differential_tables(rng):
            G = build_image_graph(table)
            words = [random_walk_word(rng, G, max_len=12) for _ in range(8)]
            words += [tuple(rng.choice(table.alphabet) for _ in range(rng.randint(1, 10)))
                      for _ in range(12)]
            for word in words:
                expected = outcome(prefix_scan_decompose, G, word)
                assert outcome(scc_segment_decompose, G, word) == expected
                seen[expected[0]] += 1
        assert seen["segments"] >= 400 and seen["dropped"] >= 150

    def test_unknown_letter_is_key_error_anywhere(self):
        rng = random.Random(59)
        for table in differential_tables(rng)[:10]:
            G = build_image_graph(table)
            word = random_walk_word(rng, G)
            for i in range(len(word) + 1):
                bad = word[:i] + ("z",) + word[i:]
                assert outcome(scc_segment_decompose, G, bad) == ("unknown", ("z",))
                assert outcome(prefix_scan_decompose, G, bad) == ("unknown", ("z",))


def test_edges_match_kernel_oracle():
    rng = random.Random(61)
    for table in differential_tables(rng):
        G = build_image_graph(table)
        assert {(V, a) for V in G.vertices for a in G.out[V]} == kernel_edges(G)
        for V in G.vertices:
            assert all(W == G.letter_image[a] for a, W in G.out[V].items())
