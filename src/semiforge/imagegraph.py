"""The directed labelled graph of rank-r image subspaces.

Vertices are the images of rank-r words, which are the distinct letter
images in alphabet order: im(M(w)*M(a)) lies in im a, and both have
dimension r. Edges (V, a, im a) exist exactly when V meets ker a
trivially, that is when x -> x*M(a) is injective on V, which is tested as
rank(basis(V) * M(a)) == r. A rank-r prefix with image V keeps rank r
under a exactly when that edge exists, so rank questions about words are
walks in the graph. Since the edge label determines the edge target, the
graph is stored as per-vertex letter maps. SCC indices are assigned in
reverse topological order of the condensation.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from math import comb

from .linalg import Subspace, image, rank
from .semigroup import MorphismTable, Word


class MixedRankGenerators(ValueError):
    pass


class NotSameSCC(ValueError):
    pass


class RankDropped(ValueError):
    pass


@dataclass
class ImageGraph:
    table: MorphismTable
    rank: int
    vertices: tuple[Subspace, ...]
    letter_image: dict[object, Subspace]
    out: dict[Subspace, dict[object, Subspace]]
    scc_id: dict[Subspace, int]
    num_sccs: int


def _finish_order(root, neighbors, seen: set) -> list:
    """The vertices first reached from `root` (those not in `seen`, which
    gains them) in the order an iterative DFS finishes them."""
    if root in seen:
        return []
    seen.add(root)
    order, work = [], [(root, iter(neighbors(root)))]
    while work:
        v, it = work[-1]
        for w in it:
            if w not in seen:
                seen.add(w)
                work.append((w, iter(neighbors(w))))
                break
        else:
            work.pop()
            order.append(v)
    return order


def _sccs(vertices, neighbors) -> list[list]:
    """Kosaraju's two traversals, components sinks-first as Tarjan's emits
    them. A DFS lists the vertices by finishing time; then the reversed
    edges, walked from each vertex not yet placed, latest finish first,
    collect its component. A component's first vertex met so is its last
    to finish (Tarjan's root), so the components are met sources-first."""
    seen: set = set()
    finished = [v for root in vertices for v in _finish_order(root, neighbors, seen)]
    reverse: dict = {v: [] for v in vertices}
    for v in vertices:
        for w in neighbors(v):
            reverse[w].append(v)
    placed: set = set()
    components = [_finish_order(root, lambda v: reverse[v], placed) for root in reversed(finished)]
    return [c for c in reversed(components) if c]


def build_image_graph(table: MorphismTable, memo: dict | None = None) -> ImageGraph:
    """The image graph of `table`. `memo`, when given, maps a matrix to its
    image and a (vertex, matrix) pair to its edge test; its keys are values,
    so graphs built with one memo share those results and nothing else."""
    memo = {} if memo is None else memo
    for m in table.mapping.values():
        if m not in memo:
            memo[m] = image(m)
    letter_image = {a: memo[table.mapping[a]] for a in table.alphabet}
    ranks = {a: V.dim for a, V in letter_image.items()}
    distinct = set(ranks.values())
    if len(distinct) != 1:
        raise MixedRankGenerators(f"generator ranks {reprlib.repr(ranks)} are not all equal")
    r = distinct.pop()

    vertices = tuple(dict.fromkeys(letter_image.values()))
    for V in vertices:
        for m in table.mapping.values():
            if (V, m) not in memo:
                memo[V, m] = rank(V.basis * m) == r
    out = {V: {a: letter_image[a] for a in table.alphabet if memo[V, table.mapping[a]]}
           for V in vertices}

    components = _sccs(vertices, lambda v: out[v].values())
    scc_id = {v: cid for cid, component in enumerate(components) for v in component}
    return ImageGraph(table, r, vertices, letter_image, out, scc_id, len(components))


def scc_shortest_path(G: ImageGraph, V1: Subspace, V2: Subspace) -> Word:
    """Lex-least shortest label word from V1 to V2 (both in one SCC)."""
    if G.scc_id[V1] != G.scc_id[V2]:
        raise NotSameSCC("vertices lie in different SCCs")
    if V1 == V2:
        return ()
    parent: dict[Subspace, Word] = {V1: ()}
    frontier = [V1]
    while frontier:
        fresh = []
        for v in frontier:
            for a in G.table.alphabet:
                w = G.out[v].get(a)
                if w is None or w in parent:
                    continue
                parent[w] = parent[v] + (a,)
                if w == V2:
                    path = parent[w]
                    assert len(path) <= comb(G.table.n, G.rank)
                    return path
                fresh.append(w)
        frontier = fresh
    raise NotSameSCC("no path found despite matching SCC ids")


def scc_segment_decompose(G: ImageGraph, word) -> list[tuple[object, Word]]:
    """Split a rank-r word into maximal runs of letters whose images share
    an SCC; consecutive runs lie in different SCCs. Raises RankDropped
    naming the first prefix whose rank is below r."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    # the image of each rank-r prefix is a vertex; the next letter keeps
    # rank r exactly when it labels an edge out of that vertex
    segments: list[tuple[object, Word]] = []
    head, body = word[0], []
    V = G.letter_image[head]
    for i, a in enumerate(word[1:], 2):
        W = G.out[V].get(a)
        if W is None:
            if a not in G.letter_image:
                raise KeyError(a)
            raise RankDropped(f"prefix {word[:i]!r} leaves rank {G.rank}")
        if G.scc_id[W] == G.scc_id[V]:
            body.append(a)
        else:
            segments.append((head, tuple(body)))
            head, body = a, []
        V = W
    segments.append((head, tuple(body)))
    assert len(segments) <= 2 * comb(G.table.n, G.rank)
    return segments


def to_dot(G: ImageGraph) -> str:
    """GraphViz rendering with one cluster per SCC."""
    names = {v: f"v{i}" for i, v in enumerate(G.vertices)}

    def label(v: Subspace) -> str:
        rows = [" ".join(str(x) for x in row) for row in v.basis.data]
        return "\\n".join(rows) if rows else "0"

    lines = ["digraph image_graph {", "  rankdir=LR;"]
    by_scc: dict[int, list[Subspace]] = {}
    for v in G.vertices:
        by_scc.setdefault(G.scc_id[v], []).append(v)
    for cid in sorted(by_scc):
        lines.append(f"  subgraph cluster_{cid} {{")
        lines.append(f'    label="scc {cid}";')
        for v in by_scc[cid]:
            lines.append(f'    {names[v]} [label="{label(v)}"];')
        lines.append("  }")
    for v in G.vertices:
        for a, w in G.out[v].items():
            lines.append(f'  {names[v]} -> {names[w]} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
