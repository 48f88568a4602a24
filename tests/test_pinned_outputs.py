"""Library outputs on seeded tables, pinned byte for byte.

For each table of `_tables()` the pinned file records the `decide_finiteness`
verdict with its store order (every witness word, in insertion order) or
its witness, the same for `group_closure` over the invertible letters,
`integerize`'s C when that group is finite, the words one warm `Shortener`
gives for seeded words, and the `scc_id` list (in vertex order) of every
image graph that Shortener builds. Words are strings of one-character
letters. A refactor must keep all of it: the first table and word that
differ are named. The file is also rebuilt in `python -O` processes (no
self-check asserts) under two hash seeds, which must not change a byte.

`PYTHONPATH=src python tests/test_pinned_outputs.py` prints the file's text.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import semiforge
from semiforge import (InfiniteSemigroup, Mat, MorphismTable, Shortener, decide_finiteness,
                       group_closure, integerize, inverse, rank)
from conftest import random_invertible, signed_partial_perm, table_from

PINNED = Path(__file__).parent / "golden" / "expected" / "pinned_outputs.json"
CAP = 1000


def _tables():
    """(n, conjugated, table): per n = 2..5, eight tables of two or three
    signed partial permutations of rank n, n - 1 or n - 2 (finite), every
    other one rationally conjugated. The last two also get two involutions
    whose product is a shear, which makes them infinite."""
    rng = random.Random(11)
    for n in range(2, 6):
        flip = [[(-1 if i == j == 0 else int(i == j)) for j in range(n)] for i in range(n)]
        involutions = [Mat(flip), Mat(flip) + Mat([[int(i == 0 and j == 1) for j in range(n)]
                                                   for i in range(n)])]
        for i in range(8):
            mats = [signed_partial_perm(rng, n, rng.choice((n, n - 1, n - 1, n - 2)))
                    for _ in range(rng.randint(2, 3))]
            if i >= 6:
                mats += involutions
            if i % 2:
                T = random_invertible(rng, n)
                mats = [inverse(T) * m * T for m in mats]
            yield n, bool(i % 2), table_from(mats)


def _word(w) -> str:
    return "".join(w)


def _record(rng, n: int, conjugated: bool, table: MorphismTable) -> dict:
    record: dict = {"n": n, "conjugated": conjugated}
    verdict = decide_finiteness(table, CAP)
    record["finiteness"] = {"status": verdict.status}
    if verdict.status == "finite":
        record["finiteness"]["store"] = [_word(w) for w in verdict.closure.witness.values()]
    elif verdict.status == "infinite":
        record["finiteness"]["witness"] = _word(verdict.witness)

    invertible = tuple(a for a in table.alphabet if rank(table.mapping[a]) == n)
    if invertible:
        group = MorphismTable(n, invertible, {a: table.mapping[a] for a in invertible})
        try:
            G = group_closure(group, CAP)
        except InfiniteSemigroup as exc:
            record["group"] = {"status": "infinite", "witness": _word(exc.witness)}
        else:
            record["group"] = {"status": "finite", "store": [_word(w) for w in G.witness.values()]}
            record["integerize"] = [[str(x) for x in row] for row in integerize(G).data]

    if verdict.status == "finite":
        warm = Shortener(table, assume_finite=True, cap=CAP)
        # one word per length, so the words are distinct
        words = [tuple(rng.choice(table.alphabet) for _ in range(length))
                 for length in range(0, 31, 3)]
        record["shortened"] = {_word(w): _word(warm.shorten(w)) for w in words}
        record["sccs"] = [[G.scc_id[V] for V in G.vertices] for G, _ in warm.graphs.values()]
    return record


def pinned_outputs() -> list:
    rng = random.Random(12)
    return [_record(rng, n, conjugated, table) for n, conjugated, table in _tables()]


def _dump(records: list) -> str:
    return json.dumps(records, indent=1) + "\n"


def _first_difference(expected, actual, where: str = "tables"):
    """Where `actual` first departs from `expected`, as a readable path."""
    if type(expected) is not type(actual):
        return f"{where}: expected {expected!r}, got {actual!r}"
    if isinstance(expected, dict):
        for key in dict.fromkeys([*expected, *actual]):
            if key not in expected or key not in actual:
                return f"{where}: key {key!r} only on one side"
            found = _first_difference(expected[key], actual[key], f"{where}[{key!r}]")
            if found:
                return found
    elif isinstance(expected, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _first_difference(e, a, f"{where}[{i}]")
            if found:
                return found
        if len(expected) != len(actual):
            return f"{where}: expected {len(expected)} items, got {len(actual)}"
    elif expected != actual:
        return f"{where}: expected {expected!r}, got {actual!r}"
    return None


def test_outputs_match_the_pinned_file():
    text = PINNED.read_text()
    actual = pinned_outputs()
    where = _first_difference(json.loads(text), actual)
    assert where is None, where
    assert _dump(actual) == text


def test_pinned_file_does_not_depend_on_asserts_or_hash_seed():
    src = str(Path(semiforge.__file__).parent.parent)
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-O", __file__], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        assert run.stdout == PINNED.read_text(), f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    sys.stdout.write(_dump(pinned_outputs()))
