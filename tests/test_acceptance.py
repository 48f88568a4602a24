"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line on the real terminal (pytest's
capture is suspended for just that line) so a full run reads as a
checklist. The heavyweight exhaustive sweep is computed once and shared
by the two criteria that consume it.
"""

import importlib.util
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from semiforge import (Mat, WeightedAutomaton, build_image_graph, cycle_rep,
                       decide_finiteness, decide_wa_finiteness, evaluate, group_closure,
                       integerize, inverse, is_torsion, length_bound, minimize,
                       rank)
from semiforge.cli import main as cli_main
from semiforge.linalg import det
from semiforge.semigroup import g_upper_bound
from conftest import (ROT90, all_words, bfs_distance, companion, cyclotomic,
                      mat, power_iteration_torsion, random_equal_rank_table,
                      random_invertible, random_rational, rank_oracle_trivial,
                      rotation_generator, signed_perm_generators, table_from)

F = Fraction


def _report(capsys, label):
    class Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            with capsys.disabled():
                print(f"{verdict} {label}")
            return False

    return Reporter()


# ------------------------------------------------------------ criterion 1

def test_criterion_1_nilpotent_family(capsys):
    with _report(capsys, "criterion 1: M_m closures have exactly m elements, < 1 s"):
        start = time.monotonic()
        for m in range(1, 11):
            gens = {f"g{i}": mat([[0, i], [0, 0]]) for i in range(m)}
            result = decide_finiteness(table_from(gens)).closure
            assert len(result) == m
            assert Mat.zeros(2, 2) in result.witness
        assert time.monotonic() - start < 1.0


# -------------------------------------------------- criteria 2 and 3 (sweep)

@pytest.fixture(scope="module")
def sweep():
    """Exhaustive n = 2 shortener sweep: every morphism table with at most
    two generators and entries in {0, 1, -1} whose closure is finite with
    at most 60 elements, and every word of length at most 8."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "sweep_shortener.py"
    spec = importlib.util.spec_from_file_location("sweep_shortener", path)
    script = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = script
    spec.loader.exec_module(script)
    return script.run_sweep(script.SweepConfig())


def _sweep_measured(sweep):
    return f"{sweep['seconds']} s, {sweep['finite']} tables, {sweep['words']} words"


def test_criterion_2_shortener_sweep(capsys, sweep):
    with _report(capsys, "criterion 2: exhaustive n=2 shortener sweep, zero failures, < 10 min"
                 f" ({_sweep_measured(sweep)})"):
        assert sweep["finite"] > 1000
        assert sweep["words"] > 400000
        assert sweep["failures"] == 0
        assert sweep["seconds"] < 600.0


def test_criterion_3_bound_compliance(capsys, sweep):
    with _report(capsys, "criterion 3: outputs within the length and group-order bounds"
                 f" ({_sweep_measured(sweep)})"):
        assert sweep["max_output"] <= 8  # never longer than the input
        assert sweep["max_output"] <= length_bound(2)
        assert sweep["group_checks"] > 0
        assert sweep["group_violations"] == 0


# ------------------------------------------------------------ criterion 4

def _self_cycles(G, limit=3):
    out = {}
    for V in G.vertices:
        words = []
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


def _random_walk(rng, G, max_len=8):
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


def _peel_segments(table, word, r):
    """Shortest rank-r suffix blocks, peeled right to left (the shape the
    rank recursion feeds to its derived alphabet)."""
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
        segments.insert(0, rest[found:])
        rest = rest[:found]
    return rest, segments


def test_criterion_4_structure_lemmas(capsys):
    with _report(capsys, "criterion 4: structure lemmas hold on 100+ random finite instances"):
        rng = random.Random(2024)
        instances = 0
        while instances < 110:
            table, r = random_equal_rank_table(rng)
            G = build_image_graph(table)
            bound = comb(table.n, r)

            # intra-SCC distances
            for v in G.vertices:
                for w in G.vertices:
                    if G.scc_id[v] == G.scc_id[w]:
                        d = bfs_distance(G, v, w)
                        assert d is not None and d <= bound

            # segment counts on rank-preserving words
            from semiforge import scc_segment_decompose
            for _ in range(3):
                word = _random_walk(rng, G)
                segments = scc_segment_decompose(G, word)
                assert len(segments) <= 2 * bound

            # cycle representation: multiplicativity and the cycle identity
            for V, words in _self_cycles(G).items():
                heads = [a for a in table.alphabet if G.letter_image[a] == V]
                for w1 in words:
                    m1 = cycle_rep(table, V, w1)
                    for w2 in words:
                        assert cycle_rep(table, V, w1 + w2) == m1 * cycle_rep(table, V, w2)
                    # rho, the cycle's order: the order of the group it generates
                    power = table.evaluate(w1 * group_closure(table_from({"c": m1})).order)
                    for a in heads:
                        m0 = table.mapping[a]
                        assert m0 * power == m0

            # derived letters of the rank recursion keep the word's rank
            word = tuple(rng.choice(table.alphabet) for _ in range(rng.randint(1, 8)))
            wr = rank(table.evaluate(word))
            if 0 < wr < table.n:
                rest, segments = _peel_segments(table, word, wr)
                assert segments
                for seg in segments:
                    assert rank(table.evaluate(seg)) == wr
                if rest:
                    assert rank(table.evaluate(rest)) > wr

            instances += 1
        assert instances >= 100


# ------------------------------------------------------------ criterion 5

def test_criterion_5_integerization(capsys):
    with _report(capsys, "criterion 5: 50+ conjugated finite groups integerized, < 1 min"):
        start = time.monotonic()
        rng = random.Random(99)
        cases = []
        for _ in range(20):
            cases.append(signed_perm_generators(2))
        for _ in range(15):
            cases.append(signed_perm_generators(3))
        for k in (3, 4, 5, 6, 8, 10, 12, 3, 4, 6):
            cases.append([rotation_generator(k)])
        for k in (5, 8, 10, 12):
            cases.append([rotation_generator(k)])
        cases.append(signed_perm_generators(4))
        assert len(cases) >= 50

        for gens in cases:
            n = gens[0].rows
            T = random_invertible(rng, n, max_num=3, max_den=5)
            Ti = inverse(T)
            conjugated = [Ti * g * T for g in gens]
            H = group_closure(table_from(conjugated))
            C = integerize(H)
            Cinv = inverse(C)
            for m in H.witness:
                image_m = C * m * Cinv
                assert image_m.is_integral()
                assert abs(det(image_m)) == 1
        assert time.monotonic() - start < 60.0


# ------------------------------------------------------------ criterion 6

def _torsion_suite():
    """(matrix, is_torsion) pairs with hand-known ground truth."""
    suite = []
    cyclotomic_orders = [k for k in range(1, 37)
                         if len(cyclotomic(k)) - 1 <= 6]
    for k in cyclotomic_orders:
        suite.append((companion(cyclotomic(k)), True))

    non_cyclotomic = [
        (F(-1), F(-1), F(1)),          # x^2 - x - 1, golden ratio
        (F(-2), F(0), F(1)),           # x^2 - 2
        (F(-3), F(0), F(1)),           # x^2 - 3
        (F(2), F(0), F(1)),            # x^2 + 2, |root| != 1
        (F(2), F(-3), F(1)),           # (x-1)(x-2)
        (F(-2), F(0), F(0), F(1)),     # x^3 - 2
        (F(-1), F(-1), F(0), F(1)),    # x^3 - x - 1, plastic number
        (F(1), F(-2), F(0), F(1)),     # x^3 - 2x + 1 = (x-1)(x^2+x-1)
    ]
    for coeffs in non_cyclotomic:
        suite.append((companion(coeffs), False))

    for size in (1, 2, 3, 4):          # nilpotent shifts
        shift = Mat([[1 if j == i + 1 else 0 for j in range(size)]
                     for i in range(size)])
        suite.append((shift, True))

    for diag in itertools.product((0, 1, -1), repeat=2):
        suite.append((mat([[diag[0], 0], [0, diag[1]]]), True))
    for stretch in (2, -2, F(1, 2), F(3, 2)):
        suite.append((mat([[stretch, 0], [0, 1]]), False))

    suite.append((mat([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]]), True))
    suite.append((mat([[1, 1], [0, 1]]), False))   # unipotent shear
    suite.append((mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]]), True))
    suite.append((mat([[0, -1, 0], [1, 0, 0], [0, 0, 2]]), False))

    # conjugated copies of everything so far (torsion is invariant)
    rng = random.Random(7)
    for m, truth in list(suite):
        for _ in range(2):
            T = random_invertible(rng, m.rows, max_num=2, max_den=3)
            suite.append((inverse(T) * m * T, truth))

    # random 2x2 small-entry matrices, labelled by the oracle itself being
    # safe there (orders divide 12, growth otherwise)
    entries = [F(0), F(1), F(-1)]
    for rows in itertools.islice(itertools.product(entries, repeat=4), 81):
        m = Mat([rows[:2], rows[2:]])
        suite.append((m, power_iteration_torsion(m, budget=60)))
    return suite


def test_criterion_6_torsion_oracle(capsys):
    with _report(capsys, "criterion 6: torsion test matches the power-iteration oracle on 200+ matrices"):
        suite = _torsion_suite()
        assert len(suite) >= 200
        for m, truth in suite:
            got = is_torsion(m)
            assert got == truth
            assert got == power_iteration_torsion(m, budget=300)


# ------------------------------------------------------------ criterion 7

def test_criterion_7_exterior_equivalence(capsys):
    with _report(capsys, "criterion 7: intersection test matches the rank and wedge oracles exhaustively (n=3)"):
        from semiforge import Subspace, trivial_intersection
        from oracles import iota, wedge
        vectors = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
        spaces = {}
        for r in range(len(vectors) + 1):
            for subset in itertools.combinations(vectors, r):
                w = Subspace.from_rows(3, subset)
                spaces.setdefault(w.basis, w)
        spaces = list(spaces.values())
        pairs = 0
        for w1 in spaces:
            for w2 in spaces:
                got = trivial_intersection(w1, w2)
                assert got == rank_oracle_trivial(w1, w2)
                assert got == (not wedge(iota(w1), iota(w2)).is_zero)
                pairs += 1
        assert pairs == len(spaces) ** 2


# ------------------------------------------------------------ criterion 8

def test_criterion_8_weighted_automata(capsys):
    with _report(capsys, "criterion 8: weighted-automaton finiteness and minimization"):
        # dead start: infinite transition monoid, but every value is zero
        dead = WeightedAutomaton(table_from({"a": mat([[2]])}), (0,), (1,))
        assert decide_wa_finiteness(dead).status == "finite"
        # doubling automaton takes infinitely many values
        doubling = WeightedAutomaton(table_from({"a": mat([[2]])}), (1,), (1,))
        assert decide_wa_finiteness(doubling).status == "infinite"
        # rotation automaton cycles through finitely many values
        rotating = WeightedAutomaton(table_from({"a": ROT90}), (1, 0), (1, 1))
        assert decide_wa_finiteness(rotating).status == "finite"

        rng = random.Random(12)
        for _ in range(50):
            n = rng.choice((2, 3))
            mats = {a: Mat([[random_rational(rng, 2, 2) for _ in range(n)]
                            for _ in range(n)]) for a in ("a", "b")}
            A = WeightedAutomaton(
                table_from(mats),
                tuple(random_rational(rng, 2, 2) for _ in range(n)),
                tuple(random_rational(rng, 2, 2) for _ in range(n)))
            B = minimize(A)
            assert evaluate(B, ()) == evaluate(A, ())
            for w in all_words(("a", "b"), 6):
                assert evaluate(B, w) == evaluate(A, w)


# ------------------------------------------------------------ criterion 9

def test_criterion_9_bound_calculators(capsys):
    with _report(capsys, "criterion 9: length bounds are exact big-integer strings"):
        assert g_upper_bound(1) == 2
        assert length_bound(1) == 128
        assert g_upper_bound(2) == 24
        assert length_bound(2) == 226492416
        for n, expect in ((1, "128"), (2, "226492416")):
            code = cli_main(["bound", "--n", str(n)])
            out = json.loads(capsys.readouterr().out)
            assert code == 0
            assert out["length_bound"] == expect
            assert isinstance(out["length_bound"], str)
            assert out["g_upper"] == str(g_upper_bound(n))
