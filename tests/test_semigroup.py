import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from semiforge import (DimensionMismatch, Mat, MorphismTable, NotMember, decide_finiteness,
                       group_closure, is_torsion, length_bound, shorten, shortest_word_for,
                       size_bound)
from semiforge import polys, semigroup
from semiforge.linalg import det, inverse
from semiforge.semigroup import DEFAULT_CAP, g_upper_bound, _bfs, _charpoly, _letters, _totient
from conftest import (PROJ_X, PROJ_Y, ROT90, SHIFT_NILP, all_words, brute_closure,
                      companion, cyclotomic, mat, oracle_is_torsion,
                      power_iteration_torsion, signed_perm_generators, table_from)
from oracles import oracle_bfs

F = Fraction


class TestAnyHashableLetter:
    """A letter is any hashable label, None, 0, () and a matrix included:
    none of them reads as the end of a word."""

    def test_evaluate_matches_a_plain_product(self):
        shear = mat([[1, 1], [0, 1]])
        mapping = {None: mat([[2, 0], [0, 1]]), 0: ROT90, (): mat([[3, 0], [0, 5]]), shear: shear}
        table = MorphismTable(2, tuple(mapping), mapping)
        for word in all_words(table.alphabet, 3, min_len=0):
            product = Mat.identity(2)
            for a in word:
                product = product * mapping[a]
            assert table.evaluate(word) == product, word

    def test_shorten_round_trip_on_a_none_letter(self):
        table = MorphismTable(1, (None, "a"), {None: mat([[0]]), "a": mat([[-1]])})
        for word in ((None,) * 3, ("a", None, "a"), ("a",) * 3, (None, "a", "a", None)):
            u = shorten(table, word)
            assert table.evaluate(u) == table.evaluate(word) and len(u) <= len(word)
        assert shorten(table, (None,) * 3) == (None,)


class TestClosure:
    def test_single_rotation(self):
        result = decide_finiteness(table_from([ROT90])).closure
        assert len(result) == 4
        assert result.identity_expressible
        assert shortest_word_for(result, ROT90) == ("a",)
        assert shortest_word_for(result, Mat.identity(2)) == ("a",) * 4

    def test_witnesses_are_shortest_and_lex_least(self):
        # b maps to the identity, so every element has a witness using only
        # the lexicographically smaller spelling
        t = table_from({"a": ROT90, "b": Mat.identity(2)})
        result = decide_finiteness(t).closure
        assert shortest_word_for(result, Mat.identity(2)) == ("b",)
        assert shortest_word_for(result, ROT90 * ROT90) == ("a", "a")
        for m, w in result.witness.items():
            assert t.evaluate(w) == m

    def test_matches_brute_force(self):
        for mats in ([ROT90], [PROJ_X, PROJ_Y], [ROT90, PROJ_X],
                     [mat([[1, 1], [0, 0]]), mat([[0, 0], [1, 1]])]):
            got = decide_finiteness(table_from(mats)).closure
            assert set(got.witness) == brute_closure(mats)

    def test_cap(self):
        # [[2]] is not torsion, so a cap the closure passes still gives a verdict
        verdict = decide_finiteness(table_from([mat([[2]])]), cap=10)
        assert (verdict.status, verdict.witness) == ("infinite", ("a",))
        # the four rotations do not fit in three
        assert decide_finiteness(table_from([ROT90]), cap=3).status == "exceeded_cap"

    def test_duplicate_generators_collapse(self):
        t = table_from({"a": PROJ_X, "b": PROJ_X})
        assert len(decide_finiteness(t).closure) == 1

    def test_library_ignores_cap_env(self, monkeypatch):
        # only the command line reads SEMIFORGE_CAP
        monkeypatch.setenv("SEMIFORGE_CAP", "1")
        assert decide_finiteness(table_from([ROT90])).status == "finite"

    def test_shortest_word_for_rejects_nonmembers(self):
        result = decide_finiteness(table_from([PROJ_X])).closure
        with pytest.raises(NotMember):
            shortest_word_for(result, ROT90)


def test_morphism_table_checks_letters_and_sizes():
    with pytest.raises(ValueError, match="alphabet and mapping keys differ"):
        MorphismTable(2, ("a",), {"b": ROT90})
    with pytest.raises(ValueError, match="is not 3x3"):
        MorphismTable(3, ("a",), {"a": ROT90})


class TestTotient:
    def test_small_values(self):
        assert [_totient(k) for k in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


class TestTorsion:
    def test_rotations_are_torsion(self):
        assert is_torsion(ROT90)
        assert is_torsion(companion(cyclotomic(5)))
        assert is_torsion(companion(cyclotomic(12)))

    def test_nilpotents_and_projections_are_torsion(self):
        assert is_torsion(SHIFT_NILP)
        assert is_torsion(PROJ_X)
        assert is_torsion(Mat.zeros(2, 2))

    def test_stretches_are_not_torsion(self):
        assert not is_torsion(mat([[2]]))
        assert not is_torsion(mat([[F(1, 2), 0], [0, 1]]))

    def test_non_cyclotomic_companions_are_not_torsion(self):
        # x^2 - x - 1 (golden ratio) and x^2 - 2
        assert not is_torsion(companion((F(-1), F(-1), F(1))))
        assert not is_torsion(companion((F(-2), F(0), F(1))))

    def test_unipotent_is_not_torsion(self):
        # x^2 - 2x + 1 is not squarefree; powers never repeat
        assert not is_torsion(mat([[1, 1], [0, 1]]))

    def test_root_of_unity_times_nilpotent_block(self):
        block = mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
        assert is_torsion(block)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([F(0), F(1), F(-1), F(1, 2)]),
                             min_size=2, max_size=2), min_size=2, max_size=2))
    def test_agrees_with_power_iteration(self, rows):
        # 2x2 with these entries: any torsion element has small order, and
        # non-torsion powers never cycle, so the oracle budget is safe
        a = Mat(rows)
        assert is_torsion(a) == power_iteration_torsion(a, budget=60)


def _block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for r in b.data:
            rows.append([0] * at + list(r) + [0] * (n - at - b.rows))
        at += b.rows
    return Mat(rows, cols=n)


@st.composite
def _monomial(draw, n, singular):
    """A signed permutation matrix, or with `singular` some rows zeroed."""
    perm = draw(st.permutations(range(n)))
    values = (0, 1, -1) if singular else (1, -1)
    signs = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    return Mat([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)],
               cols=n)


@st.composite
def _jordan(draw, n):
    """Upper bidiagonal: eigenvalues 0 and +-1, ones or zeros above."""
    diag = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=n, max_size=n))
    upper = draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
    return Mat([[diag[i] if j == i else (upper[i] if j == i + 1 else 0) for j in range(n)]
                for i in range(n)], cols=n)


@st.composite
def _rational(draw, n):
    entry = st.sampled_from((F(0), F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2)))
    return Mat(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n)), cols=n)


@st.composite
def _conjugate(draw, n):
    """C M C^-1 for a monomial or Jordan M and a rational invertible C."""
    M = draw(st.one_of(_monomial(n, True), _jordan(n)))
    C = draw(_rational(n))
    assume(det(C) != 0)
    return C * M * inverse(C)


# cyclotomic orders of degree phi(k) <= 4
_SMALL_ORDERS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


@st.composite
def _cyclotomic_blocks(draw):
    """Companions of cyclotomic products with repeated factors (not
    semisimple, so not torsion), block-diagonal copies of one factor's
    companion (torsion, with the factor repeated in chi), and a nilpotent
    or zero block beside them; n <= 6 in all."""
    ks = draw(st.lists(st.sampled_from(_SMALL_ORDERS), min_size=1, max_size=3).filter(
        lambda ks: sum(_totient(k) for k in ks) <= 6))
    product = polys.ONE
    for k in ks:
        product = polys.mul(product, cyclotomic(k))
    blocks = [companion(product)] if draw(st.booleans()) else [companion(cyclotomic(k)) for k in ks]
    size = sum(b.rows for b in blocks)
    if size < 6 and draw(st.booleans()):
        blocks.append(draw(_jordan(draw(st.integers(1, 6 - size)))))
    return _block_diagonal(blocks)


@st.composite
def _torsion_candidates(draw):
    n = draw(st.integers(0, 6))
    return draw(st.one_of(_monomial(n, False), _monomial(n, True), _jordan(n),
                          _rational(n), _conjugate(n), _cyclotomic_blocks()))


class TestTorsionCertificate:
    """The characteristic-polynomial certificate against the minimal-
    polynomial route it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(_torsion_candidates())
    def test_agrees_with_minimal_polynomial_oracle(self, A):
        assert is_torsion(A) == oracle_is_torsion(A)

    @pytest.mark.parametrize("ks, torsion", [
        ((1, 1), False), ((2, 2), False), ((3, 3), False), ((4, 4), False),
        ((1, 2, 1), False), ((1, 2), True), ((3, 4), True), ((5,), True), ((7,), True)])
    def test_cyclotomic_products(self, ks, torsion):
        product = polys.ONE
        for k in ks:
            product = polys.mul(product, cyclotomic(k))
        A = companion(product)
        assert is_torsion(A) == oracle_is_torsion(A) == torsion
        # the same factors as separate blocks are semisimple
        B = _block_diagonal([companion(cyclotomic(k)) for k in ks])
        assert is_torsion(B) and oracle_is_torsion(B)

    def test_repeated_eigenvalue_beside_a_nilpotent_block(self):
        # chi = x^2 (x + 1)^2: semisimple on -1 passes, a Jordan block fails
        ok = _block_diagonal([mat([[-1]]), mat([[-1]]), SHIFT_NILP])
        bad = _block_diagonal([mat([[-1, 1], [0, -1]]), SHIFT_NILP])
        assert is_torsion(ok) and oracle_is_torsion(ok)
        assert not is_torsion(bad) and not oracle_is_torsion(bad)

    def test_non_square_is_refused(self):
        with pytest.raises(DimensionMismatch):
            is_torsion(Mat([[1, 0]]))

    def test_charpoly_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randint(0, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            expected = [int(c) for c in sympy.Matrix(rows).charpoly().all_coeffs()] if n else [1]
            assert _charpoly(tuple(x for r in rows for x in r), n) == expected


class TestDecideFiniteness:
    def test_finite_with_closure(self):
        verdict = decide_finiteness(table_from([ROT90, PROJ_X]))
        assert verdict.status == "finite"
        assert verdict.closure is not None and len(verdict.closure) == 13

    def test_infinite_with_witness(self):
        t = table_from([mat([[1, 1], [0, 1]])])
        verdict = decide_finiteness(t)
        assert verdict.status == "infinite"
        assert verdict.witness == ("a",)
        assert not is_torsion(t.evaluate(verdict.witness))

    def test_infinite_product_of_torsion_generators(self):
        # two reflections whose product is a rotation of infinite order
        a = mat([[1, 0], [0, -1]])
        b = mat([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]])
        verdict = decide_finiteness(table_from([a, b]))
        assert verdict.status == "infinite"
        assert not is_torsion(table_from([a, b]).evaluate(verdict.witness))

    def test_cap_without_verdict(self):
        # torsion-free products appear late; with a tiny cap we get no verdict
        t = table_from([ROT90, PROJ_X])
        assert decide_finiteness(t, cap=2).status == "exceeded_cap"

    def test_cap_below_one_is_refused(self):
        t = table_from([ROT90, PROJ_X])
        for cap in (0, -1):
            with pytest.raises(ValueError):
                decide_finiteness(t, cap=cap)


def _mostly_monomial_row(rng, n):
    """A signed unit row or zero, or now and then any {0, 1, -1} row, so
    that most tables are finite and some are not."""
    if rng.random() < 0.1:
        return [rng.choice((0, 1, -1)) for _ in range(n)]
    row = [0] * n
    row[rng.randrange(n)] = rng.choice((0, 1, -1))
    return row


def test_decide_finiteness_closure_matches_closure():
    rng = random.Random(5)
    finite = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        mats = [Mat([_mostly_monomial_row(rng, n) for _ in range(n)])
                for _ in range(rng.randint(1, 3))]
        t = table_from(mats)
        verdict = decide_finiteness(t, cap=500)
        if verdict.status != "finite":
            continue
        finite += 1
        expected, _, _ = oracle_bfs(_letters(t), DEFAULT_CAP)
        assert list(verdict.closure.witness.items()) == list(expected.items())
        assert set(verdict.closure.witness) == brute_closure(mats)
    assert finite >= 30


@pytest.mark.parametrize("monoid", [False, True], ids=["semigroup", "group"])
def test_bfs_matches_the_eager_oracle(monoid):
    """The deferred torsion test against one on admission, on seeded
    tables at small caps: the same status and word, and the same store
    unless the verdict is "infinite"; then the oracle's store, which stops
    at the witness, begins ours."""
    rng = random.Random(13)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 3)

        def row():  # more {0, 1, -1} rows than usual, for more infinite tables
            if rng.random() < 0.4:
                return [rng.choice((0, 1, -1)) for _ in range(n)]
            return _mostly_monomial_row(rng, n)

        letters = _letters(table_from([Mat([row() for _ in range(n)])
                                       for _ in range(rng.randint(1, 3))]))
        cap = rng.randint(1, 60)
        identity = Mat.identity(n) if monoid else None
        store, status, word = _bfs(letters, cap, identity=identity)
        expected, expected_status, expected_word = oracle_bfs(letters, cap, identity=identity)
        assert (status, word) == (expected_status, expected_word)
        got = list(store.items())
        assert got[:len(expected)] == list(expected.items())
        assert status == "infinite" or len(got) == len(expected)
        seen[status] += 1
        # found by the test of the untested prefix at the cap
        seen["infinite at the cap"] += status == "infinite" and len(store) == cap
    assert min(seen.values()) >= 10, seen


def _matches_the_eager_oracle(letters, cap, identity):
    """`_bfs` against `oracle_bfs`: the same status and word, and the same
    store, of which the oracle's is only a prefix when it stops at an
    "infinite" witness. Returns the status."""
    store, status, word = _bfs(letters, cap, identity=identity)
    expected, expected_status, expected_word = oracle_bfs(letters, cap, identity=identity)
    assert (status, word) == (expected_status, expected_word)
    got = list(store.items())
    assert got[:len(expected)] == list(expected.items())
    assert status == "infinite" or len(got) == len(expected)
    return status


@pytest.mark.parametrize("monoid", [False, True], ids=["semigroup", "group"])
def test_bfs_matches_the_eager_oracle_with_special_letters(monoid):
    """The products that Froidure-Pin reads off the Cayley graphs instead of
    multiplying, where a letter repeats an earlier letter's matrix, is the
    identity or is zero, over letters that include None and a matrix."""
    rng = random.Random(29)
    labels = (None, Mat([[7]]), "a", 0)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(1, 3)

        def row():
            if rng.random() < 0.4:
                return [rng.choice((0, 1, -1)) for _ in range(n)]
            return _mostly_monomial_row(rng, n)

        mats = [Mat([row() for _ in range(n)]) for _ in range(rng.randint(1, 3))]
        special = rng.choice(("repeated", "identity", "zero"))
        extra = {"repeated": rng.choice(mats), "identity": Mat.identity(n),
                 "zero": Mat.zeros(n, n)}[special]
        mats.insert(rng.randint(0, len(mats)), extra)
        cap = DEFAULT_CAP if rng.random() < 0.25 else rng.randint(1, rng.choice((12, 60)))
        identity = Mat.identity(n) if monoid else None
        seen[special, _matches_the_eager_oracle(list(zip(labels, mats)), cap, identity)] += 1
    assert len(seen) == 9 and min(seen.values()) >= 5, seen


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bfs_matches_the_eager_oracle_on_signed_permutation_groups(n):
    """The hyperoctahedral groups, orders 2 to 3840; at n = 1 the cycle
    letter is the identity."""
    letters = _letters(table_from(signed_perm_generators(n)))
    for identity in (None, Mat.identity(n)):
        assert _matches_the_eager_oracle(letters, DEFAULT_CAP, identity) == "finite"


def test_closure_multiplies_at_most_half_of_the_pairs(monkeypatch):
    """On the order-3840 signed permutation group (a 5-cycle, a
    transposition and a sign change), a BFS that multiplies every
    (element, letter) pair makes 12090 products, torsion tests included.
    Reading products off the Cayley graphs must save at least half."""
    cycle, sign, swap = signed_perm_generators(5)
    table = MorphismTable(5, ("c", "t", "s"), {"c": cycle, "t": swap, "s": sign})
    count = Counter()
    product = Mat.__mul__

    def counted(self, other):
        count["products"] += 1
        return product(self, other)

    monkeypatch.setattr(Mat, "__mul__", counted)
    assert group_closure(table).order == 3840
    assert count.pop("products") <= 6045
    assert len(decide_finiteness(table).closure) == 3840
    assert count.pop("products") <= 6045


def test_witnesses_unchanged_under_the_oracle(monkeypatch):
    rng = random.Random(11)
    tables = []
    for _ in range(40):
        n = rng.randint(1, 4)
        tables.append(table_from([Mat([_mostly_monomial_row(rng, n) for _ in range(n)])
                                  for _ in range(rng.randint(1, 3))]))
    ours = [decide_finiteness(t, cap=400) for t in tables]
    monkeypatch.setattr(semigroup, "is_torsion", oracle_is_torsion)
    theirs = [decide_finiteness(t, cap=400) for t in tables]
    assert [(v.status, v.witness) for v in ours] == [(v.status, v.witness) for v in theirs]
    statuses = [v.status for v in ours]
    assert statuses.count("finite") >= 10 and statuses.count("infinite") >= 5


class TestBounds:
    def test_g_upper(self):
        assert g_upper_bound(1) == 2
        assert g_upper_bound(2) == 24
        with pytest.raises(ValueError):
            g_upper_bound(0)

    def test_length_bound_values(self):
        assert length_bound(1) == 128
        assert length_bound(2) == 226492416
        assert length_bound(3) == 2 ** 27 * math.factorial(6) ** 4

    def test_size_bound(self):
        assert size_bound(1, 1) == 128
        assert size_bound(1, 2) == 2 ** 129 - 2
        with pytest.raises(ValueError):
            size_bound(1, 0)


def test_m_family_closures():
    for m in range(1, 11):
        gens = [mat([[0, i], [0, 0]]) for i in range(m)]
        result = decide_finiteness(table_from(gens)).closure
        assert len(result) == m
        assert Mat.zeros(2, 2) in result.witness
