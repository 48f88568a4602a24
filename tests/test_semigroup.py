import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from semiforge import (DimensionMismatch, Mat, MorphismTable, NotMember, decide_finiteness,
                       group_closure, is_torsion, length_bound, shorten, shortest_word_for,
                       size_bound)
from semiforge import polys, semigroup
from semiforge.linalg import _UNROLL_BUDGET, det, inverse
from semiforge.semigroup import (DEFAULT_CAP, g_upper_bound, _berkowitz, _bfs, _charpoly,
                                 _totient)
from conftest import (PROJ_X, PROJ_Y, REFLECT, ROT90, SHIFT_NILP, all_words, brute_closure,
                      companion, cyclotomic, mat, oracle_is_torsion, oracle_totient,
                      power_iteration_torsion, random_invertible, random_rational,
                      signed_perm_generators, table_from)
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


def _signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return Mat([[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)]
                for i in range(n)], cols=n)


class TestEvaluate:
    """`evaluate` folds numerators through one product kernel and builds a
    single Mat at the end; a plain Mat.__mul__ fold is its oracle."""

    @pytest.mark.parametrize("n", range(8))
    def test_matches_a_mat_product_fold(self, n):
        # at n = 7 a product takes 343 multiplications, past the compiled
        # kernel's budget, so the generic loop runs
        rng = random.Random(250 + n)
        C = random_invertible(rng, n) if n else Mat.identity(0)
        Ci = inverse(C)
        mapping = {
            None: Ci * _signed_permutation(rng, n) * C,
            0: Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], cols=n),
            Mat.identity(n): Mat([[random_rational(rng) for _ in range(n)] for _ in range(n)],
                                 cols=n),
            "p": _signed_permutation(rng, n),
            "q": Ci * _signed_permutation(rng, n) * C,
        }
        table = MorphismTable(n, tuple(mapping), mapping)
        # a start is a 1 x n row or an n x n matrix, and stands alone for no letters
        starts = [Mat([[random_rational(rng) for _ in range(n)] for _ in range(rows)], cols=n)
                  for rows in (1, n)]
        for start in starts:
            assert table.evaluate((), start) == start
        for _ in range(60):
            word = tuple(rng.choice(table.alphabet) for _ in range(rng.randint(0, 40)))
            expected = Mat.identity(n)
            for a in word:
                expected = expected * mapping[a]
            cases = [(table.evaluate(word), expected)]
            cases += [(table.evaluate(word, start), start * expected) for start in starts]
            for value, oracle in cases:
                assert value == oracle, word
                assert value.den > 0 and math.gcd(value.den, *value.num) == 1

    @staticmethod
    def assert_matches_the_fold(table, word, start):
        expected = start
        for a in word:
            expected = expected * table.mapping[a]
        value = table.evaluate(word, start)
        assert value == expected, word
        assert value.den > 0 and math.gcd(value.den, *value.num) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_a_rational_start_with_integral_letters(self, n):
        """No letter is rational, so only the final `_mat` brings the
        start's denominator to lowest terms; at n = 7 the loop runs."""
        rng = random.Random(350 + n)
        letters = [_signed_permutation(rng, n),
                   Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], cols=n)]
        table = table_from(letters)
        for rows in (1, n):
            start = Mat([[random_rational(rng, 4, 6) for _ in range(n)] for _ in range(rows)],
                        cols=n)
            assert start.den > 1
            for _ in range(20):
                word = [rng.choice("ab") for _ in range(rng.randint(0, 12))]
                self.assert_matches_the_fold(table, word, start)
            # an integral letter that cancels the start's denominator
            scale = table_from([start.den * Mat.identity(n)])
            self.assert_matches_the_fold(scale, "a", start)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_mixed_words(self, n):
        """Words that alternate runs of rational and integral letters, from
        an integral start, a rational one and none. The integral letter i,
        R's denominator times I, cancels that denominator after an r."""
        rng = random.Random(360 + n)
        C = random_invertible(rng, n)
        R = F(1, 2) * inverse(C) * _signed_permutation(rng, n) * C
        mapping = {"r": R, "s": inverse(C) * _signed_permutation(rng, n) * C,
                   "p": _signed_permutation(rng, n), "i": R.den * Mat.identity(n)}
        assert R.den > 1
        table = MorphismTable(n, tuple(mapping), mapping)
        starts = [Mat([[rng.randint(-3, 3) for _ in range(n)]], cols=n),
                  Mat([[random_rational(rng) for _ in range(n)] for _ in range(n)], cols=n)]
        for _ in range(30):
            word = []
            while len(word) < 30:
                word += [rng.choice("rs")] * rng.randint(1, 3) + [rng.choice("pi")] * rng.randint(0, 3)
            for start in starts:
                self.assert_matches_the_fold(table, word, start)
            expected = mapping[word[0]]
            for a in word[1:]:
                expected = expected * mapping[a]
            assert table.evaluate(word) == expected

    def test_a_start_of_the_wrong_width_is_refused(self):
        table = table_from([ROT90])
        for start in (Mat([[1, 2, 3]]), Mat.identity(3), Mat([[0], [0]])):
            for word in ((), "a", "aaa"):
                with pytest.raises(DimensionMismatch):
                    table.evaluate(word, start)

    def test_the_last_step_brings_the_fold_to_lowest_terms(self):
        # no gcd follows an integral letter: only the final Mat reduces 1/2 * 2
        value = table_from({"h": [[F(1, 2)]], "t": [[2]]}).evaluate("ht")
        assert (value.num, value.den) == ((1,), 1)

    def test_a_long_rational_word_keeps_a_small_denominator(self):
        """20000 letters over a rationally conjugated signed-permutation
        group. The fold reduces after every rational letter; without that
        the denominator would grow as d ** 20000."""
        rng = random.Random(25)
        C = random_invertible(rng, 4)
        Ci = inverse(C)
        gens = dict(zip("abc", signed_perm_generators(4)))
        table = table_from({a: Ci * g * C for a, g in gens.items()})
        assert not any(m.is_integral() for m in table.mapping.values())
        word = [rng.choice("abc") for _ in range(20000)]
        integral = Mat.identity(4)
        for a in word:
            integral = integral * gens[a]
        start = time.perf_counter()
        value = table.evaluate(word)
        assert time.perf_counter() - start < 10
        assert value == Ci * integral * C


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
        assert [_totient(k) for k in range(1, 1001)] == [oracle_totient(k) for k in range(1, 1001)]


class TestTorsion:
    def test_rotations_are_torsion(self):
        assert is_torsion(ROT90)
        assert is_torsion(companion(cyclotomic(5)))
        assert is_torsion(companion(cyclotomic(12)))

    def test_nilpotents_and_projections_are_torsion(self):
        assert is_torsion(SHIFT_NILP)
        assert is_torsion(PROJ_X)
        assert is_torsion(Mat([[0, 0], [0, 0]]))

    def test_stretches_are_not_torsion(self):
        assert not is_torsion(mat([[2]]))
        assert not is_torsion(mat([[F(1, 2), 0], [0, 1]]))

    def test_non_cyclotomic_companions_are_not_torsion(self, monkeypatch):
        # x^2 - x - 1 (golden ratio) and x^2 - 2
        assert not is_torsion(companion((F(-1), F(-1), F(1))))
        assert not is_torsion(companion((F(-2), F(0), F(1))))
        # Phi_4 repeats beside the golden ratio's block: the residue left
        # after the cyclotomic factors answers, with no matrix product
        golden = _block_diagonal([companion((F(-1), F(-1), F(1)))]
                                 + [companion(cyclotomic(4))] * 2)
        monkeypatch.setattr(Mat, "__mul__", _refused)
        assert not is_torsion(golden)

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


def _refused(*args):
    raise AssertionError("refused")


# (orders k, whether the companion of the product of the Phi_k is torsion)
CYCLOTOMIC_PRODUCTS = [
    ((1, 1), False), ((2, 2), False), ((3, 3), False), ((4, 4), False), ((1, 2, 1), False),
    ((1, 2), True), ((3, 4), True), ((5,), True), ((7,), True), ((5, 5, 7), False)]


def _cyclotomic_product_and_blocks(ks):
    """The companion of the product of the Phi_k, and the Phi_k's blocks."""
    product = polys.ONE
    for k in ks:
        product = polys.mul(product, cyclotomic(k))
    return companion(product), _block_diagonal([companion(cyclotomic(k)) for k in ks])


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

    @pytest.mark.parametrize("ks, torsion", CYCLOTOMIC_PRODUCTS)
    def test_cyclotomic_products(self, ks, torsion):
        A, B = _cyclotomic_product_and_blocks(ks)
        assert is_torsion(A) == oracle_is_torsion(A) == torsion
        # the same factors as separate blocks are semisimple: with Phi_5
        # twice, A^b = A^(b+35) for b = 0
        assert is_torsion(B) and oracle_is_torsion(B)

    def test_no_matrix_sum_or_scalar_multiple(self, monkeypatch):
        """The test takes only products of A: every element of the order-384
        signed permutation group, and the cyclotomic products above."""
        cycle, sign, swap = signed_perm_generators(4)
        group = group_closure(MorphismTable(4, ("c", "t", "s"), {"c": cycle, "t": swap, "s": sign}))
        cases = {}  # matrix -> whether it is torsion
        for ks, torsion in CYCLOTOMIC_PRODUCTS:
            A, B = _cyclotomic_product_and_blocks(ks)
            cases.update({A: torsion, B: True})
        monkeypatch.setattr(Mat, "__add__", _refused)
        monkeypatch.setattr(Mat, "__rmul__", _refused)
        assert group.order == 384 and all(map(is_torsion, group.witness))
        assert {A: is_torsion(A) for A in cases} == cases

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
        """Both sides of the budget: the compiled kernels at n <= 6 and the
        loop past it, on entries of up to 1 and up to 30 digits."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3)
        for n, bound in itertools.product(range(9), (4, 4 * 10 ** 29)):
            for _ in range(20 if n < 7 else 4):
                rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                expected = sympy.Matrix(rows).charpoly().all_coeffs() if n else [1]
                assert _charpoly(tuple(x for r in rows for x in r), n) == [int(c) for c in expected]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_charpoly_kernel_matches_the_loop(self, monkeypatch, n):
        """Without sympy: each compiled kernel against the loop it writes
        out, which a zero budget makes `_charpoly` run."""
        rng = random.Random(n)
        cases = [tuple(rng.randint(-10 ** d, 10 ** d) for _ in range(n * n))
                 for d in (0, 1, 30) for _ in range(30)]
        cases += [Mat.identity(n).num, Mat([[0] * n] * n, cols=n).num]
        compiled = [_charpoly(num, n) for num in cases]
        monkeypatch.setattr(semigroup, "_UNROLL_BUDGET", 0)
        assert compiled == [_charpoly(num, n) for num in cases]

    def test_charpoly_shapes(self, monkeypatch):
        """The kernel is compiled exactly where the square product kernel
        is, n^3 <= _UNROLL_BUDGET (n <= 6 today), and n = 7 takes the loop."""
        assert _UNROLL_BUDGET == 16 ** 2
        built = []

        def spy(n):
            built.append(n)
            return _berkowitz(n)

        monkeypatch.setattr(semigroup, "_berkowitz", spy)
        for n in range(9):
            _charpoly(Mat.identity(n).num, n)
            compiled = bool(built) and built.pop() == n
            assert compiled == (0 < n ** 3 <= _UNROLL_BUDGET) == (1 <= n <= 6)
            if compiled:
                assert _berkowitz(n).__code__.co_filename == f"<charpoly {n}>"
        assert not built


class TestSplitMemo:
    """The cyclotomic split is kept per characteristic polynomial, and only
    for a polynomial that splits completely."""

    def test_non_torsion_adds_nothing(self, monkeypatch):
        """Shears (I or -I plus a nonzero strictly upper part), stretches
        and random integer matrices whose trace exceeds n, so none is
        torsion. A shear's (x - 1)^n or (x + 1)^n splits, and is already
        there from I or -I."""
        monkeypatch.setattr(semigroup, "_SPLITS", {})
        for n in range(1, 7):
            assert is_torsion(Mat.identity(n)) and is_torsion(Mat.identity(n) * -1)
        memo = dict(semigroup._SPLITS)
        rng = random.Random(5)
        matrices = []
        while len(matrices) < 500:
            n = rng.randint(1, 6)
            kind = rng.randrange(3)
            if kind == 0 and n > 1:
                sign = rng.choice([1, -1])
                A = Mat([[sign if i == j else rng.randint(-5, 5) * (j > i) for j in range(n)]
                         for i in range(n)])
                if A == Mat.identity(n) * sign:
                    continue
            elif kind == 1:
                A = Mat([[(rng.choice([2, 3, F(1, 2), F(-2, 3)]) if i == 0 else rng.choice([1, -1]))
                          if i == j else 0 for j in range(n)] for i in range(n)])
            else:
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                rows[0][0] = n + 1 - sum(rows[i][i] for i in range(1, n))
                A = Mat(rows)
            matrices.append(A)
        assert not any(map(is_torsion, matrices))
        assert semigroup._SPLITS == memo

    def test_at_most_one_entry_per_charpoly(self, monkeypatch):
        cycle, sign, swap = signed_perm_generators(4)
        group = group_closure(MorphismTable(4, ("c", "t", "s"), {"c": cycle, "t": swap, "s": sign}))
        monkeypatch.setattr(semigroup, "_SPLITS", {})
        assert group.order == 384 and all(map(is_torsion, group.witness))
        charpolys = {tuple(_charpoly(A.num, 4)) for A in group.witness}
        assert 0 < len(semigroup._SPLITS) <= len(charpolys)

    @settings(max_examples=200, deadline=None)
    @given(_torsion_candidates())
    def test_verdicts_do_not_depend_on_the_memo(self, A):
        verdict = is_torsion(A)
        assert is_torsion(A) == verdict  # read from the memo if chi_A splits
        semigroup._SPLITS.clear()
        assert is_torsion(A) == verdict


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
        expected, _, _ = oracle_bfs(t, DEFAULT_CAP)
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

        table = table_from([Mat([row() for _ in range(n)]) for _ in range(rng.randint(1, 3))])
        cap = rng.randint(1, 60)
        identity = Mat.identity(n) if monoid else None
        store, status, word = _bfs(table, cap, identity=identity)
        expected, expected_status, expected_word = oracle_bfs(table, cap, identity=identity)
        assert (status, word) == (expected_status, expected_word)
        got = list(store.items())
        assert got[:len(expected)] == list(expected.items())
        assert status == "infinite" or len(got) == len(expected)
        seen[status] += 1
        # found by the test of the untested prefix at the cap
        seen["infinite at the cap"] += status == "infinite" and len(store) == cap
    assert min(seen.values()) >= 10, seen


def _matches_the_eager_oracle(table, cap, identity):
    """`_bfs` against `oracle_bfs`: the same status and word, and the same
    store, of which the oracle's is only a prefix when it stops at an
    "infinite" witness. Returns the status."""
    store, status, word = _bfs(table, cap, identity=identity)
    expected, expected_status, expected_word = oracle_bfs(table, cap, identity=identity)
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
                 "zero": Mat([[0] * n] * n, cols=n)}[special]
        mats.insert(rng.randint(0, len(mats)), extra)
        cap = DEFAULT_CAP if rng.random() < 0.25 else rng.randint(1, rng.choice((12, 60)))
        identity = Mat.identity(n) if monoid else None
        table = MorphismTable(n, labels[:len(mats)], dict(zip(labels, mats)))
        seen[special, _matches_the_eager_oracle(table, cap, identity)] += 1
    assert len(seen) == 9 and min(seen.values()) >= 5, seen


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bfs_matches_the_eager_oracle_on_signed_permutation_groups(n):
    """The hyperoctahedral groups, orders 2 to 3840; at n = 1 the cycle
    letter is the identity."""
    table = table_from(signed_perm_generators(n))
    for identity in (None, Mat.identity(n)):
        assert _matches_the_eager_oracle(table, DEFAULT_CAP, identity) == "finite"


def test_closure_follows_the_alphabet_not_the_mapping_order():
    """The golden inputs all list their letters sorted; here the alphabet
    runs b, a while the mapping was built a first."""
    table = MorphismTable(2, ("b", "a"), {"a": ROT90, "b": REFLECT})
    closures = ((decide_finiteness(table).closure, None), (group_closure(table), Mat.identity(2)))
    for closure, identity in closures:
        expected, status, _ = oracle_bfs(table, DEFAULT_CAP, identity)
        assert status == "finite" and len(closure) == 8
        assert list(closure.witness.items()) == list(expected.items())
        words = list(closure.witness.values())
        assert words.index(("b",)) < words.index(("a",))


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


def _affine_reflections(r):
    """The r + 1 reflections of the affine Weyl group of type A~r in its
    geometric representation (s_i e_i = -e_i, s_i e_j = e_j + e_i for i, j
    adjacent on an (r + 1)-cycle): integer (r + 1) x (r + 1) matrices. A
    word that misses a letter lies in a finite parabolic subgroup, so the
    first non-torsion element needs all r + 1 letters (at r = 6 it comes
    after 1700-1900 elements, by the letters' order), and any r of the
    letters generate the symmetric group of order (r + 1)!."""
    n = r + 1
    return [Mat([[-1 if i == j == s else int(i == j) + (j == s and (i - s) % n in (1, r))
                  for j in range(n)] for i in range(n)]) for s in range(n)]


@pytest.mark.parametrize("seed, cap, flushed", [
    (0, 8000, [True, True]), (1, 20000, [True, False]), (2, 40000, [False, False])])
def test_schedule_changes_no_output(monkeypatch, seed, cap, flushed):
    """`_bfs` against itself under the linear schedule DEFER * k, past the
    4096 elements where the two agree. The A~6 reflections, in a seeded
    order, first reach a non-torsion element after about 1800 elements,
    which the linear schedule tests at about 14000 elements and ours at
    about 28000: at cap 8000 both sides find it in the flush at the cap,
    at 20000 only ours does, and at 40000 neither. Six of the letters close
    on the symmetric group of order 5040, in either mode. Status and word
    agree, and the store of the side that stopped first begins the
    other's."""
    rng = random.Random(seed)
    letters = _affine_reflections(6)
    rng.shuffle(letters)
    infinite = MorphismTable(7, tuple(range(7)), dict(enumerate(letters)))
    finite = MorphismTable(7, tuple(range(6)), dict(enumerate(letters[:6])))
    runs = [(infinite, cap, None), (finite, 5040 + seed, Mat.identity(7) if seed % 2 else None)]
    ours = [_bfs(*run) for run in runs]
    monkeypatch.setattr(semigroup, "_due", lambda k: semigroup.DEFER * k)
    linear = [_bfs(*run) for run in runs]
    assert [status for _, status, _ in ours] == ["infinite", "finite"]
    assert [len(store) == cap for store, _, _ in (ours[0], linear[0])] == flushed
    for (store, status, word), (old_store, old_status, old_word) in zip(ours, linear):
        assert (status, word) == (old_status, old_word)
        first, last = sorted((list(store.items()), list(old_store.items())), key=len)
        assert first == last[:len(first)]


def test_torsion_tests_on_the_n6_group(monkeypatch):
    """The order-46080 signed permutation group closes after 2047 torsion
    tests: the k-th element is tested once the store holds 8k elements
    below k = 1024 and 8k * floor(log2(k / 256)) from there. The linear
    schedule, 8k throughout, ran 5759."""
    calls = Counter()
    torsion = semigroup.is_torsion

    def counted(A):
        calls["is_torsion"] += 1
        return torsion(A)

    monkeypatch.setattr(semigroup, "is_torsion", counted)
    cycle, sign, swap = signed_perm_generators(6)
    table = MorphismTable(6, ("c", "t", "s"), {"c": cycle, "t": swap, "s": sign})
    assert group_closure(table).order == 46080
    assert calls == {"is_torsion": 2047}


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
        assert Mat([[0, 0], [0, 0]]) in result.witness
