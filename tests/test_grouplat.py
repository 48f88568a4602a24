import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semiforge
from semiforge import (CapExceeded, ClosureResult, InfiniteSemigroup, Mat, MorphismTable,
                       NotMember, decide_finiteness, group_closure, hnf, integerize, inverse,
                       shortest_word_for)
from semiforge.grouplat import NonInvertibleGenerator
from semiforge.linalg import det
from conftest import (PROJ_X, ROT90, mat, random_invertible, rotation_generator,
                      signed_partial_perm, signed_perm_generators, table_from)
from oracles import oracle_integerize

F = Fraction


class TestGroupClosure:
    def test_cyclic_rotation_group(self):
        H = group_closure(table_from([ROT90]))
        assert H.order == 4
        assert Mat.identity(2) in H.witness
        assert H.witness[Mat.identity(2)] == ()

    def test_signed_permutation_groups(self):
        assert group_closure(table_from(signed_perm_generators(2))).order == 8
        assert group_closure(table_from(signed_perm_generators(3))).order == 48

    def test_empty_table_is_the_trivial_group(self):
        assert group_closure(MorphismTable(2, (), {})).order == 1

    def test_0x0_group_is_trivial(self):
        # the Shortener closes 0 x 0 groups on rank-0 words
        assert group_closure(MorphismTable(0, ("a",), {"a": Mat.identity(0)})).order == 1

    def test_rejects_singular_generator(self):
        with pytest.raises(NonInvertibleGenerator):
            group_closure(table_from([PROJ_X]))

    def test_infinite_group_raises(self):
        with pytest.raises(InfiniteSemigroup) as exc:
            group_closure(table_from([mat([[1, 1], [0, 1]])]))
        assert exc.value.witness == ("a",)

    def test_cap_triggers_infinite(self):
        # 30 distinct rational reflections [[x, y], [y, -x]] are each of
        # order 2, but a finite subgroup of GL(2,Q) has at most (2*2)! = 24
        # elements: the 24th stored element hits the cap, which certifies
        # an infinite group
        reflections = []
        for t in range(1, 31):
            x, y = F(1 - t * t, 1 + t * t), F(2 * t, 1 + t * t)
            reflections.append(mat([[x, y], [y, -x]]))
        with pytest.raises(InfiniteSemigroup) as exc:
            group_closure(table_from(reflections))
        assert exc.value.witness == ("x",)

    def test_cap_below_the_order_is_cap_exceeded(self):
        # the signed permutations of order 48; (2*3)! = 720 is far above
        table = table_from(signed_perm_generators(3))
        with pytest.raises(CapExceeded):
            group_closure(table, 47)
        assert group_closure(table, 48).order == 48

    def test_cap_past_the_bound_still_certifies_infinity(self):
        # the reflections of test_cap_triggers_infinite: past (2*2)! = 24
        # elements the group is infinite, whatever the cap
        reflections = [mat([[F(1 - t * t, 1 + t * t), F(2 * t, 1 + t * t)],
                            [F(2 * t, 1 + t * t), F(t * t - 1, 1 + t * t)]]) for t in range(1, 31)]
        for cap in (24, 25, 10 ** 9):
            with pytest.raises(InfiniteSemigroup):
                group_closure(table_from(reflections), cap)
        with pytest.raises(CapExceeded):
            group_closure(table_from(reflections), 23)

    def test_named_generators(self):
        H = group_closure(table_from({"r": ROT90}))
        assert shortest_word_for(H, ROT90) == ("r",)


class TestShortProduct:
    def test_lengths_within_order(self):
        table = table_from(signed_perm_generators(3))
        H = group_closure(table)
        for m in H.witness:
            w = shortest_word_for(H, m)
            assert len(w) <= H.order - 1
            assert table.alphabet and all(a in table.alphabet for a in w)
        assert shortest_word_for(H, Mat.identity(3)) == ()

    def test_rejects_outsider(self):
        H = group_closure(table_from([ROT90]))
        with pytest.raises(NotMember):
            shortest_word_for(H, mat([[2, 0], [0, 2]]))


class TestHnf:
    def test_known_example(self):
        assert hnf(mat([[2, 0], [0, 2], [1, 1]])) == mat([[1, 1], [0, 2]])

    def test_diagonal_and_empty(self):
        assert hnf(mat([[0, 3], [7, 0]])) == mat([[7, 0], [0, 3]])
        assert hnf(Mat([[0, 0], [0, 0]])).rows == 0
        with pytest.raises(ValueError):
            hnf([])
        with pytest.raises(ValueError):
            hnf(mat([[F(1, 2)]]))

    def test_only_integral_matrices(self):
        # a row list used to be read through int(), so 3/2 became 1
        with pytest.raises(ValueError):
            hnf([[F(3, 2), 1], [0, 2]])

    def _assert_shape(self, H):
        pivots = []
        for row in H.data:
            col = next(j for j, x in enumerate(row) if x)
            assert row[col] > 0
            assert not pivots or col > pivots[-1][0]
            pivots.append((col, row[col]))
        for i, (col, pv) in enumerate(pivots):
            for j in range(i):
                assert 0 <= H.data[j][col] < pv

    def _member(self, H, v):
        """Membership of an integer vector in the row lattice of an
        echelon H, by back-substitution with integer quotients."""
        v = list(v)
        for row in H.data:
            col = next(j for j, x in enumerate(row) if x)
            if v[col] % row[col] != 0:
                return False
            q = v[col] // row[col]
            v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    def test_randomized_properties(self):
        rng = random.Random(7)
        for _ in range(40):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            H = hnf(Mat(rows, cols=ncols))
            self._assert_shape(H)
            for r in rows:
                assert self._member(H, r)
            # invariant under row operations that preserve the lattice
            shuffled = rows[::-1] + [[-x for x in rows[0]]]
            if nrows >= 2:
                shuffled.append([a + 3 * b for a, b in zip(rows[0], rows[1])])
            assert hnf(Mat(shuffled, cols=ncols)) == H

    def test_square_pivot_product_is_abs_det(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = Mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            d = det(m)
            H = hnf(m)
            if d == 0:
                assert H.rows < n
            else:
                prod = 1
                for row in H.data:
                    prod *= next(x for x in row if x)
                assert prod == abs(d)


class TestIntegerize:
    def test_already_integral_group(self):
        H = group_closure(table_from([ROT90]))
        C = integerize(H)
        assert C == Mat.identity(2)

    def test_conjugated_rotation(self):
        T = mat([[1, 0], [0, 2]])
        g = inverse(T) * ROT90 * T
        H = group_closure(table_from([g]))
        C = integerize(H)
        for m in H.witness:
            conj = C * m * inverse(C)
            assert conj.is_integral() and abs(det(conj)) == 1

    def test_random_conjugates(self):
        rng = random.Random(3)
        for _ in range(8):
            if rng.random() < 0.5:
                base = rotation_generator(rng.choice((3, 4, 6)))
            else:
                base = rng.choice(signed_perm_generators(3))
            T = random_invertible(rng, base.rows)
            g = inverse(T) * base * T
            H = group_closure(table_from([g]))
            C = integerize(H)
            Cinv = inverse(C)
            for m in H.witness:
                conj = C * m * Cinv
                assert conj.is_integral() and abs(det(conj)) == 1


    def test_a_generator_that_stays_non_unimodular_is_infinite(self):
        # the lattice fixpoint stops at Z, where [[2]] has determinant 2
        with pytest.raises(InfiniteSemigroup):
            integerize(ClosureResult(1, {Mat([[2]]): ("a",)}))

    def test_a_non_unimodular_generator_is_named_by_its_word(self):
        with pytest.raises(InfiniteSemigroup) as exc:
            integerize(ClosureResult(2, {Mat.identity(2): (), mat([[1, 0], [0, 3]]): ("x",)}))
        assert exc.value.witness == ("x",)

    def test_a_singular_generator_is_named(self):
        # a finite semigroup's closure, not a group's: its one letter is singular
        with pytest.raises(NonInvertibleGenerator, match="'a'"):
            integerize(decide_finiteness(table_from([PROJ_X])).closure)

    def test_an_infinite_closure_ends(self):
        """diag(2, 1/2) has determinant 1 and infinite order: each round of
        the fixpoint halves a denominator, and only the bound on the
        closure's denominators ends it. Run in a subprocess, so that a
        fixpoint that never ends fails the test."""
        code = ("from fractions import Fraction as F\n"
                "from semiforge import ClosureResult, InfiniteSemigroup, Mat, integerize\n"
                "G = ClosureResult(2, {Mat.identity(2): (), Mat([[2, 0], [0, F(1, 2)]]): ('a',)})\n"
                "try:\n"
                "    integerize(G)\n"
                "except InfiniteSemigroup:\n"
                "    print('infinite')\n")
        env = dict(os.environ, PYTHONPATH=str(Path(semiforge.__file__).parent.parent))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.stdout == "infinite\n", run.stderr


class TestIntegerizeAgainstOracle:
    """The generator fixpoint against the per-element oracle on seeded
    finite groups of signed permutations, integral or rationally
    conjugated. Some tables carry the identity or a repeated matrix as a
    letter: neither has a one-letter witness in the closure."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_same_matrix_as_oracle(self, n):
        rng = random.Random(40 + n)
        for i in range(9):
            gens = [signed_partial_perm(rng, n, n) for _ in range(rng.randint(1, 3))]
            if i % 3 == 1:
                gens.append(Mat.identity(n))
            elif i % 3 == 2:
                gens.append(gens[0])
            if i % 2:
                T = random_invertible(rng, n)
                gens = [inverse(T) * g * T for g in gens]
            rng.shuffle(gens)
            H = group_closure(table_from(gens))
            assert integerize(H) == oracle_integerize(H)
