import random
from fractions import Fraction

import pytest

from semiforge import (Mat, GroupInfinite, NotMember, group_closure, hnf,
                       integerize, inverse, short_product)
from semiforge.grouplat import NonInvertibleGenerator
from semiforge.linalg import det
from conftest import (PROJ_X, ROT90, mat, random_invertible,
                      rotation_generator, signed_perm_generators)

F = Fraction


class TestGroupClosure:
    def test_cyclic_rotation_group(self):
        H = group_closure([ROT90])
        assert H.order == 4
        assert H.contains(Mat.identity(2))
        assert H.witness[Mat.identity(2)] == ()

    def test_signed_permutation_groups(self):
        assert group_closure(signed_perm_generators(2)).order == 8
        assert group_closure(signed_perm_generators(3)).order == 48

    def test_rejects_singular_generator(self):
        with pytest.raises(NonInvertibleGenerator):
            group_closure([PROJ_X])

    def test_infinite_group_raises(self):
        with pytest.raises(GroupInfinite) as exc:
            group_closure([mat([[1, 1], [0, 1]])])
        assert exc.value.witness == ("g0",)

    def test_cap_triggers_infinite(self):
        # 30 distinct rational reflections [[x, y], [y, -x]] are each of
        # order 2, but a finite subgroup of GL(2,Q) has at most (2*2)! = 24
        # elements: the 24th stored element hits the cap, which certifies
        # an infinite group
        reflections = []
        for t in range(1, 31):
            x, y = F(1 - t * t, 1 + t * t), F(2 * t, 1 + t * t)
            reflections.append(mat([[x, y], [y, -x]]))
        with pytest.raises(GroupInfinite) as exc:
            group_closure(reflections)
        assert exc.value.witness == ("g23",)

    def test_named_generators(self):
        H = group_closure({"r": ROT90})
        assert short_product(H, ROT90) == ("r",)


class TestShortProduct:
    def test_lengths_within_order(self):
        H = group_closure(signed_perm_generators(3))
        for m in H.witness:
            w = short_product(H, m)
            assert len(w) <= H.order - 1
            assert H.generators and all(a in H.generators for a in w)
        assert short_product(H, Mat.identity(3)) == ()

    def test_rejects_outsider(self):
        H = group_closure([ROT90])
        with pytest.raises(NotMember):
            short_product(H, mat([[2, 0], [0, 2]]))


class TestHnf:
    def test_known_example(self):
        assert hnf(mat([[2, 0], [0, 2], [1, 1]])) == mat([[1, 1], [0, 2]])

    def test_diagonal_and_empty(self):
        assert hnf(mat([[0, 3], [7, 0]])) == mat([[7, 0], [0, 3]])
        assert hnf(Mat.zeros(2, 2)).rows == 0
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
        H = group_closure([ROT90])
        C = integerize(H)
        assert C == Mat.identity(2)

    def test_conjugated_rotation(self):
        T = mat([[1, 0], [0, 2]])
        g = inverse(T) * ROT90 * T
        H = group_closure([g])
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
            H = group_closure([g])
            C = integerize(H)
            Cinv = inverse(C)
            for m in H.witness:
                conj = C * m * Cinv
                assert conj.is_integral() and abs(det(conj)) == 1
