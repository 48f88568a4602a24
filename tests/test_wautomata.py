import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from semiforge import (Mat, MorphismTable, UnknownLetter, WeightedAutomaton,
                       decide_wa_finiteness, evaluate, forward_space, inverse, minimize)
from semiforge.wautomata import reverse
from conftest import (ROT90, all_words, mat, random_invertible, random_rational,
                      signed_partial_perm, table_from)
from oracles import oracle_forward_space

F = Fraction


def automaton(mats, alpha, eta):
    return WeightedAutomaton(table_from(mats), alpha, eta)


def counting_automaton():
    # value of w = number of 'a's, computed by a 2-state shear
    return automaton({"a": mat([[1, 1], [0, 1]]), "b": Mat.identity(2)},
                     (1, 0), (0, 1))


class TestEvaluate:
    def test_counts_letters(self):
        A = counting_automaton()
        assert evaluate(A, ()) == 0
        assert evaluate(A, ("a", "b", "a")) == 2

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetter):
            evaluate(counting_automaton(), ("z",))


class TestSpaces:
    def test_forward_space_grows_to_invariant(self):
        A = counting_automaton()
        Fsp = forward_space(A)
        assert Fsp.dim == 2
        B = automaton({"a": ROT90}, (1, 0), (1, 1))
        assert forward_space(B).dim == 2

    def test_zero_alpha_gives_zero_space(self):
        A = automaton({"a": ROT90}, (0, 0), (1, 1))
        assert forward_space(A).dim == 0

    def test_backward_space(self):
        A = automaton({"a": PROJ}, (1, 1), (1, 0))
        assert forward_space(reverse(A)).dim == 1


PROJ = mat([[1, 0], [0, 0]])


class TestMinimize:
    def test_drops_unreachable_state(self):
        # second state never influences the value
        A = automaton({"a": mat([[1, 0], [0, 5]])}, (1, 0), (1, 0))
        B = minimize(A)
        assert B.n == 1
        assert decide_wa_finiteness(A).status == "finite"

    def test_zero_function_minimizes_to_nothing(self):
        A = automaton({"a": mat([[2, 0], [0, 2]])}, (0, 0), (1, 1))
        assert minimize(A).n == 0
        assert decide_wa_finiteness(A).status == "finite"

    def test_preserves_values_randomized(self):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.choice((2, 3))
            mats = {a: Mat([[random_rational(rng, 2, 2) for _ in range(n)]
                            for _ in range(n)]) for a in ("a", "b")}
            A = automaton(mats,
                          tuple(random_rational(rng, 2, 2) for _ in range(n)),
                          tuple(random_rational(rng, 2, 2) for _ in range(n)))
            B = minimize(A)
            assert B.n <= A.n
            assert evaluate(B, ()) == evaluate(A, ())
            for w in all_words(("a", "b"), 4):
                assert evaluate(B, w) == evaluate(A, w)

    def test_reverse_involution_on_values(self):
        A = counting_automaton()
        R = reverse(A)
        for w in all_words(("a", "b"), 4):
            assert evaluate(R, w) == evaluate(A, tuple(reversed(w)))


class TestFiniteness:
    def test_doubling_is_infinite(self):
        A = automaton({"a": mat([[2]])}, (1,), (1,))
        verdict = decide_wa_finiteness(A)
        assert verdict.status == "infinite"
        assert verdict.witness is not None

    def test_rotation_is_finite(self):
        A = automaton({"a": ROT90}, (1, 0), (1, 1))
        assert decide_wa_finiteness(A).status == "finite"

    def test_doubling_with_dead_start_is_finite(self):
        # the transition monoid is infinite but the zero start vector makes
        # every value 0, which minimization exposes
        A = automaton({"a": mat([[2]])}, (0,), (1,))
        assert decide_wa_finiteness(A).status == "finite"

    def test_counting_is_infinite(self):
        assert decide_wa_finiteness(counting_automaton()).status == "infinite"


# ------------------------------------------------ against the Fraction loop
#
# `oracle_evaluate` is the Fraction loop `evaluate` ran before it moved to
# integer matrix products.

def oracle_rows(A, word):
    """alpha * M(u) for each prefix u of the word, shortest first."""
    v = list(A.alpha)
    yield v
    for a in word:
        m = A.table.mapping[a].data
        v = [sum(v[i] * m[i][j] for i in range(A.n)) for j in range(A.n)]
        yield v


def oracle_evaluate(A, word):
    *_, v = oracle_rows(A, word)
    return sum(x * y for x, y in zip(v, A.eta)) if A.n else Fraction(0)


# zero half the time, so that spaces grow over several rounds
rationals = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 4)))


@st.composite
def automata(draw, max_n=3):
    n = draw(st.integers(0, max_n))
    vector = st.lists(rationals, min_size=n, max_size=n).map(tuple)
    mats = {a: Mat(draw(st.lists(vector, min_size=n, max_size=n)), cols=n) for a in "ab"}
    return automaton(mats, draw(vector), draw(vector))


words = st.lists(st.sampled_from("ab"), max_size=6).map(tuple)


class TestAgainstFractionLoop:
    @given(automata(), words)
    def test_evaluate(self, A, word):
        value = evaluate(A, word)
        assert isinstance(value, Fraction)
        assert value == oracle_evaluate(A, word)

    @settings(max_examples=50, deadline=None)
    @given(automata(max_n=4), st.lists(words, min_size=1, max_size=4))
    def test_minimize_keeps_the_values(self, A, some_words):
        B = minimize(A)
        assert B.n <= A.n
        for w in ((),) + tuple(some_words):
            assert evaluate(B, w) == oracle_evaluate(A, w)

    @settings(max_examples=200, deadline=None)
    @given(automata(max_n=4))
    @example(automaton({"a": ROT90, "b": PROJ}, (0, 0), (1, 1)))  # zero alpha
    @example(WeightedAutomaton(MorphismTable(0, ("a",), {"a": Mat((), cols=0)}), (), ()))
    def test_forward_space(self, A):
        assert forward_space(A) == oracle_forward_space(A)
        assert forward_space(reverse(A)) == oracle_forward_space(reverse(A))


def conjugated_signed_perms(rng, n):
    """Letters a and b: signed permutations in a random rational basis, so
    they generate a finite group but no letter is integral."""
    C = random_invertible(rng, n)
    return {a: inverse(C) * signed_partial_perm(rng, n, n) * C for a in "ab"}


def test_evaluate_long_words_over_rational_letters():
    # 300 rational letters: the row's denominator grows and falls again,
    # so every step runs the gcd reduction and some steps cancel
    rng = random.Random(300)
    for _ in range(6):
        n = rng.choice((3, 4, 5))
        mats = conjugated_signed_perms(rng, n)
        assert all(m.den != 1 for m in mats.values())
        A = automaton(mats, (1,) + tuple(random_rational(rng) for _ in range(n - 1)),
                      tuple(random_rational(rng) for _ in range(n)))
        word = tuple(rng.choice("ab") for _ in range(300))
        dens = [math.lcm(*(x.denominator for x in v)) for v in oracle_rows(A, word)]
        assert max(dens) > dens[0]
        assert any(later < earlier for earlier, later in zip(dens, dens[1:]))
        for k in range(0, 301, 30):
            assert evaluate(A, word[:k]) == oracle_evaluate(A, word[:k])
        assert evaluate(A, ()) == sum(x * y for x, y in zip(A.alpha, A.eta))
        with pytest.raises(UnknownLetter) as caught:
            evaluate(A, word[:150] + ("z",) + word[150:])
        assert caught.value.args == ("z",)
