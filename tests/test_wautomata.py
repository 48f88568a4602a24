import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import semiforge.wautomata
from semiforge import (Mat, MorphismTable, UnknownLetter, WeightedAutomaton,
                       decide_wa_finiteness, evaluate, forward_space, inverse, minimize)
from semiforge.linalg import image
from semiforge.serialize import automaton_from_json, matrix_to_json
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

    def test_state_vectors_need_one_entry_per_state(self):
        for alpha, eta in (((1,), (0, 1)), ((1, 0), (0, 1, 0))):
            with pytest.raises(ValueError, match="one entry per state"):
                automaton({"a": Mat.identity(2)}, alpha, eta)
        # a 1 x n Mat is kept as given; a tuple of the same entries gives an equal automaton
        row = Mat([(F(1, 2), 3)])
        A = automaton({"a": Mat.identity(2)}, row, (0, 1))
        assert A.alpha is row and A == automaton({"a": Mat.identity(2)}, (F(1, 2), 3), (0, 1))
        for bad in (row.transpose(), Mat.identity(2), Mat([(1, 0, 0)])):
            for alpha, eta in ((bad, row), (row, bad)):
                with pytest.raises(ValueError, match="one entry per state"):
                    automaton({"a": Mat.identity(2)}, alpha, eta)
        with pytest.raises(TypeError):
            automaton({"a": Mat.identity(2)}, (0.5, 1), (0, 1))
        # the reader gives rows in lowest terms, and 1 x 0 rows at n = 0
        read = automaton_from_json({"n": 1, "alphabet": ["a"], "alpha": ["2/4"], "eta": [1],
                                    "transitions": {"a": {"entries": [["1"]]}}})
        assert read.alpha == Mat([(F(1, 2),)]) and read.alpha.den == 2
        empty = automaton_from_json({"n": 0, "alphabet": ["a"], "alpha": [], "eta": [],
                                     "transitions": {"a": {"entries": []}}})
        assert {(v.rows, v.cols) for v in (empty.alpha, empty.eta)} == {(1, 0)}


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
    v = list(A.alpha.data[0])
    yield v
    for a in word:
        m = A.table.mapping[a].data
        v = [sum(v[i] * m[i][j] for i in range(A.n)) for j in range(A.n)]
        yield v


def oracle_evaluate(A, word):
    *_, v = oracle_rows(A, word)
    return sum(x * y for x, y in zip(v, A.eta.data[0])) if A.n else Fraction(0)


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


def workload_shaped(rng, n):
    """An automaton on n states shaped like the benchmark's: k states carry
    the word function, r states are never reached from alpha, and r more
    are reached but lead only among themselves, where eta is zero; all in
    a random rational basis, so minimization must find both kinds."""
    r = rng.randint(0, n // 3)
    k = n - 2 * r
    U, D = range(k, k + r), range(k + r, n)

    def small():  # zero half the time, so that spaces grow over several rounds
        return F(rng.choice((0, 0, 0, 1, -1, 2)))

    mats = {}
    for a in "ab":
        m = [[F(0)] * n for _ in range(n)]
        for i in range(k):
            for j in (*range(k), *D):
                m[i][j] = small()
        for i in U:
            m[i] = [small() for _ in range(n)]
        for i in D:
            for j in D:
                m[i][j] = small()
        mats[a] = Mat(m, cols=n)
    alpha = [random_rational(rng) for _ in range(k)] + [F(0)] * (2 * r)
    eta = ([random_rational(rng) for _ in range(k)] + [random_rational(rng) for _ in U]
           + [F(0)] * r)
    C = random_invertible(rng, n, 2, 3)
    Cinv = inverse(C)
    return automaton({a: Cinv * m * C for a, m in mats.items()},
                     Mat([alpha]) * C, Mat([eta]) * Cinv.transpose()), r


@pytest.mark.parametrize("n", range(1, 13))
def test_forward_space_on_workload_shaped_automata(n):
    rng = random.Random(1200 + n)
    dims = set()
    for _ in range(3):
        A, r = workload_shaped(rng, n)
        Fsp = forward_space(A)
        assert Fsp == oracle_forward_space(A)
        assert Fsp.dim <= n - r  # the r unreached states stay out
        assert forward_space(reverse(A)) == oracle_forward_space(reverse(A))
        dims.add(Fsp.dim)
    assert max(dims) > 0


def test_forward_space_runs_one_elimination(monkeypatch):
    # the echelon basis grows in place: the only elimination is the final
    # rref of the kept rows, and each kept row raised the dimension
    calls = []

    def counted(M):
        calls.append(M)
        return image(M)

    monkeypatch.setattr(semiforge.wautomata, "image", counted)
    rng = random.Random(31)
    empty = WeightedAutomaton(MorphismTable(0, ("a",), {"a": Mat((), cols=0)}), (), ())
    examples = [empty] + [workload_shaped(rng, n)[0] for n in (3, 5, 8) for _ in range(3)]
    dims = []
    for B in examples + [reverse(A) for A in examples]:
        calls.clear()
        dims.append(forward_space(B).dim)
        assert len(calls) == 1 and calls[0].rows == dims[-1]
    assert max(dims) > 1


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
        assert evaluate(A, ()) == sum(x * y for x, y in zip(A.alpha.data[0], A.eta.data[0]))
        with pytest.raises(UnknownLetter) as caught:
            evaluate(A, word[:150] + ("z",) + word[150:])
        assert caught.value.args == ("z",)


def automaton_json(A):
    """The automaton file of A."""
    def row(v):
        return matrix_to_json(v)["entries"][0]
    return {"n": A.n, "alphabet": list(A.alphabet), "alpha": row(A.alpha), "eta": row(A.eta),
            "transitions": {a: matrix_to_json(A.table.mapping[a]) for a in A.alphabet}}


def test_no_fraction_on_the_automaton_path(monkeypatch):
    # Mat.data is where a Mat makes Fractions: with it raising, the reader,
    # evaluate, minimize and the verdict must all work on numerators
    rng = random.Random(19)
    examples = [counting_automaton(),
                automaton(conjugated_signed_perms(rng, 3), (1, F(1, 2), 0), (F(-2, 3), 1, 1)),
                WeightedAutomaton(MorphismTable(0, ("a", "b"), {a: Mat((), cols=0) for a in "ab"}),
                                  (), ())]
    examples += [workload_shaped(rng, n)[0] for n in (2, 4, 6, 8)]
    documents = [automaton_json(A) for A in examples]
    word = tuple(rng.choice("ab") for _ in range(40))
    with monkeypatch.context() as patched:
        patched.setattr(Mat, "data", property(lambda self: pytest.fail("Mat.data was read")))
        read = [automaton_from_json(doc) for doc in documents]
        values = [(evaluate(A, word), evaluate(minimize(A), word)) for A in read]
        verdicts = [decide_wa_finiteness(A).status for A in read]
    assert read == examples
    assert values == [(oracle_evaluate(A, word),) * 2 for A in examples]
    assert verdicts[:3] == ["infinite", "finite", "finite"]
