import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semiforge import Mat, WeightedAutomaton
from semiforge.serialize import (ParseError, automaton_from_json, frac_from_str,
                                 generators_from_json, matrix_from_json, matrix_to_json,
                                 parse_word, vass_from_json, word_to_str)
from conftest import ROT90, mat, table_from
from test_vass import two_state_machine

F = Fraction
ROT90_JSON = {"n": 2, "entries": [["0", "-1"], ["1", "0"]]}


def two_state_document():
    """The VASS file of test_vass.two_state_machine."""
    return {"d": 2, "states": ["p", "q"],
            "transitions": [{"from": "p", "A": [[1, 0], [0, 1]], "b": [1, 0], "to": "p"},
                            {"from": "p", "A": [[0, 1], [1, 0]], "b": [0, 0], "to": "q"},
                            {"from": "q", "A": [[1, 0], [0, 1]], "b": [0, -1], "to": "q"}]}


class TestFractions:
    def test_round_trip_examples(self):
        assert matrix_to_json(Mat([[F(3)]]))["entries"] == [["3"]]
        assert matrix_to_json(Mat([[F(-1, 2)]]))["entries"] == [["-1/2"]]
        assert frac_from_str("-1/2") == F(-1, 2)
        assert frac_from_str(7) == F(7)

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=50))
    def test_round_trip(self, x):
        assert matrix_from_json(matrix_to_json(Mat([[x]]))).data == ((x,),)

    def test_rejects_garbage(self):
        for bad in ("", "1/0", "1/-2", "0.5", "a", None, 1.5):
            with pytest.raises(ParseError):
                frac_from_str(bad)

    def test_ascii_digits_only(self):
        # no surrounding whitespace, and no other script's digits
        for bad in (" 1", "1 ", "1\n", "-\uff11", "\u0661", "1/\uff12"):
            with pytest.raises(ParseError):
                frac_from_str(bad)


class TestMatrixJson:
    def test_round_trip(self):
        m = mat([[F(1, 2), -1], [0, 3]])
        assert matrix_from_json(matrix_to_json(m)) == m

    def test_rejects_non_square(self):
        with pytest.raises(ParseError):
            matrix_from_json({"n": 2, "entries": [["1", "2"]]})
        with pytest.raises(ParseError):
            matrix_from_json({"entries": [["1", "2"], ["3"]]})
        with pytest.raises(ParseError):
            matrix_from_json([["1"]])


class TestGeneratorsJson:
    def test_round_trip(self):
        t = table_from({"a": ROT90, "b": Mat.identity(2)})
        back = generators_from_json(
            {"n": 2, "generators": {"a": ROT90_JSON,
                                    "b": {"n": 2, "entries": [["1", "0"], ["0", "1"]]}}})
        assert back.n == 2 and back.alphabet == ("a", "b")
        assert back.mapping == t.mapping

    def test_alphabet_is_sorted(self):
        obj = {"n": 1, "generators": {"z": {"n": 1, "entries": [["1"]]},
                                      "a": {"n": 1, "entries": [["2"]]}}}
        assert generators_from_json(obj).alphabet == ("a", "z")

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParseError):
            generators_from_json({"generators": {}})
        with pytest.raises(ParseError):
            generators_from_json({"n": 2, "generators": {}})
        with pytest.raises(ParseError):
            generators_from_json(
                {"n": 2, "generators": {"a": {"n": 1, "entries": [["1"]]}}})


class TestAutomatonJson:
    def test_round_trip(self):
        A = WeightedAutomaton(table_from({"a": ROT90}), (1, 0), (F(1, 3), 2))
        back = automaton_from_json({"n": 2, "alphabet": ["a"], "transitions": {"a": ROT90_JSON},
                                    "alpha": ["1", "0"], "eta": ["1/3", "2"]})
        assert back.alpha == A.alpha and back.eta == A.eta
        assert back.table.mapping == A.table.mapping

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            automaton_from_json({"n": 1})


class TestVassJson:
    def test_round_trip(self):
        V = two_state_machine()
        back = vass_from_json(two_state_document())
        assert back.d == V.d and back.states == V.states
        assert back.transitions == V.transitions

    def test_rejects_bad_transition(self):
        obj = two_state_document()
        del obj["transitions"][0]["A"]
        with pytest.raises(ParseError):
            vass_from_json(obj)


class TestWords:
    def test_single_char_alphabet(self):
        assert parse_word("abba", ("a", "b")) == ("a", "b", "b", "a")
        assert parse_word("", ("a",)) == ()
        assert parse_word("a,b,a", ("a", "b")) == ("a", "b", "a")

    def test_multi_char_letters_need_commas(self):
        assert parse_word("s0,s1", ("s0", "s1")) == ("s0", "s1")
        assert parse_word("s0", ("s0", "s1")) == ("s0",)

    def test_unknown_letter(self):
        with pytest.raises(ParseError):
            parse_word("abc", ("a", "b"))

    def test_word_to_str(self):
        assert word_to_str(("a", "b"), ("a", "b")) == "ab"
        assert word_to_str(("s0", "s1"), ("s0", "s1")) == "s0,s1"
        assert word_to_str((), ("a",)) == ""

    def test_word_text_reads_back(self):
        # with the letter "ab" in the alphabet, the word a b is "a,b": joined,
        # it would read back as the one letter ab
        alphabet = ("a", "ab", "b")
        assert word_to_str(("a", "b"), alphabet) == "a,b"
        assert word_to_str(("ab",), alphabet) == "ab"
        for length in range(4):
            for word in itertools.product(alphabet, repeat=length):
                assert parse_word(word_to_str(word, alphabet), alphabet) == word
