"""JSON encodings. The four file formats (matrices, generator tables,
weighted automata and VASS models) are read here; only matrices and
words are written. Rationals travel as strings ("p/q" or an integer
string, q positive) so no consumer ever rounds them.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from math import gcd

from .linalg import Mat
from .semigroup import MorphismTable
from .vass import AffineVass, Transition
from .wautomata import WeightedAutomaton


class ParseError(ValueError):
    pass


# at most 4300 digits each, Python's default int <-> str limit
_FRACTION_RE = re.compile(r"(-?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")


_KINDS = {int: "integer", list: "list", dict: "object", str: "string"}


def _typed(x, kind: type, what: str):
    """x if its type is exactly `kind` (so a bool is not an integer)."""
    if type(x) is not kind:
        raise ParseError(f"{what} must be a JSON {_KINDS[kind]}, got {reprlib.repr(x)}")
    return x


def _names(x, what: str) -> tuple[str, ...]:
    return tuple(_typed(a, str, f"each of {what}") for a in _typed(x, list, what))


def _letter(a: str, what: str) -> str:
    if a == "" or "," in a:  # "" prints as the empty word, "," splits word text
        raise ParseError(f"{what} {reprlib.repr(a)} is empty or contains ','")
    return a


def frac_from_str(s) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {reprlib.repr(s)}")
    m = _FRACTION_RE.fullmatch(s)
    if not m:
        raise ParseError(f"malformed rational {reprlib.repr(s)}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ParseError(f"zero denominator in {reprlib.repr(s)}")
    return Fraction(num, den)


def _entry_to_str(x: int, den: int) -> str:
    """x/den in lowest terms: "p/q", or "p" when q is 1."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def matrix_to_json(A: Mat) -> dict:
    return {"n": A.rows,
            "entries": [[_entry_to_str(x, A.den) for x in r] for r in A.int_rows()]}


def matrix_from_json(obj, context: str = "matrix") -> Mat:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError(f"{context}: expected an object with 'entries'")
    try:
        rows = [[frac_from_str(x) for x in _typed(row, list, "a row")]
                for row in _typed(obj["entries"], list, "'entries'")]
        n = _typed(obj.get("n", len(rows)), int, "'n'")
    except ParseError as exc:
        raise ParseError(f"{context}: {exc}") from exc
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"{context}: expected a square {n}x{n} entry grid")
    return Mat(rows, cols=n)


def _matrices(named: dict, letters, n: int, noun: str) -> dict:
    """Letter -> n x n matrix, for each of `letters` in turn, read from the
    JSON object `named`, which may name no other letter."""
    mapping = {}
    for a in letters:
        what = f"{noun} {reprlib.repr(a)}"
        if a not in named:
            raise ParseError(f"missing {noun} matrix for letter {reprlib.repr(a)}")
        m = matrix_from_json(named[a], context=what)
        if m.rows != n:
            raise ParseError(f"{what} is not {n}x{n}")
        mapping[a] = m
    for a in named:
        if a not in mapping:
            raise ParseError(f"{noun} {reprlib.repr(a)} is for a letter not in the alphabet")
    return mapping


def generators_from_json(obj) -> MorphismTable:
    if not isinstance(obj, dict) or "generators" not in obj or "n" not in obj:
        raise ParseError("generators file needs 'n' and 'generators'")
    n = _typed(obj["n"], int, "'n'")
    if n < 1:
        raise ParseError(f"'n' must be at least 1, got {reprlib.repr(n)}")
    gens = obj["generators"]
    if not isinstance(gens, dict) or not gens:
        raise ParseError("'generators' must be a nonempty object")
    mapping = _matrices(gens, (_letter(a, "generator name") for a in gens), n, "generator")
    return MorphismTable(n, tuple(sorted(mapping)), mapping)


def automaton_from_json(obj) -> WeightedAutomaton:
    for field in ("n", "alphabet", "transitions", "alpha", "eta"):
        if not isinstance(obj, dict) or field not in obj:
            raise ParseError(f"automaton file needs '{field}'")
    n = _typed(obj["n"], int, "'n'")
    alphabet = tuple(_letter(a, "letter") for a in _names(obj["alphabet"], "'alphabet'"))
    transitions = _typed(obj["transitions"], dict, "'transitions'")
    mapping = _matrices(transitions, alphabet, n, "transition")
    alpha = tuple(frac_from_str(x) for x in _typed(obj["alpha"], list, "'alpha'"))
    eta = tuple(frac_from_str(x) for x in _typed(obj["eta"], list, "'eta'"))
    if len(alpha) != n or len(eta) != n:
        raise ParseError("alpha and eta must have n entries")
    try:
        return WeightedAutomaton(MorphismTable(n, alphabet, mapping), alpha, eta)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def vass_from_json(obj) -> AffineVass:
    for field in ("d", "states", "transitions"):
        if not isinstance(obj, dict) or field not in obj:
            raise ParseError(f"VASS file needs '{field}'")
    d = _typed(obj["d"], int, "'d'")
    transitions = []
    for i, t in enumerate(_typed(obj["transitions"], list, "'transitions'")):
        if not isinstance(t, dict) or any(f not in t for f in ("from", "A", "b", "to")):
            raise ParseError(f"transition {i} needs 'from', 'A', 'b' and 'to'")
        A = _typed(t["A"], list, f"transition {i}: 'A'")
        if len(A) != d or any(type(r) is not list or len(r) != d for r in A):
            raise ParseError(f"transition {i}: matrix is not {d}x{d}")
        if len(_typed(t["b"], list, f"transition {i}: 'b'")) != d:
            raise ParseError(f"transition {i}: offset is not length {d}")
        # JSON integers only: a float or a string would be truncated or misread
        entries = [x for r in A for x in r] + t["b"]
        if any(type(x) is not int for x in entries):
            raise ParseError(f"transition {i}: 'A' and 'b' entries must be JSON integers")
        source, target = (_typed(t[f], str, f"transition {i}: {f!r}") for f in ("from", "to"))
        transitions.append(Transition(source, Mat(A, cols=d), tuple(t["b"]), target))
    try:
        return AffineVass(d, _names(obj["states"], "'states'"), tuple(transitions))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _joined(alphabet) -> bool:
    """Whether words over `alphabet` are written without commas."""
    return all(len(a) == 1 for a in alphabet)


def parse_word(text: str, alphabet) -> tuple:
    """A word from CLI text: comma-separated letters, or one character per
    letter when every alphabet letter is a single character."""
    if text == "":
        return ()
    letters = set(alphabet)
    if "," in text:
        parts = tuple(text.split(","))
    elif _joined(alphabet):
        parts = tuple(text)
    else:
        parts = (text,)
    for p in parts:
        if p not in letters:
            raise ParseError(f"letter {reprlib.repr(p)} is not in the alphabet")
    return parts


def word_to_str(word, alphabet) -> str:
    """The text parse_word reads back as `word`, a word over `alphabet`."""
    return ("" if _joined(alphabet) else ",").join(word)
