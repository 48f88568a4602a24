"""JSON encodings for matrices, generator tables, weighted automata and
VASS models. Rationals travel as strings ("p/q" or an integer string, q
positive) so no consumer ever rounds them.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import Mat
from .semigroup import MorphismTable
from .vass import AffineVass, Transition
from .wautomata import WeightedAutomaton


class ParseError(ValueError):
    pass


_FRACTION_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def frac_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {s!r}")
    m = _FRACTION_RE.match(s.strip())
    if not m:
        raise ParseError(f"malformed rational {s!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ParseError(f"zero denominator in {s!r}")
    return Fraction(num, den)


def matrix_to_json(A: Mat) -> dict:
    return {"n": A.rows, "entries": [[frac_to_str(x) for x in r] for r in A.data]}


def matrix_from_json(obj, context: str = "matrix") -> Mat:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError(f"{context}: expected an object with 'entries'")
    entries = obj["entries"]
    try:
        rows = [[frac_from_str(x) for x in row] for row in entries]
    except ParseError as exc:
        raise ParseError(f"{context}: {exc}") from exc
    n = obj.get("n", len(rows))
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"{context}: expected a square {n}x{n} entry grid")
    return Mat(rows, cols=n)


def generators_to_json(table: MorphismTable) -> dict:
    return {"n": table.n,
            "generators": {a: matrix_to_json(table.mapping[a]) for a in table.alphabet}}


def generators_from_json(obj) -> MorphismTable:
    if not isinstance(obj, dict) or "generators" not in obj or "n" not in obj:
        raise ParseError("generators file needs 'n' and 'generators'")
    n = obj["n"]
    gens = obj["generators"]
    if not isinstance(gens, dict) or not gens:
        raise ParseError("'generators' must be a nonempty object")
    mapping = {}
    for name in gens:
        m = matrix_from_json(gens[name], context=f"generator {name!r}")
        if m.rows != n:
            raise ParseError(f"generator {name!r} is not {n}x{n}")
        mapping[name] = m
    return MorphismTable(n, tuple(sorted(mapping)), mapping)


def automaton_to_json(A: WeightedAutomaton) -> dict:
    return {"n": A.n,
            "alphabet": list(A.alphabet),
            "transitions": {a: matrix_to_json(A.table.mapping[a]) for a in A.alphabet},
            "alpha": [frac_to_str(x) for x in A.alpha],
            "eta": [frac_to_str(x) for x in A.eta]}


def automaton_from_json(obj) -> WeightedAutomaton:
    for field in ("n", "alphabet", "transitions", "alpha", "eta"):
        if not isinstance(obj, dict) or field not in obj:
            raise ParseError(f"automaton file needs '{field}'")
    n = obj["n"]
    alphabet = tuple(obj["alphabet"])
    mapping = {}
    for a in alphabet:
        if a not in obj["transitions"]:
            raise ParseError(f"missing transition matrix for letter {a!r}")
        m = matrix_from_json(obj["transitions"][a], context=f"transition {a!r}")
        if m.rows != n:
            raise ParseError(f"transition {a!r} is not {n}x{n}")
        mapping[a] = m
    alpha = tuple(frac_from_str(x) for x in obj["alpha"])
    eta = tuple(frac_from_str(x) for x in obj["eta"])
    if len(alpha) != n or len(eta) != n:
        raise ParseError("alpha and eta must have n entries")
    return WeightedAutomaton(MorphismTable(n, alphabet, mapping), alpha, eta)


def vass_to_json(V: AffineVass) -> dict:
    return {"d": V.d,
            "states": list(V.states),
            "transitions": [{"from": t.source,
                             "A": [[int(x) for x in r] for r in t.matrix.data],
                             "b": list(t.offset),
                             "to": t.target} for t in V.transitions]}


def vass_from_json(obj) -> AffineVass:
    for field in ("d", "states", "transitions"):
        if not isinstance(obj, dict) or field not in obj:
            raise ParseError(f"VASS file needs '{field}'")
    d = obj["d"]
    transitions = []
    for i, t in enumerate(obj["transitions"]):
        for field in ("from", "A", "b", "to"):
            if field not in t:
                raise ParseError(f"transition {i} needs '{field}'")
        A = t["A"]
        if len(A) != d or any(len(r) != d for r in A):
            raise ParseError(f"transition {i}: matrix is not {d}x{d}")
        if len(t["b"]) != d:
            raise ParseError(f"transition {i}: offset is not length {d}")
        # JSON integers only: a float or a string would be truncated or misread
        entries = [x for r in A for x in r] + list(t["b"])
        if any(type(x) is not int for x in entries):
            raise ParseError(f"transition {i}: 'A' and 'b' entries must be JSON integers")
        transitions.append(Transition(t["from"], Mat(A, cols=d), tuple(t["b"]), t["to"]))
    try:
        return AffineVass(d, tuple(obj["states"]), tuple(transitions))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_word(text: str, alphabet) -> tuple:
    """A word from CLI text: comma-separated letters, or one character per
    letter when every alphabet letter is a single character."""
    if text == "":
        return ()
    letters = set(alphabet)
    if "," in text:
        parts = tuple(text.split(","))
    elif all(len(a) == 1 for a in letters):
        parts = tuple(text)
    else:
        parts = (text,)
    for p in parts:
        if p not in letters:
            raise ParseError(f"letter {p!r} is not in the alphabet")
    return parts


def word_to_str(word) -> str:
    if all(len(a) == 1 for a in word):
        return "".join(word)
    return ",".join(word)
