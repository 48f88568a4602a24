"""Batch command-line front end.

Exit codes: 0 = a decision or artifact was produced, 1 = usage or parse
error, 2 = a closure cap was exceeded without reaching a verdict. All
results are single JSON documents on stdout (or --output).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import reprlib
import sys
from itertools import accumulate

from . import __version__
from .grouplat import NonInvertibleGenerator, group_closure, integerize
from .imagegraph import MixedRankGenerators, build_image_graph, to_dot
from .linalg import inverse
from .semigroup import (DEFAULT_CAP, CapExceeded, FinitenessResult, InfiniteSemigroup,
                        decide_finiteness, g_upper_bound, length_bound, size_bound)
from .serialize import (ParseError, automaton_from_json, generators_from_json,
                        matrix_to_json, parse_word, vass_from_json, word_to_str)
from .shortener import shorten
from .vass import Configuration, reach_bounded, transition_matrices
from .wautomata import decide_wa_finiteness


class CliError(Exception):
    pass


# Deeper nesting of arrays and objects is refused, counted on the text (a
# string matches '') if it has more openers, not left to the caller's stack.
_MAX_NESTING = 1000
_BRACKETS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|([][{}])', re.DOTALL)


def _load_json(path: str, kind: str):
    """The model in the JSON file at `path`, read by the `kind` reader (looked
    up per call, so a wrapped reader, say a profiler's, is the one called)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count("[") + text.count("{") > _MAX_NESTING and max(accumulate(
                (c in "[{") - (c in "]}") for c in _BRACKETS.findall(text))) > _MAX_NESTING:
            raise CliError(f"{path}: nested too deeply")
        limit = sys.getrecursionlimit()  # json's decoder recurses once per level
        sys.setrecursionlimit(limit + _MAX_NESTING)
        try:
            obj = json.loads(text)
        finally:
            sys.setrecursionlimit(limit)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise CliError(f"{path}: {exc}")
    return {"generators": generators_from_json, "automaton": automaton_from_json,
            "vass": vass_from_json}[kind](obj)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _at_least(value, flag: str, minimum: int):
    """An optional integer option, refused below `minimum`."""
    if value is not None and value < minimum:
        raise CliError(f"{flag} must be at least {minimum}, got {reprlib.repr(value)}")
    return value


def _cap(value) -> int:
    """--cap when given, else SEMIFORGE_CAP when set, else DEFAULT_CAP; at
    least 1. The only place the environment variable is read."""
    if value is not None:
        return _at_least(value, "--cap", 1)
    text = os.environ.get("SEMIFORGE_CAP")
    if text is None:
        return DEFAULT_CAP
    try:
        return _at_least(int(text), "SEMIFORGE_CAP", 1)
    except ValueError:
        raise CliError(f"SEMIFORGE_CAP must be an integer, got {reprlib.repr(text)}")


def _witness_listing(result, alphabet) -> list:
    return [{"word": word_to_str(w, alphabet), "matrix": matrix_to_json(m)}
            for m, w in result.witness.items()]


def _verdict(verdict: FinitenessResult, cap, alphabet) -> tuple[int, dict]:
    """Exit code and JSON of a FinitenessResult, without the closure."""
    w = verdict.witness
    if verdict.status == "exceeded_cap":
        return 2, {"status": "exceeded_cap", "cap": cap}
    if verdict.status == "infinite":
        return 0, {"status": "infinite", "witness": None if w is None else word_to_str(w, alphabet)}
    return 0, {"status": verdict.status}


def cmd_finiteness(args, table) -> tuple[int, dict]:
    """finiteness, and closure, which always lists the elements and says
    whether the identity is among them."""
    verdict = decide_finiteness(table, args.cap)
    code, out = _verdict(verdict, args.cap, table.alphabet)
    result = verdict.closure
    listing = args.command == "closure"
    if result is not None:
        out["count"] = len(result)
        if listing:
            out["identity_expressible"] = result.identity_expressible
        if listing or args.witnesses:
            out["elements"] = _witness_listing(result, table.alphabet)
    return code, out


def cmd_shorten(args, table) -> tuple[int, dict]:
    word = parse_word(args.word, table.alphabet)
    u = shorten(table, word, assume_finite=args.assume_finite, cap=args.cap)
    verified = table.evaluate(u) == table.evaluate(word)
    return 0, {"input_length": len(word),
               "output_word": word_to_str(u, table.alphabet),
               "output_length": len(u),
               "bound": _bound_fields(table.n)["length_bound"],
               "verified": verified}


# Python's default int -> str limit is 4300 digits
_DECIMAL_LIMIT = 10 ** 4300
_LIMIT_BITS = _DECIMAL_LIMIT.bit_length()


def _decimal(value: int | None, closed_form: str) -> str:
    return closed_form if value is None or value >= _DECIMAL_LIMIT else str(value)


def _bound_fields(n: int, m: int | None = None) -> dict:
    """The bounds in decimal while they have at most 4300 digits, else as
    exact closed forms. A bound is built only when a lower bound on its bit
    length ((2n)! >= n^n, L >= 2^(n(2n+3)), size >= m^L >= 2^(L*(bits(m)-1)))
    is below the limit, so a built bound has at most about 100k bits."""
    K, E, P = 2 * n, n * (2 * n + 3), n + 1
    g = g_upper_bound(n) if n * (n.bit_length() - 1) < _LIMIT_BITS else None
    L = length_bound(n) if E < _LIMIT_BITS else None
    out = {"g_upper": _decimal(g, f"({K})!"),
           "length_bound": _decimal(L, f"2^({E})*({K}!)^({P})")}
    if m is not None:
        small = L is not None and L * (m.bit_length() - 1) < _LIMIT_BITS
        Lt = out["length_bound"]
        out["m"] = m
        out["size_bound"] = _decimal(size_bound(n, m) if small else None,
                                     Lt if m == 1 else f"({m}^({Lt}+1) - {m})/({m} - 1)")
    return out


def cmd_bound(args, _) -> tuple[int, dict]:
    _at_least(args.n, "--n", 1)
    _at_least(args.m, "--m", 1)
    return 0, {"n": args.n, **_bound_fields(args.n, args.m)}


def cmd_integerize(args, table) -> tuple[int, dict]:
    G = group_closure(table, args.cap)
    C = integerize(G)
    Cinv = inverse(C)
    conjugated = {a: matrix_to_json(C * table.mapping[a] * Cinv) for a in table.alphabet}
    return 0, {"status": "finite", "order": G.order,
               "C": matrix_to_json(C), "conjugated_generators": conjugated}


def cmd_image_graph(args, table) -> tuple[int, dict]:
    G = build_image_graph(table)
    if args.dot:
        _write(args.dot, to_dot(G))
    vertices = [{"basis": matrix_to_json(v.basis)["entries"],
                 "scc": G.scc_id[v]} for v in G.vertices]
    names = {v: i for i, v in enumerate(G.vertices)}
    edges = [{"from": names[v], "letter": a, "to": names[w]}
             for v in G.vertices for a, w in G.out[v].items()]
    return 0, {"rank": G.rank, "vertices": vertices, "edges": edges,
               "num_sccs": G.num_sccs}


def cmd_wa_finite(args, A) -> tuple[int, dict]:
    return _verdict(decide_wa_finiteness(A, args.cap), args.cap, A.alphabet)


def cmd_vass_fmp(args, V) -> tuple[int, dict]:
    table = transition_matrices(V)
    return _verdict(decide_finiteness(table, args.cap), args.cap, table.alphabet)


def _parse_config(text: str, d: int) -> Configuration:
    state, _, rest = text.partition(":")
    parts = rest.split(",") if rest else []
    if not state or not all(re.fullmatch("-?[0-9]+", p) for p in parts):
        raise CliError(f"bad configuration {reprlib.repr(text)}; expected state:v1,...,vd")
    if len(parts) != d:
        raise CliError(f"configuration {reprlib.repr(text)} needs {d} vector entries")
    try:
        return Configuration(state, tuple(int(p) for p in parts))
    except ValueError as exc:  # more digits than int() reads
        raise CliError(f"bad configuration {reprlib.repr(text)}: {exc}")


def cmd_vass_reach(args, V) -> tuple[int, dict]:
    source = _parse_config(args.source, V.d)
    target = _parse_config(args.target, V.d)
    if source.state not in V.states or target.state not in V.states:
        raise CliError("configuration state is not in the model")
    result = reach_bounded(V, source, target, args.budget)
    out = {"status": result.status}
    if result.status == "reached":
        out["path"] = list(result.path)
        out["length"] = len(result.path)
    return 0, out


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, as for every other usage
    error; argparse's own 2 would read as an exceeded cap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than parsing with it."""
    parser = _Parser(prog="semiforge")
    parser.add_argument("--version", action="version", version=f"semiforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, reader, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler, reader=reader)
        p.add_argument("--output", help="write the JSON result to this file")
        if reader:
            p.add_argument("input")
        return p

    def capped(p):
        p.add_argument("--cap", type=int)

    p = add("finiteness", cmd_finiteness, "generators", help="decide semigroup finiteness")
    capped(p)
    p.add_argument("--witnesses", action="store_true")

    capped(add("closure", cmd_finiteness, "generators",
               help="enumerate the semigroup with witness words"))

    p = add("shorten", cmd_shorten, "generators",
            help="rewrite a word as a short equal-value product")
    p.add_argument("--word", required=True)
    capped(p)
    p.add_argument("--assume-finite", action="store_true")

    p = add("bound", cmd_bound, None, help="length/size bound calculators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)

    capped(add("integerize", cmd_integerize, "generators",
               help="conjugate a finite group into GL(n,Z)"))

    p = add("image-graph", cmd_image_graph, "generators", help="build the rank-r image graph")
    p.add_argument("--dot", help="also write a GraphViz file")

    capped(add("wa-finite", cmd_wa_finite, "automaton",
               help="decide weighted-automaton finiteness"))
    capped(add("vass-fmp", cmd_vass_fmp, "vass", help="check the finite monoid property"))

    p = add("vass-reach", cmd_vass_reach, "vass", help="bounded reachability exploration")
    p.add_argument("--from", dest="source", required=True, metavar="STATE:V1,..,VD")
    p.add_argument("--to", dest="target", required=True, metavar="STATE:V1,..,VD")
    p.add_argument("--budget", type=int, required=True)

    return parser


def main(argv=None) -> int:
    """Resolve the cap, check --budget, load the input, run the handler."""
    args = build_parser().parse_args(argv)
    try:
        args.cap = _cap(args.cap) if "cap" in args else None
        _at_least(getattr(args, "budget", None), "--budget", 0)
        model = _load_json(args.input, args.reader) if args.reader else None
        try:
            code, result = args.handler(args, model)
        except InfiniteSemigroup as exc:
            code, result = _verdict(FinitenessResult("infinite", witness=exc.witness), None,
                                    model.alphabet)
        except CapExceeded:
            code, result = _verdict(FinitenessResult("exceeded_cap"), args.cap, ())
        text = json.dumps(result, indent=2)
        if args.output:
            _write(args.output, text + "\n")
        else:
            print(text)
    except (CliError, ParseError, MixedRankGenerators, NonInvertibleGenerator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
