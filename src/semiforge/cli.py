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
import sys

from . import __version__
from .grouplat import GroupInfinite, NonInvertibleGenerator, group_closure, integerize
from .imagegraph import MixedRankGenerators, build_image_graph, to_dot
from .linalg import inverse
from .semigroup import (CapExceeded, closure, decide_finiteness, default_cap,
                        g_upper_bound, length_bound, size_bound)
from .serialize import (ParseError, automaton_from_json, generators_from_json,
                        matrix_to_json, parse_word, vass_from_json, word_to_str)
from .shortener import InfiniteSemigroup, shorten
from .vass import Configuration, check_fmp, reach_bounded
from .wautomata import decide_wa_finiteness


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise CliError(f"{path}: {exc}")


def _write(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _at_least(value, flag: str, minimum: int):
    """An optional integer option, refused below `minimum`."""
    if value is not None and value < minimum:
        raise CliError(f"{flag} must be at least {minimum}, got {value}")
    return value


def _cap(value) -> int:
    """--cap when given, else SEMIFORGE_CAP or the default; at least 1."""
    if value is not None:
        return _at_least(value, "--cap", 1)
    try:
        return _at_least(default_cap(), "SEMIFORGE_CAP", 1)
    except ValueError:
        raise CliError(f"SEMIFORGE_CAP must be an integer, got {os.environ['SEMIFORGE_CAP']!r}")


def _witness_listing(result) -> list:
    return [{"word": word_to_str(w), "matrix": matrix_to_json(m)}
            for m, w in result.witness.items()]


def _exceeded(cap) -> tuple[int, dict]:
    return 2, {"status": "exceeded_cap", "cap": cap}


def _verdict(verdict, cap) -> tuple[int, dict]:
    """Exit code and JSON of a FinitenessResult, without the closure."""
    if verdict.status == "exceeded_cap":
        return _exceeded(cap)
    out = {"status": verdict.status}
    if verdict.status == "infinite":
        out["witness"] = word_to_str(verdict.witness)
    return 0, out


def cmd_finiteness(args) -> tuple[int, dict]:
    cap = _cap(args.cap)
    table = generators_from_json(_load_json(args.input))
    verdict = decide_finiteness(table, cap)
    code, out = _verdict(verdict, cap)
    if verdict.status == "finite":
        out["count"] = len(verdict.closure)
        if args.witnesses:
            out["elements"] = _witness_listing(verdict.closure)
    return code, out


def cmd_closure(args) -> tuple[int, dict]:
    cap = _cap(args.cap)
    table = generators_from_json(_load_json(args.input))
    result = closure(table, cap)
    if result.status == "exceeded_cap":
        return _exceeded(cap)
    return 0, {"status": "finite", "count": len(result),
               "identity_expressible": result.identity_expressible,
               "elements": _witness_listing(result)}


def cmd_shorten(args) -> tuple[int, dict]:
    path = args.input or args.generators
    if path is None or (args.input and args.generators):
        raise CliError("give the generators file once (positionally or via --generators)")
    cap = _cap(args.cap)
    table = generators_from_json(_load_json(path))
    word = parse_word(args.word, table.alphabet)
    try:
        u = shorten(table, word, assume_finite=args.assume_finite, cap=cap)
    except InfiniteSemigroup as exc:
        return 0, {"status": "infinite",
                   "witness": word_to_str(exc.witness) if exc.witness else None}
    except CapExceeded:
        return _exceeded(cap)
    verified = table.evaluate(u) == table.evaluate(word)
    return 0, {"input_length": len(word),
               "output_word": word_to_str(u),
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
    L = length_bound(n).length_bound if E < _LIMIT_BITS else None
    out = {"g_upper": _decimal(g, f"({K})!"),
           "length_bound": _decimal(L, f"2^({E})*({K}!)^({P})")}
    if m is not None:
        small = L is not None and L * (m.bit_length() - 1) < _LIMIT_BITS
        Lt = out["length_bound"]
        out["m"] = m
        out["size_bound"] = _decimal(size_bound(n, m) if small else None,
                                     Lt if m == 1 else f"({m}^({Lt}+1) - {m})/({m} - 1)")
    return out


def cmd_bound(args) -> tuple[int, dict]:
    _at_least(args.n, "--n", 1)
    _at_least(args.m, "--m", 1)
    return 0, {"n": args.n, **_bound_fields(args.n, args.m)}


def cmd_integerize(args) -> tuple[int, dict]:
    table = generators_from_json(_load_json(args.input))
    try:
        G = group_closure(table.mapping)
    except GroupInfinite as exc:
        return 0, {"status": "infinite",
                   "witness": word_to_str(exc.witness) if exc.witness else None}
    C = integerize(G)
    Cinv = inverse(C)
    conjugated = {a: matrix_to_json(C * table.mapping[a] * Cinv) for a in table.alphabet}
    return 0, {"status": "finite", "order": G.order,
               "C": matrix_to_json(C), "conjugated_generators": conjugated}


def cmd_image_graph(args) -> tuple[int, dict]:
    table = generators_from_json(_load_json(args.input))
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


def cmd_wa_finite(args) -> tuple[int, dict]:
    cap = _cap(args.cap)
    A = automaton_from_json(_load_json(args.input))
    return _verdict(decide_wa_finiteness(A, cap), cap)


def cmd_vass_fmp(args) -> tuple[int, dict]:
    cap = _cap(args.cap)
    V = vass_from_json(_load_json(args.input))
    return _verdict(check_fmp(V, cap), cap)


def _parse_config(text: str, d: int) -> Configuration:
    state, _, rest = text.partition(":")
    if not state:
        raise CliError(f"bad configuration {text!r}; expected state:v1,...,vd")
    parts = [p for p in rest.split(",") if p != ""]
    if len(parts) != d:
        raise CliError(f"configuration {text!r} needs {d} vector entries")
    try:
        return Configuration(state, tuple(int(p) for p in parts))
    except ValueError as exc:
        raise CliError(f"bad configuration {text!r}: {exc}")


def cmd_vass_reach(args) -> tuple[int, dict]:
    _at_least(args.budget, "--budget", 0)
    V = vass_from_json(_load_json(args.input))
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

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--output", help="write the JSON result to this file")
        return p

    p = add("finiteness", cmd_finiteness, help="decide semigroup finiteness")
    p.add_argument("input")
    p.add_argument("--cap", type=int)
    p.add_argument("--witnesses", action="store_true")

    p = add("closure", cmd_closure, help="enumerate the semigroup with witness words")
    p.add_argument("input")
    p.add_argument("--cap", type=int)

    p = add("shorten", cmd_shorten, help="rewrite a word as a short equal-value product")
    p.add_argument("input", nargs="?")
    p.add_argument("--generators")
    p.add_argument("--word", required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--assume-finite", action="store_true")

    p = add("bound", cmd_bound, help="length/size bound calculators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)

    p = add("integerize", cmd_integerize, help="conjugate a finite group into GL(n,Z)")
    p.add_argument("input")

    p = add("image-graph", cmd_image_graph, help="build the rank-r image graph")
    p.add_argument("input")
    p.add_argument("--dot", help="also write a GraphViz file")

    p = add("wa-finite", cmd_wa_finite, help="decide weighted-automaton finiteness")
    p.add_argument("input")
    p.add_argument("--cap", type=int)

    p = add("vass-fmp", cmd_vass_fmp, help="check the finite monoid property")
    p.add_argument("input")
    p.add_argument("--cap", type=int)

    p = add("vass-reach", cmd_vass_reach, help="bounded reachability exploration")
    p.add_argument("input")
    p.add_argument("--from", dest="source", required=True, metavar="STATE:V1,..,VD")
    p.add_argument("--to", dest="target", required=True, metavar="STATE:V1,..,VD")
    p.add_argument("--budget", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, result = args.handler(args)
        text = json.dumps(result, indent=2)
        if args.output:
            _write(args.output, text + "\n")
        else:
            print(text)
    except (CliError, ParseError, MixedRankGenerators, NonInvertibleGenerator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
