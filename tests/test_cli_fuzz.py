"""Fuzzing the command line: every input ends in a documented exit code.

Each subcommand gets small JSON documents, well formed or with one part
replaced by arbitrary JSON or deleted, and is run in-process through
`main`. Whatever the document, the exit code is 0, 1 or 2, nothing
escapes as a traceback, and exits 0 and 2 print one JSON document. The
words printed on exit 0 read back to the values they stand for, and a
printed witness of infiniteness to a matrix that is not torsion.

Hostile documents, nested deeper than Python's recursion limit or near
it, or declaring a huge `n` or `d` over tiny bodies, end in exit 1 with
an `error:` line.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semiforge import is_torsion
from semiforge.cli import main
from semiforge.serialize import generators_from_json, matrix_to_json, parse_word

small = st.integers(-3, 3)
rational = st.one_of(small, st.sampled_from(["1/2", "-3/2", "2/3", " 1 ", "0"]))
junk = st.recursive(
    st.one_of(st.none(), st.booleans(), small, st.floats(-2, 2, allow_nan=False),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=6)
# "ab" next to "a" and "b": joined word text would be ambiguous
letters = st.lists(st.sampled_from(["a", "b", "ab"]), min_size=1, max_size=3, unique=True)


def grid(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def matrix_doc(n):
    return st.fixed_dictionaries({"n": st.just(n), "entries": grid(n, rational)})


@st.composite
def generators_doc(draw):
    n = draw(st.integers(0, 3))
    return {"n": n, "generators": {a: draw(matrix_doc(n)) for a in draw(letters)}}


@st.composite
def automaton_doc(draw):
    n = draw(st.integers(0, 3))
    alphabet = draw(letters)
    vector = st.lists(rational, min_size=n, max_size=n)
    return {"n": n, "alphabet": alphabet,
            "transitions": {a: draw(matrix_doc(n)) for a in alphabet},
            "alpha": draw(vector), "eta": draw(vector)}


@st.composite
def vass_doc(draw):
    d = draw(st.integers(0, 2))
    state = st.sampled_from(["p", "q"])
    transition = st.fixed_dictionaries({
        "from": state, "A": grid(d, st.integers(-2, 2)),
        "b": st.lists(st.integers(-2, 2), min_size=d, max_size=d), "to": state})
    return {"d": d, "states": ["p", "q"],
            "transitions": draw(st.lists(transition, max_size=3))}


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


_DELETE = object()


def _edit(doc, path, value):
    """A copy of doc with the part at path replaced by value, or removed
    when value is _DELETE (then the part is an object field)."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    if rest or value is not _DELETE:
        copy[head] = _edit(doc[head], rest, value)
    else:
        del copy[head]
    return copy


@st.composite
def mutated(draw, valid):
    doc = draw(valid)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(doc))))
        field = bool(path) and isinstance(path[-1], str)
        doc = _edit(doc, path, draw(st.one_of(junk, st.just(_DELETE)) if field else junk))
    return doc


cap = st.integers(1, 30).map(str)
config = st.one_of(
    st.builds(lambda s, v: f"{s}:" + ",".join(map(str, v)),
              st.sampled_from(["p", "q", "z"]), st.lists(small, max_size=3)),
    # argparse would take a leading "-" for an option
    st.text(alphabet="pq:,-1x", max_size=5).filter(lambda s: not s.startswith("-")))

# subcommand -> (document strategy or None, strategy for the arguments after the file)
COMMANDS = {
    "finiteness": (generators_doc(), st.tuples(st.just("--cap"), cap).flatmap(
        lambda t: st.sampled_from([t, t + ("--witnesses",)]))),
    "closure": (generators_doc(), st.tuples(st.just("--cap"), cap)),
    "shorten": (generators_doc(), st.tuples(
        st.just("--word"), st.text(alphabet="abc,", max_size=6), st.just("--cap"), cap)
        .flatmap(lambda t: st.sampled_from([t, t + ("--assume-finite",)]))),
    "integerize": (generators_doc(), st.one_of(st.just(()), st.tuples(st.just("--cap"), cap))),
    "image-graph": (generators_doc(), st.just(())),
    "wa-finite": (automaton_doc(), st.tuples(st.just("--cap"), cap)),
    "vass-fmp": (vass_doc(), st.tuples(st.just("--cap"), cap)),
    "vass-reach": (vass_doc(), st.tuples(
        st.just("--from"), config, st.just("--to"), config,
        st.just("--budget"), st.integers(-1, 20).map(str))),
    "bound": (None, st.tuples(
        st.just("--n"), st.sampled_from([-1, 0, 1, 2, 34, 35, 10 ** 6]).map(str))
        .flatmap(lambda t: st.sampled_from([t, t + ("--m", "1"), t + ("--m", "3")]))),
}


def _words_read_back(doc, args, out):
    """Every word printed by finiteness, closure or shorten reads back
    through parse_word to a word whose value is the printed matrix, the
    shortened input, or (a witness) a matrix that is not torsion."""
    table = generators_from_json(doc)

    def value(text):
        return table.evaluate(parse_word(text, table.alphabet))

    for element in out.get("elements", ()):
        assert matrix_to_json(value(element["word"])) == element["matrix"]
    if "output_word" in out:
        assert value(out["output_word"]) == value(args[1])
    if out.get("witness") is not None:
        assert not is_torsion(value(out["witness"]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_input_ends_in_a_documented_exit_code(command, workdir, capsys):
    doc_strategy, args_strategy = COMMANDS[command]
    path = workdir / f"{command}.json"

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.none() if doc_strategy is None else mutated(doc_strategy), args_strategy)
    def check(doc, args):
        argv = [command, *args]
        if doc_strategy is not None:
            path.write_text(json.dumps(doc))
            argv.insert(1, str(path))
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if code == 1:
            assert captured.out == "" and captured.err.startswith("error: ")
        else:
            out = json.loads(captured.out)
            if code == 0 and command in ("finiteness", "closure", "shorten"):
                _words_read_back(doc, args, out)

    check()


FILE_COMMANDS = sorted(c for c, (doc, _) in COMMANDS.items() if doc is not None)
_DEEP = "@@deep@@"


@st.composite
def deep_text(draw, valid):
    """JSON text of a document from `valid`, whole or with one part
    replaced by lists and objects nested hundreds to 100000 deep."""
    doc = draw(valid)
    path = draw(st.sampled_from(list(_paths(doc))))
    depth = draw(st.one_of(st.integers(500, 3000), st.just(100000)))
    # a short pattern of lists and objects, repeated down to the depth
    pattern = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    kinds = [pattern[i % len(pattern)] for i in range(depth)]
    deep = "".join('{"k": ' if k else "[" for k in kinds) + "0" + \
        "".join("}" if k else "]" for k in reversed(kinds))
    return json.dumps(_edit(doc, path, _DEEP)).replace(json.dumps(_DEEP), deep)


def _oversized(doc):
    """The document with its dimension raised far past its bodies; a VASS
    keeps at least one transition, since none is a valid model at any d."""
    return st.sampled_from([5, 1000, 10 ** 6, 10 ** 18]).map(
        lambda big: {**doc, ("d" if "d" in doc else "n"): big})


def _refused(command, args, text, path, capsys):
    path.write_text(text)
    code = main([command, str(path), *args])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code == 1, captured.out
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_deep_documents_are_exit_1(command, workdir, capsys):
    doc_strategy, args_strategy = COMMANDS[command]

    @settings(max_examples=15, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(deep_text(doc_strategy), args_strategy)
    def check(text, args):
        _refused(command, args, text, workdir / f"deep-{command}.json", capsys)

    check()


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_huge_dimensions_over_tiny_bodies_are_exit_1(command, workdir, capsys):
    doc_strategy, args_strategy = COMMANDS[command]
    docs = doc_strategy.filter(lambda d: d.get("transitions", True)).flatmap(_oversized)

    @settings(max_examples=30, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(docs, args_strategy)
    def check(doc, args):
        _refused(command, args, json.dumps(doc), workdir / f"huge-{command}.json", capsys)

    check()
