"""Golden corpus: fixed CLI inputs and their exact JSON output.

Each case runs one subcommand on an input under tests/golden/ and
compares stdout byte for byte with tests/golden/expected/<case>.json,
so any change in verdicts, witness words, element order or rational
formatting shows up here. The GraphViz file of `image-graph --dot` is
compared the same way with tests/golden/expected/image_graph.dot.
The cases and the --dot file are made twice more, each time all in one
fresh process: under PYTHONHASHSEED=0 with asserts on, and under
PYTHONHASHSEED=12345 in `python -O`, where the library's self-check
asserts are compiled away. No output may depend on asserts or on string
hashing. They are made once more in-process with `Mat.data` and scalar
`Mat` products refused, so every CLI path computes and writes on
numerators.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semiforge
from semiforge import Mat
from semiforge.cli import main

GOLDEN = Path(__file__).parent / "golden"

# case -> (exit code, argv with the input file name first after the subcommand)
CASES = {
    "finiteness_witnesses": (0, ["finiteness", "dihedral_rational.json", "--witnesses"]),
    "finiteness_infinite": (0, ["finiteness", "involutions_rational.json"]),
    "closure": (0, ["closure", "rotation_projection.json"]),
    "closure_infinite": (0, ["closure", "involutions_rational.json", "--cap", "5"]),
    "integerize": (0, ["integerize", "signed_perm3_rational.json"]),
    "integerize_infinite": (0, ["integerize", "involutions_rational.json"]),
    # letter b is the identity and d repeats a: neither has a one-letter witness
    "integerize_repeated_letters": (0, ["integerize", "repeated_letters_rational.json"]),
    "image_graph": (0, ["image-graph", "rank2_rational.json"]),
    "shorten": (0, ["shorten", "mixed_rank3_rational.json",
                    "--word", "qpraaaqapaarraparaaparapapqrpaqpapqaaapr"]),
    "shorten_equal_rank_sccs": (0, ["shorten", "rank2_rational.json",
                                    "--word", "pqpqqpqppqqqpqpqpqqps"]),
    "shorten_group": (0, ["shorten", "dihedral_rational.json",
                          "--word", "aabbbababaaababbbaabab"]),
    "shorten_infinite": (0, ["shorten", "involutions_rational.json", "--word", "rsrs"]),
    "wa_finite": (0, ["wa-finite", "automaton_rational.json"]),
    "vass_fmp_finite": (0, ["vass-fmp", "vass_finite.json"]),
    "vass_fmp_infinite": (0, ["vass-fmp", "vass_shear.json"]),
    "vass_reach": (0, ["vass-reach", "vass_finite.json",
                       "--from", "p:0,0", "--to", "p:2,3", "--budget", "200"]),
    "vass_reach_shear": (0, ["vass-reach", "vass_shear.json",
                             "--from", "q:0,0", "--to", "q:3,2", "--budget", "500"]),
    "vass_reach_budget": (0, ["vass-reach", "vass_shear.json",
                              "--from", "q:0,0", "--to", "q:-4,9", "--budget", "2000"]),
}


def _argv(case: str) -> list[str]:
    argv = CASES[case][1]
    return [argv[0], str(GOLDEN / argv[1]), *argv[2:]]


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, capsys):
    assert main(_argv(case)) == CASES[case][0]
    expected = (GOLDEN / "expected" / f"{case}.json").read_text()
    assert capsys.readouterr().out == expected


# every case in one process: [sys.flags.optimize, {case: [exit code, stdout]}] as JSON
_RUN_ALL = """
import contextlib, io, json, sys
from semiforge.cli import main
results = {}
for case, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results[case] = [code, out.getvalue()]
print(json.dumps([sys.flags.optimize, results]))
"""


def test_outputs_do_not_depend_on_asserts(tmp_path):
    src = str(Path(semiforge.__file__).parent.parent)
    dot = tmp_path / "image_graph.dot"
    argvs = {case: _argv(case) for case in CASES}
    argvs["dot"] = [*_argv("image_graph"), "--dot", str(dot)]
    expected = {case: [code, (GOLDEN / "expected" / f"{case}.json").read_text()]
                for case, (code, _) in CASES.items()}
    expected["dot"] = expected["image_graph"]
    for seed, flags in (("0", []), ("12345", ["-O"])):
        dot.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, *flags, "-c", _RUN_ALL, json.dumps(argvs)],
                             env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [len(flags), expected], f"PYTHONHASHSEED={seed}"
        assert dot.read_bytes() == (GOLDEN / "expected" / "image_graph.dot").read_bytes()


def test_dot_file_is_byte_identical(tmp_path, capsys):
    # the --dot file is the one image-graph output the cases above do not see
    dot = tmp_path / "image_graph.dot"
    assert main(["image-graph", str(GOLDEN / "rank2_rational.json"), "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "expected" / "image_graph.json").read_text()
    assert dot.read_bytes() == (GOLDEN / "expected" / "image_graph.dot").read_bytes()


def test_outputs_are_made_on_numerators(monkeypatch, tmp_path, capsys):
    # Mat.data builds a Fraction per entry and a scalar product rescales a
    # whole matrix: no CLI path, the --dot file included, needs either
    dot = tmp_path / "image_graph.dot"
    monkeypatch.setattr(Mat, "data", property(lambda self: pytest.fail("Mat.data was read")))
    monkeypatch.setattr(Mat, "__rmul__", lambda self, s: pytest.fail("a scalar product was taken"))
    outputs = {}
    for case in sorted(CASES):
        outputs[case] = [main(_argv(case)), capsys.readouterr().out]
    outputs["dot"] = [main([*_argv("image_graph"), "--dot", str(dot)]), capsys.readouterr().out]
    monkeypatch.undo()
    expected = {case: [code, (GOLDEN / "expected" / f"{case}.json").read_text()]
                for case, (code, _) in CASES.items()}
    expected["dot"] = expected["image_graph"]
    assert outputs == expected
    assert dot.read_bytes() == (GOLDEN / "expected" / "image_graph.dot").read_bytes()
