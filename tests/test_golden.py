"""Golden corpus: fixed CLI inputs and their exact JSON output.

Each case runs one subcommand on an input under tests/golden/ and
compares stdout byte for byte with tests/golden/expected/<case>.json,
so any change in verdicts, witness words, element order or rational
formatting shows up here. The GraphViz file of `image-graph --dot` is
compared the same way with tests/golden/expected/image_graph.dot.
"""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, capsys):
    code, argv = CASES[case]
    argv = [argv[0], str(GOLDEN / argv[1]), *argv[2:]]
    assert main(argv) == code
    expected = (GOLDEN / "expected" / f"{case}.json").read_text()
    assert capsys.readouterr().out == expected


def test_dot_file_is_byte_identical(tmp_path, capsys):
    # the --dot file is the one image-graph output the cases above do not see
    dot = tmp_path / "image_graph.dot"
    assert main(["image-graph", str(GOLDEN / "rank2_rational.json"), "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "expected" / "image_graph.json").read_text()
    assert dot.read_bytes() == (GOLDEN / "expected" / "image_graph.dot").read_bytes()
