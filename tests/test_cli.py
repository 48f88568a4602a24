import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semiforge
from semiforge import is_torsion, length_bound, size_bound
from semiforge.semigroup import g_upper_bound
from semiforge.cli import build_parser, main
from semiforge.serialize import generators_from_json, matrix_to_json, parse_word
from conftest import signed_perm_generators

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def rot90_file(tmp_path):
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({
        "n": 2,
        "generators": {"a": {"n": 2, "entries": [["0", "-1"], ["1", "0"]]}},
    }))
    return str(path)


@pytest.fixture
def shear_file(tmp_path):
    path = tmp_path / "shear.json"
    path.write_text(json.dumps({
        "n": 2,
        "generators": {"a": {"n": 2, "entries": [["1", "1"], ["0", "1"]]}},
    }))
    return str(path)


def gens_file(tmp_path, mats) -> str:
    """A generators file for letter -> integer rows."""
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({
        "n": len(next(iter(mats.values()))),
        "generators": {a: {"entries": [[str(x) for x in row] for row in rows]}
                       for a, rows in mats.items()}}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestFiniteness:
    def test_finite(self, capsys, rot90_file):
        code, out = run(capsys, "finiteness", rot90_file)
        assert code == 0
        assert out == {"status": "finite", "count": 4}

    def test_witnesses_flag(self, capsys, rot90_file):
        code, out = run(capsys, "finiteness", rot90_file, "--witnesses")
        assert code == 0
        assert len(out["elements"]) == 4
        words = {e["word"] for e in out["elements"]}
        assert words == {"a", "aa", "aaa", "aaaa"}

    def test_infinite(self, capsys, shear_file):
        code, out = run(capsys, "finiteness", shear_file)
        assert code == 0
        assert out == {"status": "infinite", "witness": "a"}

    def test_cap_exit_code(self, capsys, rot90_file):
        code, out = run(capsys, "finiteness", rot90_file, "--cap", "2")
        assert code == 2
        assert out["status"] == "exceeded_cap"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["finiteness", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "parse error" in err

    def test_missing_file(self, capsys):
        assert main(["finiteness", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("raw, message", [
        (b'{"n": 1}\xff', "can't decode byte 0xff"),
        (b'{"n": ' + b"1" * 4301 + b"}", "Exceeds the limit (4300 digits)"),
    ])
    def test_undecodable_file_is_exit_1(self, capsys, tmp_path, raw, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main(["finiteness", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {bad}: ")
        assert message in captured.err


class TestClosure:
    def test_lists_elements(self, capsys, rot90_file):
        code, out = run(capsys, "closure", rot90_file)
        assert code == 0
        assert out["count"] == 4 and out["identity_expressible"]
        assert all(e["matrix"]["n"] == 2 for e in out["elements"])

    def test_infinite_is_a_verdict(self, capsys, shear_file):
        # the closure stops at a non-torsion element, as finiteness does
        assert run(capsys, "closure", shear_file) == (0, {"status": "infinite", "witness": "a"})


class TestShorten:
    def test_positional_input(self, capsys, rot90_file):
        code, out = run(capsys, "shorten", rot90_file, "--word", "aaaaaaaaa")
        assert code == 0
        assert out == {"input_length": 9, "output_word": "a",
                       "output_length": 1, "bound": "226492416",
                       "verified": True}

    def test_generators_flag(self, rot90_file):
        # the generators file is positional only; the old flag is unknown
        with pytest.raises(SystemExit) as exc:
            main(["shorten", "--generators", rot90_file, "--word", "a"])
        assert exc.value.code == 1

    def test_both_or_neither_is_an_error(self, rot90_file):
        for argv in (["shorten", rot90_file, "--generators", rot90_file,
                      "--word", "a"],
                     ["shorten", "--word", "a"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1

    def test_infinite_reported(self, capsys, shear_file):
        code, out = run(capsys, "shorten", shear_file, "--word", "aa")
        assert code == 0
        assert out["status"] == "infinite"

    def test_assume_finite_witness_is_in_the_input_letters(self, capsys, tmp_path):
        # the infinitude shows in a group closure over the shortener's cycle
        # matrices; the witness is spelled in the file's letters
        path = gens_file(tmp_path, {"a": [[2, 0], [0, 0]], "b": [[1, 0], [0, 0]]})
        code, out = run(capsys, "shorten", path, "--word", "abab", "--assume-finite")
        assert code == 0 and out["status"] == "infinite"
        table = generators_from_json(json.loads(Path(path).read_text()))
        assert not is_torsion(table.evaluate(parse_word(out["witness"], table.alphabet)))


class TestWordText:
    """Printed words read back through parse_word, also when one letter's
    name is the concatenation of others."""

    MATS = {"a": [[-1, 0], [0, 1]], "b": [[1, 0], [0, -1]], "ab": [[0, 1], [1, 0]]}

    def test_shorten_output_reads_back(self, capsys, tmp_path):
        path = gens_file(tmp_path, self.MATS)
        table = generators_from_json(json.loads(Path(path).read_text()))
        code, out = run(capsys, "shorten", path, "--word", "a,b,a,b,a,b")
        assert code == 0 and out["output_word"] == "a,b"
        word = parse_word(out["output_word"], table.alphabet)
        assert table.evaluate(word) == table.evaluate(("a", "b") * 3)

    def test_closure_words_read_back(self, capsys, tmp_path):
        path = gens_file(tmp_path, self.MATS)
        table = generators_from_json(json.loads(Path(path).read_text()))
        code, out = run(capsys, "closure", path)
        assert code == 0
        words = [e["word"] for e in out["elements"]]
        assert len(set(words)) == len(words)
        for e in out["elements"]:
            value = table.evaluate(parse_word(e["word"], table.alphabet))
            assert matrix_to_json(value) == e["matrix"]


class TestBound:
    def test_values(self, capsys):
        code, out = run(capsys, "bound", "--n", "1")
        assert code == 0
        assert out == {"n": 1, "g_upper": "2", "length_bound": "128"}

    def test_size_bound(self, capsys):
        code, out = run(capsys, "bound", "--n", "1", "--m", "2")
        assert code == 0
        assert out["size_bound"] == str(2 ** 129 - 2)

    def test_n2_is_exact_big_integer(self, capsys):
        code, out = run(capsys, "bound", "--n", "2")
        assert out["length_bound"] == "226492416"


class TestIntegerize:
    def test_rotation(self, capsys, rot90_file):
        code, out = run(capsys, "integerize", rot90_file)
        assert code == 0
        assert out["status"] == "finite" and out["order"] == 4
        assert out["C"]["entries"] == [["1", "0"], ["0", "1"]]

    def test_infinite_group(self, capsys, shear_file):
        code, out = run(capsys, "integerize", shear_file)
        assert code == 0
        assert out["status"] == "infinite"

    @pytest.fixture
    def hyperoctahedral5(self, tmp_path):
        """An n-cycle, a sign change and a transposition at n = 5: the
        signed permutation group of order 3840."""
        return gens_file(tmp_path, {a: m.int_rows() for a, m
                                    in zip("cst", signed_perm_generators(5))})

    def test_cap_is_exit_2(self, capsys, hyperoctahedral5):
        code, out = run(capsys, "integerize", hyperoctahedral5, "--cap", "100")
        assert code == 2
        assert out == {"status": "exceeded_cap", "cap": 100}

    def test_cap_from_the_environment(self, capsys, monkeypatch, hyperoctahedral5):
        monkeypatch.setenv("SEMIFORGE_CAP", "3839")
        code, out = run(capsys, "integerize", hyperoctahedral5)
        assert code == 2
        assert out == {"status": "exceeded_cap", "cap": 3839}
        code, out = run(capsys, "integerize", hyperoctahedral5, "--cap", "3840")
        assert code == 0 and out["order"] == 3840


class TestImageGraph:
    def test_json_and_dot(self, capsys, rot90_file, tmp_path):
        dot = tmp_path / "g.dot"
        code, out = run(capsys, "image-graph", rot90_file, "--dot", str(dot))
        assert code == 0
        assert out["rank"] == 2 and out["num_sccs"] == 1
        assert dot.read_text().startswith("digraph image_graph {")


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259); with LC_ALL=C and UTF-8 mode off, Python's
    # default file encoding is ASCII
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"n": 1, "generators": {"é": {"entries": [["2"]]}}},
                               ensure_ascii=False), encoding="utf-8")
    dot = tmp_path / "g.dot"
    env = dict(os.environ, PYTHONPATH=str(Path(semiforge.__file__).parent.parent),
               LC_ALL="C", PYTHONUTF8="0")
    for argv, letter in ((["finiteness", str(path)], lambda out: out["witness"]),
                         (["image-graph", str(path), "--dot", str(dot)],
                          lambda out: out["edges"][0]["letter"])):
        run = subprocess.run([sys.executable, "-m", "semiforge.cli", *argv],
                             env=env, capture_output=True)
        assert run.returncode == 0, run.stderr
        assert letter(json.loads(run.stdout)) == "é"
    assert "é" in dot.read_bytes().decode("utf-8")


class TestWaFinite:
    def test_verdicts(self, capsys, tmp_path):
        path = tmp_path / "wa.json"
        path.write_text(json.dumps({
            "n": 1, "alphabet": ["a"],
            "transitions": {"a": {"n": 1, "entries": [["2"]]}},
            "alpha": ["1"], "eta": ["1"],
        }))
        code, out = run(capsys, "wa-finite", str(path))
        assert code == 0 and out["status"] == "infinite"


class TestVass:
    @pytest.fixture
    def counter_file(self, tmp_path):
        path = tmp_path / "vass.json"
        path.write_text(json.dumps({
            "d": 1, "states": ["q"],
            "transitions": [{"from": "q", "A": [[1]], "b": [1], "to": "q"}],
        }))
        return str(path)

    def test_fmp(self, capsys, counter_file):
        code, out = run(capsys, "vass-fmp", counter_file)
        assert code == 0 and out["status"] == "finite"

    def test_reach(self, capsys, counter_file):
        code, out = run(capsys, "vass-reach", counter_file,
                        "--from", "q:0", "--to", "q:3", "--budget", "10")
        assert code == 0
        assert out == {"status": "reached", "path": [0, 0, 0], "length": 3}

    def test_reach_bad_config(self, capsys, counter_file):
        assert main(["vass-reach", counter_file, "--from", "q:0,1",
                     "--to", "q:3", "--budget", "10"]) == 1
        assert main(["vass-reach", counter_file, "--from", "r:0",
                     "--to", "q:3", "--budget", "10"]) == 1

    def test_reach_config_past_the_digit_limit(self, capsys, counter_file):
        assert main(["vass-reach", counter_file, "--from", "q:" + "1" * 4301,
                     "--to", "q:3", "--budget", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad configuration")
        assert "Exceeds the limit (4300 digits)" in captured.err

    @pytest.mark.parametrize("config", ["q:1,,2", "q:1_0,2", "q:1,2,", "q: 1,2", "q:+1,2",
                                        "q:1,0x2", "q:1,\u0663", "q:", ":1,2"])
    def test_entries_must_be_plain_integers(self, capsys, tmp_path, config):
        # d = 2: an empty entry dropped, or int()'s underscores, signs,
        # spaces and other digits read, would leave a well-formed vector
        path = tmp_path / "vass2.json"
        path.write_text(json.dumps({
            "d": 2, "states": ["q"],
            "transitions": [{"from": "q", "A": [[1, 0], [0, 1]], "b": [1, -1], "to": "q"}],
        }))
        assert main(["vass-reach", str(path), "--from", config, "--to", "q:3,-3",
                     "--budget", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        code, out = run(capsys, "vass-reach", str(path), "--from", "q:-1,1", "--to", "q:1,-1",
                        "--budget", "10")
        assert code == 0 and out["path"] == [0, 0]

    def test_empty_vector_at_dimension_zero(self, capsys, tmp_path):
        path = tmp_path / "vass0.json"
        path.write_text(json.dumps({
            "d": 0, "states": ["p", "q"],
            "transitions": [{"from": "p", "A": [], "b": [], "to": "q"}],
        }))
        code, out = run(capsys, "vass-reach", str(path), "--from", "p:", "--to", "q:",
                        "--budget", "10")
        assert code == 0 and out == {"status": "reached", "path": [0], "length": 1}


class TestOutputOption:
    def test_writes_file(self, capsys, rot90_file, tmp_path):
        target = tmp_path / "out.json"
        code = main(["bound", "--n", "1", "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["length_bound"] == "128"

    def test_unwritable_output_is_exit_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        assert main(["bound", "--n", "2", "--output", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err
        assert not target.exists()

    def test_unwritable_dot_is_exit_1(self, capsys, rot90_file, tmp_path):
        target = tmp_path / "missing" / "g.dot"
        assert main(["image-graph", str(rot90_file), "--dot", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")


def test_deterministic_output(capsys, rot90_file):
    _, first = run(capsys, "closure", rot90_file)
    _, second = run(capsys, "closure", rot90_file)
    assert first == second


class TestDocumentedExitCodes:
    def test_shorten_cap_exceeded_is_exit_2(self, capsys, rot90_file):
        code, out = run(capsys, "shorten", rot90_file, "--word", "aa", "--cap", "3")
        assert code == 2
        assert out == {"status": "exceeded_cap", "cap": 3}

    @pytest.mark.parametrize("argv", [["bound", "--n", "0"],
                                      ["bound", "--n", "1", "--m", "0"]])
    def test_bound_out_of_range_is_exit_1(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "must be at least 1" in captured.err

    @pytest.mark.parametrize("command", ["finiteness", "closure", "shorten", "integerize",
                                         "wa-finite", "vass-fmp"])
    def test_cap_zero_is_exit_1(self, capsys, rot90_file, command):
        extra = ["--word", "a"] if command == "shorten" else []
        assert main([command, rot90_file, "--cap", "0", *extra]) == 1
        assert "--cap must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["finiteness", "wa-finite", "vass-fmp"])
    def test_cap_is_checked_before_the_input_is_read(self, capsys, tmp_path, command):
        missing = str(tmp_path / "missing.json")
        assert main([command, missing, "--cap", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --cap must be at least 1, got 0\n"

    def test_negative_budget_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "vass.json"
        path.write_text(json.dumps({
            "d": 1, "states": ["q"],
            "transitions": [{"from": "q", "A": [[1]], "b": [1], "to": "q"}],
        }))
        assert main(["vass-reach", str(path), "--from", "q:0", "--to", "q:3",
                     "--budget", "-1"]) == 1
        assert "--budget must be at least 0" in capsys.readouterr().err

    def test_mixed_rank_image_graph_is_exit_1(self, capsys):
        assert main(["image-graph", str(GOLDEN / "mixed_rank3_rational.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_singular_integerize_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({"n": 1, "generators": {"a": {"entries": [["0"]]}}}))
        assert main(["integerize", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: generator 'a' is singular\n"

    @pytest.mark.parametrize("command, name", [("wa-finite", "automaton_rational.json"),
                                               ("vass-fmp", "vass_finite.json")])
    def test_exceeded_cap_reports_the_cap(self, capsys, command, name):
        code, out = run(capsys, command, str(GOLDEN / name), "--cap", "1")
        assert code == 2
        assert out == {"status": "exceeded_cap", "cap": 1}


class TestUsageErrors:
    """argparse's usage errors exit 1 like every other usage error; 2 is
    kept for an exceeded cap."""

    @pytest.mark.parametrize("argv", [
        ["vass-reach", "v.json", "--from", "-q:0", "--to", "q:0", "--budget", "5"],
        [],
        ["bound", "--n", "1", "--no-such-flag"],
        # only the six closure subcommands take --cap
        ["image-graph", "g.json", "--cap", "5"],
        ["vass-reach", "v.json", "--from", "q:0", "--to", "q:0", "--budget", "5", "--cap", "5"],
        ["bound", "--n", "1", "--cap", "5"],
    ])
    def test_usage_error_is_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: semiforge")
        assert "\nerror: " in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bound", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_reused_parser_keeps_no_state(self, capsys):
        assert build_parser() is build_parser()
        code, first = run(capsys, "bound", "--n", "2", "--m", "1")
        assert code == 0 and first["m"] == 1
        code, second = run(capsys, "bound", "--n", "1")
        assert code == 0 and second["n"] == 1 and "m" not in second


class TestSizeBoundText:
    @pytest.mark.parametrize("n", [2, 3])
    def test_past_the_digit_limit_is_the_closed_form(self, capsys, n):
        start = time.monotonic()
        code, out = run(capsys, "bound", "--n", str(n), "--m", "2")
        assert time.monotonic() - start < 1.0
        assert code == 0
        L = out["length_bound"]
        assert out["size_bound"] == f"(2^({L}+1) - 2)/(2 - 1)"

    def test_exact_up_to_4300_digits(self, capsys):
        # the largest m whose size bound at n = 1 (L = 128) has 4300 digits
        m = 3924189758484535861666412940601374
        _, out = run(capsys, "bound", "--n", "1", "--m", str(m))
        assert len(out["size_bound"]) == 4300
        assert out["size_bound"] == str(size_bound(1, m))
        _, out = run(capsys, "bound", "--n", "1", "--m", str(m + 1))
        assert out["size_bound"] == f"({m + 1}^(128+1) - {m + 1})/({m + 1} - 1)"


class TestHostileInput:
    @pytest.mark.parametrize("command, extra", [
        ("finiteness", []), ("integerize", []), ("wa-finite", []), ("vass-fmp", []),
        ("vass-reach", ["--from", "q:0", "--to", "q:0", "--budget", "1"])])
    def test_deep_json_is_exit_1(self, capsys, tmp_path, command, extra):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main([command, str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: nested too deeply\n"

    # the nesting limit counts the outer object too: 'n' may nest 999 deep;
    # the answer is the same from the top and from 50 frames further down
    @pytest.mark.parametrize("depth, error", [(999, "'n' must be a JSON integer"),
                                              (1000, "nested too deeply")],
                             ids=["at-limit", "past-limit"])
    def test_nesting_verdict_ignores_the_callers_stack(self, capsys, tmp_path, depth, error):
        path = tmp_path / "deep.json"
        path.write_text(f'{{"n": {"[" * depth + "]" * depth}, "generators": {{}}}}')

        def deeper(frames):
            return deeper(frames - 1) if frames else main(["finiteness", str(path)])

        top = main(["finiteness", str(path)]), capsys.readouterr()
        assert (deeper(50), capsys.readouterr()) == top
        code, captured = top
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and error in captured.err
        assert len(captured.err) < 200

    def test_brackets_inside_strings_do_not_nest(self, capsys, tmp_path):
        # an escaped quote first: the brackets after it are still in the name
        name = '\\"' + "[{" * 1000
        path = tmp_path / "brackets.json"
        path.write_text(json.dumps({"n": 1, "generators": {name: {"entries": [["-1"]]}}}))
        assert main(["finiteness", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"status": "finite", "count": 2}

    # a 200000-entry list and a list nested 980 deep where 'n' belongs, from
    # a fresh process, as from the shell
    @pytest.mark.parametrize("n", [json.dumps(list(range(200000))), "[" * 980 + "]" * 980],
                             ids=["long", "deep"])
    def test_parse_error_quotes_a_short_value(self, tmp_path, n):
        path = tmp_path / "big.json"
        path.write_text(f'{{"n": {n}, "generators": {{}}}}')
        env = dict(os.environ, PYTHONPATH=str(Path(semiforge.__file__).parent.parent))
        run = subprocess.run([sys.executable, "-m", "semiforge.cli", "finiteness", str(path)],
                             env=env, capture_output=True)
        assert run.returncode == 1 and run.stdout == b""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(b"error: 'n' must be a JSON integer")
        assert len(lines[0]) < 200 and b"Traceback" not in run.stderr

    # a name of 100000 characters in each place an error line names it
    @pytest.mark.parametrize("command, doc", [
        ("finiteness", {"n": 1, "generators": {"x" * 100000: {"entries": [["?"]]}}}),
        ("integerize", {"n": 1, "generators": {"x" * 100000: {"entries": [["0"]]}}}),
        ("image-graph", {"n": 2, "generators": {
            "x" * 100000: {"entries": [["1", "0"], ["0", "0"]]},
            "b": {"entries": [["1", "0"], ["0", "1"]]}}}),
        ("wa-finite", {"n": 1, "alphabet": ["x" * 100000], "transitions": {},
                       "alpha": ["1"], "eta": ["1"]}),
        ("vass-fmp", {"d": 0, "states": ["q"],
                      "transitions": [{"from": "x" * 100000, "A": [], "b": [], "to": "q"}]}),
    ])
    def test_error_quotes_a_short_name(self, capsys, tmp_path, command, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and len(captured.err) < 200

    # spaces, a newline, a fullwidth and an Arabic-Indic digit one
    @pytest.mark.parametrize("entry", [" 1", "1 ", "1\n", "\uff11", "\u0661", "1/\uff12"])
    def test_entries_are_ascii_digits(self, capsys, tmp_path, entry):
        path = gens_file(tmp_path, {"a": [[entry]]})
        assert main(["finiteness", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"malformed rational {entry!r}" in captured.err


class TestVassEntriesMustBeIntegers:
    @pytest.mark.parametrize("offset", [[1.7], ["1/2"], [True]])
    def test_non_integer_offset_is_a_parse_error(self, capsys, tmp_path, offset):
        path = tmp_path / "vass.json"
        path.write_text(json.dumps({
            "d": 1, "states": ["q"],
            "transitions": [{"from": "q", "A": [[1]], "b": offset, "to": "q"}],
        }))
        assert main(["vass-reach", str(path), "--from", "q:0", "--to", "q:3",
                     "--budget", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "must be JSON integers" in captured.err

    def test_float_matrix_entry_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "vass.json"
        path.write_text(json.dumps({
            "d": 1, "states": ["q"],
            "transitions": [{"from": "q", "A": [[1.0]], "b": [1], "to": "q"}],
        }))
        assert main(["vass-fmp", str(path)]) == 1


class TestLengthBoundText:
    def test_exact_while_at_most_4300_digits(self, capsys):
        code, out = run(capsys, "bound", "--n", "34")
        assert code == 0
        assert out["length_bound"] == str(length_bound(34))

    def test_n35_is_the_closed_form(self, capsys):
        code, out = run(capsys, "bound", "--n", "35", "--m", "1")
        assert code == 0
        assert out == {"n": 35, "g_upper": str(g_upper_bound(35)),
                       "length_bound": "2^(2555)*(70!)^(36)", "m": 1,
                       "size_bound": "2^(2555)*(70!)^(36)"}

    def test_huge_n_is_never_built(self, capsys):
        start = time.monotonic()
        code, out = run(capsys, "bound", "--n", "100000", "--m", "2")
        assert time.monotonic() - start < 1.0
        assert code == 0
        L = "2^(20000300000)*(200000!)^(100001)"
        assert out == {"n": 100000, "g_upper": "(200000)!", "length_bound": L, "m": 2,
                       "size_bound": f"(2^({L}+1) - 2)/(2 - 1)"}

    def test_shorten_reports_the_closed_form(self, capsys, tmp_path):
        path = tmp_path / "id35.json"
        path.write_text(json.dumps({"n": 35, "generators": {"a": {"entries": [
            [int(i == j) for j in range(35)] for i in range(35)]}}}))
        code, out = run(capsys, "shorten", str(path), "--word", "aa")
        assert code == 0
        assert out["bound"] == "2^(2555)*(70!)^(36)" and out["verified"]


class TestCapEnvironment:
    @pytest.mark.parametrize("value, command, message", [
        ("abc", "finiteness", "SEMIFORGE_CAP must be an integer, got 'abc'"),
        ("0", "closure", "SEMIFORGE_CAP must be at least 1, got 0"),
        ("-3", "integerize", "SEMIFORGE_CAP must be at least 1, got -3"),
        ("1.5", "wa-finite", "SEMIFORGE_CAP must be an integer, got '1.5'"),
        ("", "vass-fmp", "SEMIFORGE_CAP must be an integer, got ''"),
    ])
    def test_invalid_cap_is_exit_1(self, capsys, monkeypatch, rot90_file, value, command,
                                   message):
        monkeypatch.setenv("SEMIFORGE_CAP", value)
        assert main([command, rot90_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_invalid_cap_in_shorten_is_exit_1(self, capsys, monkeypatch, rot90_file):
        monkeypatch.setenv("SEMIFORGE_CAP", "0")
        assert main(["shorten", rot90_file, "--word", "a"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SEMIFORGE_CAP must be at least 1, got 0\n"

    def test_valid_cap_is_reported(self, capsys, monkeypatch, rot90_file):
        monkeypatch.setenv("SEMIFORGE_CAP", "2")
        code, out = run(capsys, "finiteness", rot90_file)
        assert code == 2
        assert out == {"status": "exceeded_cap", "cap": 2}


_GENERATORS = {"n": 1, "generators": {"a": {"entries": [["1"]]}}}
_VASS = {"d": 1, "states": ["q"],
         "transitions": [{"from": "q", "A": [[1]], "b": [1], "to": "q"}]}
_AUTOMATON = {"n": 1, "alphabet": ["a"], "transitions": {"a": {"entries": [["1"]]}},
              "alpha": ["1"], "eta": ["1"]}


class TestStrictShapes:
    @pytest.mark.parametrize("command, doc, message", [
        ("finiteness", {**_GENERATORS, "generators": {"a": {"entries": 5}}},
         "'entries' must be a JSON list, got 5"),
        ("finiteness", {**_GENERATORS, "generators": {"a": {"entries": [5]}}},
         "a row must be a JSON list, got 5"),
        ("finiteness", {**_GENERATORS, "n": "1"}, "'n' must be a JSON integer, got '1'"),
        ("finiteness", {**_GENERATORS, "n": True}, "'n' must be a JSON integer, got True"),
        ("finiteness", {**_GENERATORS, "generators": {"a": {"entries": [["1" * 4301]]}}},
         "malformed rational"),
        ("shorten", {**_GENERATORS, "n": 0, "generators": {"a": {"entries": []}}},
         "'n' must be at least 1, got 0"),
        ("vass-fmp", {**_VASS, "transitions": 5}, "'transitions' must be a JSON list, got 5"),
        ("vass-fmp", {**_VASS, "transitions": [dict(_VASS["transitions"][0], A=[1])]},
         "transition 0: matrix is not 1x1"),
        ("vass-fmp", {**_VASS, "d": "1"}, "'d' must be a JSON integer, got '1'"),
        ("wa-finite", {**_AUTOMATON, "alpha": 5}, "'alpha' must be a JSON list, got 5"),
        # "" would print as the empty word, and "," splits word text
        ("finiteness", {**_GENERATORS, "generators": {"": {"entries": [["1"]]}}},
         "generator name '' is empty or contains ','"),
        ("shorten", {**_GENERATORS, "generators": {"a,b": {"entries": [["1"]]}}},
         "generator name 'a,b' is empty or contains ','"),
        # a wa-finite witness over ["a,b", ""] would print as "a,b"
        ("wa-finite", {**_AUTOMATON, "alphabet": ["a,b"],
                       "transitions": {"a,b": {"entries": [["1"]]}}},
         "letter 'a,b' is empty or contains ','"),
        ("wa-finite", {**_AUTOMATON, "alphabet": [""], "transitions": {"": {"entries": [["1"]]}}},
         "letter '' is empty or contains ','"),
        ("vass-fmp", {**_VASS, "d": -1, "transitions": []}, "'d' must be at least 0, got -1"),
        ("wa-finite", {**_AUTOMATON, "transitions": {"a": {"entries": [[1, 0], [0, 1]]}}},
         "transition 'a' is not 1x1"),
        ("wa-finite", {**_AUTOMATON, "eta": ["1", "1"]}, "alpha and eta must have n entries"),
        ("wa-finite", {**_AUTOMATON, "alphabet": ["a", "a"]}, "alphabet letters must be distinct"),
        ("vass-fmp", {**_VASS, "transitions": [dict(_VASS["transitions"][0], b=[1, 2])]},
         "transition 0: offset is not length 1"),
        # a transition for a letter outside the alphabet, even a malformed one
        ("wa-finite", {**_AUTOMATON, "transitions": {"a": {"entries": [["1"]]},
                                                     "b": {"entries": [["x"]]}}},
         "transition 'b' is for a letter not in the alphabet"),
    ])
    def test_malformed_shape_is_a_parse_error(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        extra = ["--word", ""] if command == "shorten" else []
        assert main([command, str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert captured.err.startswith("error: ")
