"""The exit code of scripts/sweep_shortener.py is its contract: 0 on a
clean sweep, 1 when an output is wrong, longer than its input or past the
group-order bound."""

import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

from semiforge import Shortener

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_shortener.py"
ARGV = [str(SCRIPT), "--max-word-length", "3", "--max-closure", "12"]


def test_main_exits_0_on_a_clean_sweep(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    monkeypatch.setattr(sys, "argv", ARGV)
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert "failures: 0" in lines
    assert any(line.startswith("compression: ") for line in lines)


def test_main_exits_1_on_a_longer_output(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    monkeypatch.setattr(sys, "argv", ARGV)

    def longer(table, **options):
        # one letter more on each output the script sees; the Shortener's
        # own recursion stays exact, so its self-checks hold
        real = Shortener(table, **options)
        return SimpleNamespace(shorten=lambda word: real.shorten(word) + word[:1])

    monkeypatch.setitem(main.__globals__, "Shortener", longer)
    assert main() == 1
    assert "failures: 0" not in capsys.readouterr().out.splitlines()
