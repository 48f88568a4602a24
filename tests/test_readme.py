"""The README's "Library quick start" runs as written and does what its
comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    assert out.getvalue() == "('a',)\n"
    verdict = namespace["verdict"]
    assert verdict.status == "finite" and len(verdict.closure) == 4
