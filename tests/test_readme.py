"""The README's library tour runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_prints_documented_values():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    single, eb, double = out.getvalue().split()
    assert float(single) == 0
    assert eb == "True"
    assert abs(float(double) - 0.425) < 1e-12
