"""The README's library tour runs as documented, and its CLI usage is the CLI's."""

import contextlib
import io
import re
from pathlib import Path

from twirlbreak import cli

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


def _readme_usage() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Command-line interface"):]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()


def _docstring_usage() -> list[str]:
    lines = cli.__doc__.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Usage")) + 1
    block = []
    for line in lines[start:]:
        if not line.strip():
            break
        block.append(line.removeprefix("    "))
    return block


def test_readme_usage_is_the_cli_docstring_usage():
    assert _readme_usage() == _docstring_usage()


def test_usage_lists_each_subcommand_with_the_flags_it_reads():
    usage = _docstring_usage()
    assert [line.split()[1] for line in usage] == list(cli._SUBCOMMANDS)
    for line in usage:
        name = line.split()[1]
        bracketed = re.findall(r"\[(--[\w-]+)", line)
        assert bracketed == ["--out", *cli._SUBCOMMANDS[name][1]], name
