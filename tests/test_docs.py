"""The README's library example prints what its comments say, and its
command lines parse."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from sumsetfree import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    code = block.group(1)
    # "print(x)   # 5" or "# None: why": the value is the comment up to a colon
    expected = [
        line.split("#", 1)[1].split(":", 1)[0].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["None", "5", "(1, 2, 5, 10, 12)", "(73, 147, 154, 210)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_command_lines_parse():
    # parsed, not run: a renamed or dropped flag fails here first
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("sumsetfree ")]
    assert len(lines) == 8, lines
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
