"""The README's CLI block runs as it says.

Each ``kronmf ...`` line of the code block under ``## CLI`` runs in
process through ``cli.main``.  Its comment states the exit code ("exit
1: ...", else 0), and a comment that is a rendered expansion or a number
is the whole of stdout.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from kronmf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("kronmf ")]


def test_the_block_is_found():
    assert len(_cli_lines()) == 10


@pytest.mark.parametrize("line", _cli_lines(), ids=lambda line: line.partition("#")[0].strip())
def test_readme_cli_line(line):
    command, _, comment = line.partition("#")
    comment = comment.strip()
    exit_code = re.match(r"exit (\d+)", comment)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(shlex.split(command)[1:])
    assert code == (int(exit_code.group(1)) if exit_code else 0)
    if re.fullmatch(r"\[.*\]|\d+", comment):
        assert out.getvalue() == comment + "\n"
