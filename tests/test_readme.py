"""README.md stays true: each Python block prints what its comments say, and
each `$ circulant ...` transcript is what the CLI prints."""

import re
import shlex
from pathlib import Path

import pytest

from circulant.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
TRANSCRIPTS = [body for lang, body in BLOCKS if body.startswith("$ circulant ")]
ELISION = "..."


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 1 and len(TRANSCRIPTS) >= 2


@pytest.mark.parametrize("body", PYTHON_BLOCKS, ids=lambda body: body.splitlines()[0])
def test_python_block_prints_its_comments(body, capsys):
    # every print in the block ends with "# <the line it prints>"
    prints = [line for line in body.splitlines() if line.startswith("print(")]
    expected = [re.fullmatch(r"print\(.*\)\s+# (.*)", line).group(1) for line in prints]
    exec(compile(body, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("body", TRANSCRIPTS, ids=lambda body: body.splitlines()[0][2:])
def test_transcript_replays(body, capsys):
    command, *shown = body.splitlines()
    assert main(shlex.split(command)[2:]) == 0
    out = capsys.readouterr().out
    if ELISION not in shown:
        assert out == "".join(f"{line}\n" for line in shown)
        return
    # an elided transcript: the lines it shows appear in the output, in order
    lines = iter(out.splitlines())
    for line in shown:
        if line != ELISION:
            assert line in lines, line
