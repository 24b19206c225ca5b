"""The README's examples run as written: every command of its "Command line"
block, and its Python quick start."""

import re
import shlex
from pathlib import Path

from dualpuf.cli import dispatch

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(text: str, language: str) -> list[str]:
    """The bodies of the ```language blocks of a Markdown text."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.S | re.M)


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_command_line_examples_run(capsys, tmp_path, monkeypatch):
    # the block builds tag.json and registry.json in the working directory
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)[1:]
        for block in fenced(section("Command line"), "sh")
        for line in block.splitlines()
        if line.startswith("dualpuf ")
    ]
    assert commands
    for argv in commands:
        code = dispatch(argv)
        assert code == 0, (argv, capsys.readouterr().err)


def test_python_quick_start_runs(capsys):
    blocks = fenced(section("Python quick start"), "python")
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # the second block uses the first one's tag and registry
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].passed
    assert namespace["report"].parity_mismatch_successes == 0
