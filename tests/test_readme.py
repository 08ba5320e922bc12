"""The README's CLI walkthrough and library snippet run as written."""

import re
import shlex
from pathlib import Path

from levsketch.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_readme_walkthrough_and_library_snippet_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    script = fenced_block("CLI walkthrough", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines() if line.startswith("levsketch ")]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    exec(compile(fenced_block("Library use", "python"), "README.md", "exec"), {})
