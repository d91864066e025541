"""The README's python examples and CLI examples run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from nc2ent.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2  # the library quick start and mode splitting
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    cli = text[text.index("\n## CLI\n"):]
    cli = cli[:cli.index("\n## ", 1)]
    # each JSON example follows the name the commands read it by: "... as `name.json`:"
    files = re.findall(r"`(\w+\.json)`:\n\n```json\n(.*?)^```", cli, re.M | re.S)
    assert [name for name, _ in files] == ["states.json", "symmetric.json", "config.json"]
    commands = [line for block in re.findall(r"^```sh\n(.*?)^```", cli, re.M | re.S)
                for line in block.splitlines() if line.startswith("nc2ent ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for name, body in files:
        (tmp_path / name).write_text(body, encoding="utf-8")
    for line in commands:
        result = CliRunner().invoke(main, shlex.split(line)[1:])
        assert result.exit_code == 0, f"{line}\n{result.output}"
