"""The README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2  # the library quick start and mode splitting
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
