"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def first_python_block(text: str) -> str:
    match = re.search(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert match is not None, "README.md has no ```python block"
    return match.group(1)


def test_quick_tour_runs_and_picks_50_distinct_ids():
    namespace: dict = {}
    exec(compile(first_python_block(README.read_text(encoding="utf-8")), str(README), "exec"),
         namespace)
    chosen = namespace["chosen"]
    assert len(chosen) == 50 and len(set(chosen)) == 50
