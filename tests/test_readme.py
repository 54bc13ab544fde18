"""The README's library quick tour runs as written, so it cannot drift from the API."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library quick tour'"
    return match.group(1)


def test_quick_tour_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    exec(compile(quick_tour(), str(README), "exec"), {})
