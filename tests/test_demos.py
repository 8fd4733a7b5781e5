"""Both demos and the README's Python block are deterministic: their
output is pinned byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(demo: str) -> list[str]:
    if demo == "readme":
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        return ["-c", text.split("```python\n", 1)[1].split("```", 1)[0]]
    return [str(ROOT / "demos" / f"{demo}.py")]


@pytest.mark.parametrize("demo", ["table1_queries", "where_frequent", "readme"])
def test_demo_output(demo):
    env = dict(os.environ)
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, *_script(demo)],
        capture_output=True,
        encoding="utf-8",
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "data" / f"{demo}.out").read_text(encoding="utf-8")
