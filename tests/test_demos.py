"""Each demo, and the README's library example, runs to completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_library_example_accepts_the_keyword(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    lines = _run(["-c", block], tmp_path).splitlines()
    assert any(line.startswith("stage2_accept ") for line in lines), lines
