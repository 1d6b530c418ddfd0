"""Every demo script and the README's Python examples run to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script):
    proc = _run([str(script)])
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run_in_order():
    # later blocks use names the earlier ones define, so they run as one script
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) >= 3
    proc = _run(["-c", "\n".join(blocks)])
    assert proc.returncode == 0, proc.stderr
