"""Every demo runs and prints exactly its recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_matches_recorded_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
    assert result.stdout == expected
