"""Each demo script, run as its own process, prints exactly the bytes of
its golden file in tests/demo_golden/ (the demos print only exact
rationals, so the output is the same on every supported Python)."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted((ROOT / "tests" / "demo_golden").iterdir())
    assert [g.stem for g in goldens] == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_golden(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    golden = ROOT / "tests" / "demo_golden" / f"{demo.stem}.txt"
    assert proc.stdout == golden.read_bytes()
