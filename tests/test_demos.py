"""Every demo script runs to completion without a traceback and prints the
bytes checked in as ``demos/expected/<demo>.out``."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_all_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    name = os.path.splitext(os.path.basename(path))[0]
    with open(os.path.join(ROOT, "demos", "expected", f"{name}.out"),
              "rb") as fh:
        assert proc.stdout == fh.read()
