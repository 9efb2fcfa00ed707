"""The scaling-curve script runs end to end at a small precision."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_curves_script_prints_one_line_per_point():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "curves.py"),
         "--vars", "2", "--rank", "2", "--N", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"Q\[\[x,y\]\] rank 2 N 2: complete in \d+\.\d\d s\n",
                        proc.stdout)
