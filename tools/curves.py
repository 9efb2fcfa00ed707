"""Scaling curves of the Ext grid: time against precision, variables, rank.

    python3 tools/curves.py                      # the standard curve points
    python3 tools/curves.py --vars 2 --rank 1 --N 8 10 12
    python3 tools/curves.py --vars 2 --N 20 --timeout 600

Each point asks ``is_L_complete`` of the free module of the given rank over
Q[[x_1..x_n]] at precision N (the ideal of all the variables, certified in
Q[x_1..x_n]), in a fresh Python process, and prints one line: the case, the
verdict, and the seconds the question took in that process.  A point that
runs past ``--timeout`` seconds is stopped and reported as such.  Run from
the root of a lodua checkout; the engine is imported from ``src/``.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = "xyzwuv"

# (number of variables, rank, precision N)
STANDARD = ([(2, 1, n) for n in (2, 4, 6, 8, 10, 12)]
            + [(2, 2, 4), (2, 3, 4), (2, 2, 6), (3, 1, 2), (3, 1, 3)])


def point(nvars, rank, n):
    """Verdict and seconds of one grid question, in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lodua import FPModule, FPObj, IdealData, is_L_complete, make_ring
    names = list(NAMES[:nvars])
    base = make_ring({"base": "Q", "vars": names})
    ring = make_ring({"base": "Q", "vars": names,
                      "completion": {"ideal": names, "precision": n}})
    t0 = time.perf_counter()
    cert = is_L_complete(FPObj(FPModule.free(ring, rank)),
                         IdealData(base, names), precision=n)
    return cert.verdict, time.perf_counter() - t0


def label(nvars, rank, n):
    return f"Q[[{','.join(NAMES[:nvars])}]] rank {rank} N {n}"


def run_point(nvars, rank, n, timeout):
    """One line for one point, measured in a child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--point",
           str(nvars), str(rank), str(n)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"{label(nvars, rank, n)}: stopped after {timeout} s"
    if proc.returncode != 0:
        err = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return f"{label(nvars, rank, n)}: failed ({err})"
    verdict, seconds = proc.stdout.split()
    return f"{label(nvars, rank, n)}: {verdict} in {float(seconds):.2f} s"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--vars", type=int, default=None, choices=range(1, 7))
    ap.add_argument("--rank", type=int, default=1)
    ap.add_argument("--N", type=int, nargs="+", default=None)
    ap.add_argument("--timeout", type=float, default=600.0,
                    help="seconds before a point is stopped")
    ap.add_argument("--point", type=int, nargs=3, default=None,
                    help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if ns.point:
        verdict, seconds = point(*ns.point)
        print(verdict, seconds)
        return 0
    if ns.vars is None and ns.N is None:
        points = STANDARD
    else:
        points = [(ns.vars or 2, ns.rank, n) for n in (ns.N or [2])]
    for nvars, rank, n in points:
        print(run_point(nvars, rank, n, ns.timeout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
