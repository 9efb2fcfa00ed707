"""Alternating parent/change pairs of benchmark runs, and the claim rule.

    python3 tools/pairs.py --parent ../parent --change . \\
        --workload poly-sweep --seed 3 --pairs 10 --out BENCH_34.json
    python3 tools/pairs.py --parent . --change . --workload poly-sweep \\
        --pairs 1 --size 4 --out smoke.json

Runs ``perfbench/run.py --trace 0`` at its default length in the two source
trees, one run each per pair: the parent first in odd pairs and the change
first in even ones, so neither side always runs on a warmer host.  Every
run is appended to the ``runs`` list of ``--out`` (the file is created when
missing, and its other keys are kept) as ``{"workload", "pair", "side",
"seed", "trace", "result"}``, ``result`` being the JSON line ``run.py``
printed, in the order the runs were made.

Then, for each end-to-end metric of ``BENCHMARK.json``, it prints one line:
the median and quartiles of each side, the pairs the change won (its value
better than the parent's in the same pair, in the metric's direction; a tie
counts for neither), and whether the gap between the medians, in the
metric's better direction, exceeds the parent's interquartile range.  A
gain counts as a claim when the change wins at least nine pairs in ten and
that gap exceeds the IQR.  The line ends with the regression verdict (see
``verdict``) read against the metric's ``bound`` in ``BENCHMARK.json``.
After it comes the median and quartiles of the per-pair change/parent
ratio (see ``ratios``): a drift of the host's speed that moves both runs
of a pair cancels there, while it widens each side's spread above.  The
claim rule and the verdict read the sides, not the ratios.
It exits 1 when a run fails or reports wrong answers, and, before any
run, when the two trees differ in which bytecode files
``src/lodua/__pycache__`` holds for the running interpreter: with bytecode
writing off, a tree without them compiles ``src/lodua`` on every run, which
moves ``setup_s`` and ``peak_rss_mb`` (compile both trees, or neither).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)


class PairsError(Exception):
    pass


def bench(tree, workload, seed, size):
    """The JSON result of one untraced ``perfbench/run.py`` run in tree."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if size is not None:
        cmd += ["--size", str(size)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise PairsError(f"{tree}: run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        failed = [line for line in lines if line.startswith("FAILED")]
        raise PairsError(f"{tree}: wrong answers: {'; '.join(failed)}")
    return result


def bytecode(tree):
    """The names of the files ``src/lodua/__pycache__`` holds in tree for
    the running interpreter's cache tag."""
    folder = os.path.join(tree, "src", "lodua", "__pycache__")
    tag = f".{sys.implementation.cache_tag}."
    if not os.path.isdir(folder):
        return set()
    return {name for name in os.listdir(folder) if tag in name}


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(par, chg, bound, lower):
    """The no-regression rule for one metric, on the runs of each side.

    ``worse`` when the change's median is worse than the parent's by more
    than bound times the parent's median; ``unresolved`` when the parent's
    interquartile range exceeds bound times its median and not every change
    run beats every parent run; ``no regression`` otherwise.
    """
    (pq1, pmed, pq3), (_, cmed, _) = quartiles(par), quartiles(chg)
    worse_by = cmed - pmed if lower else pmed - cmed
    if worse_by > bound * abs(pmed):
        return "worse"
    beats_all = max(chg) < min(par) if lower else min(chg) > max(par)
    if pq3 - pq1 > bound * abs(pmed) and not beats_all:
        return "unresolved"
    return "no regression"


def paired(runs, metrics):
    """(metric, parent values, change values) per metric, pair by pair."""
    sides = {"parent": {}, "change": {}}
    for run in runs:
        sides[run["side"]][run["pair"]] = run["result"]["metrics"]
    pairs = sorted(sides["parent"])
    for m in metrics:
        yield (m, [sides["parent"][p][m["name"]]["value"] for p in pairs],
               [sides["change"][p][m["name"]]["value"] for p in pairs])


def ratios(runs, metrics):
    """One line per metric: the median and quartiles of change/parent over
    the pairs whose parent value is not zero."""
    out = []
    for _, par, chg in paired(runs, metrics):
        rs = [c / p for p, c in zip(par, chg) if p]
        if not rs:
            out.append("  change/parent: no pair with a nonzero parent value")
            continue
        q1, med, q3 = quartiles(rs)
        out.append(f"  change/parent: median {med:.4g} [{q1:.4g}, {q3:.4g}] "
                   f"over {len(rs)} pairs")
    return out


def summary(runs, metrics):
    """One line per metric over the runs of one workload and seed."""
    out = []
    for m, par, chg in paired(runs, metrics):
        name, lower = m["name"], m["better"] == "lower"
        wins = sum(c < p if lower else c > p for p, c in zip(par, chg))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(par), quartiles(chg)
        gap = pmed - cmed if lower else cmed - pmed
        out.append(f"{name}: parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}], "
                   f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}], "
                   f"change wins {wins}/{len(par)}, median gap {gap:.4g} "
                   f"{'>' if gap > pq3 - pq1 else '<='} parent IQR "
                   f"{pq3 - pq1:.4g}; "
                   f"{verdict(par, chg, m['bound'], lower)}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="the parent source tree")
    ap.add_argument("--change", required=True, help="the changed source tree")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--size", type=int, default=None,
                    help="truncate the op list (smoke runs)")
    ap.add_argument("--out", required=True,
                    help="the JSON file whose runs list the runs extend")
    ns = ap.parse_args(argv)
    if ns.pairs < 1:
        ap.error("--pairs takes at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    record = {}
    if os.path.exists(ns.out):
        with open(ns.out) as fh:
            record = json.load(fh)
    runs = []
    trees = {"parent": os.path.abspath(ns.parent),
             "change": os.path.abspath(ns.change)}
    held = {side: bytecode(tree) for side, tree in trees.items()}
    if held["parent"] != held["change"]:
        only = sorted(held["parent"] ^ held["change"])
        print(f"pairs: the trees' src/lodua/__pycache__ differ in "
              f"{len(only)} bytecode files ({', '.join(only[:3])}"
              f"{', ...' if len(only) > 3 else ''}): compile both trees "
              f"or neither", file=sys.stderr)
        return 1
    try:
        for pair in range(1, ns.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = bench(trees[side], ns.workload, ns.seed, ns.size)
                runs.append({"workload": ns.workload, "pair": pair,
                             "side": side, "seed": ns.seed, "trace": 0,
                             "result": result})
    except PairsError as ex:
        print(f"pairs: {ex}", file=sys.stderr)
        return 1
    finally:
        record["runs"] = record.get("runs", []) + runs
        with open(ns.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"{ns.workload} seed {ns.seed}: {ns.pairs} pairs")
    for line, ratio in zip(summary(runs, metrics), ratios(runs, metrics)):
        print(line)
        print(ratio)
    return 0


if __name__ == "__main__":
    sys.exit(main())
