"""Profile one benchmark workload's op list in one process under cProfile.

    python3 tools/profile.py --workload poly-sweep
    python3 tools/profile.py --workload completed-grid --seed 2 --top 40
    python3 tools/profile.py --workload integer-sweep --size 50 --sort tottime
    python3 tools/profile.py --workload integer-sweep --verb gm-check --sort ncalls
    python3 tools/profile.py --workload poly-sweep --by-module
    python3 tools/profile.py --workload integer-sweep --slowest 20
    python3 tools/profile.py --workload integer-sweep --band 0.4 0.6

The op list comes from ``perfbench/workloads.py`` and each op is executed as
``perfbench/worker.py`` executes it (both imported, neither changed); the
engine is imported from ``src/``.  Every op runs once, in order, under one
profiler; with ``--verb`` every op still runs, so the state earlier ops
leave behind is the benchmark's, but the profiler is on only around that
verb's ops, and ``--sort ncalls`` then gives the verb's call counts.
``--band LO HI`` likewise profiles only the ops whose latency rank, as a
quantile of the op list (0 the fastest op, 1 the slowest), lies between LO
and HI; the latencies are those of one ``perfbench/worker.py --mode timed``
process run first, unprofiled, so ``--band 0.4 0.6`` profiles the ops
around the median that ``op_p50_ms`` reads, as ``--slowest`` names the
tail.  The
script prints the profiled seconds spent in each verb (grid questions count
as ``is_L_complete``); with ``--by-module``, the profiled self time of each
source module (each ``lodua.*`` module, ``fractions``, ``builtins`` for the
functions written in C, and ``other`` for the rest) with its share; with
``--slowest N``, the N slowest profiled ops, each with its rank, index in
the op list, verb, profiled milliseconds and arguments, the op whose rank
``op_tail_ms`` reads marked, so that a tail can be named by its ops; then
the top functions of the profile.  Profiled
times run well above plain ones, and calls cost more under the profiler
than work inside them, so use the ranking to find candidates and
``perfbench/run.py`` to measure them.  Run from the root of a lodua
checkout.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# run as a script, this file's directory comes first on the path, where
# this file would shadow the standard library's ``profile``, which cProfile
# imports
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import worker  # noqa: E402  (perfbench/worker.py)
import workloads  # noqa: E402  (perfbench/workloads.py)


def profile_ops(ops, only=None, band=None):
    """Run every op, under one profiler unless ``only`` names another verb
    or ``band``, a set of op indices, leaves it out: (profiler, [(op index,
    verb, profiled seconds)] of the profiled ops, number of ops that
    raised)."""
    worker.import_lodua()
    import lodua
    timed, raised = [], 0
    prof = cProfile.Profile()
    for index, op in enumerate(ops):
        verb = op.get("verb", "is_L_complete")
        profiled = only in (None, verb) and (band is None or index in band)
        t0 = time.perf_counter()
        if profiled:
            prof.enable()
        try:
            worker.execute(lodua, op)
        except lodua.LoduaError:  # a refusal is an answer, as in the benchmark
            pass
        except Exception:  # anything else is reported, not hidden
            raised += 1
        finally:
            prof.disable()
        if profiled:
            timed.append((index, verb, time.perf_counter() - t0))
    return prof, timed, raised


def unprofiled_latencies(workload, seed, size):
    """Each op's latency in seconds, in op-list order, from one fresh
    ``perfbench/worker.py --mode timed`` process (unscaled)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", "timed"]
    if size is not None:
        cmd += ["--size", str(size)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return [rec["latency"]
            for rec in json.loads(proc.stdout.splitlines()[-1])["ops"]]


def latency_band(latencies, lo, hi):
    """The indices of the ops whose latency rank r (0 the fastest) of n
    ops, as the quantile r / (n - 1), lies in [lo, hi]."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    top = max(1, len(order) - 1)
    return {index for rank, index in enumerate(order)
            if lo <= rank / top <= hi}


def _args(op):
    """An op's arguments: the verb's, or a grid question's label, base ring
    and precision."""
    if "args" in op:
        return op["args"]
    return {key: op[key] for key in ("label", "base", "N")}


def slowest(ops, timed, n):
    """The lines of the ``n`` slowest profiled ops, the slowest first, each
    with its rank, op index, verb, profiled milliseconds and arguments.
    When every op was profiled, the rank that ``op_tail_ms`` reads in
    ``perfbench/run.py`` (the 11th slowest of 11 or more ops, else the
    fastest) is marked."""
    ranked = sorted(timed, key=lambda t: -t[2])
    head = f"slowest {min(n, len(ranked))} of {len(ranked)} profiled ops"
    tail_rank = None
    if len(ranked) == len(ops):
        tail_rank = len(ranked) - max(1, len(ranked) - 10) + 1
        head += f" (op_tail_ms reads rank {tail_rank})"
    lines = [head + ":"]
    for rank, (index, verb, s) in enumerate(ranked[:n], 1):
        mark = "  <- op_tail_ms" if rank == tail_rank else ""
        args = json.dumps(_args(ops[index]), sort_keys=True)
        lines.append(f"  {rank:>4} op {index:>4} {verb:<16} {1e3 * s:>9.3f} ms"
                     f"  {args}{mark}")
    return lines


def self_time_by_module(prof):
    """[(module, self seconds)] of a profile, the largest first: each
    ``lodua.*`` module, ``fractions``, ``builtins`` (functions written in
    C) and ``other``."""
    lodua_dir = os.path.join(ROOT, "src", "lodua")
    out = {}
    for (path, _, _), (_, _, tottime, _, _) in pstats.Stats(prof).stats.items():
        if path == "~":
            module = "builtins"
        elif os.path.dirname(os.path.abspath(path)) == lodua_dir:
            module = "lodua." + os.path.splitext(os.path.basename(path))[0]
        elif os.path.basename(path) == "fractions.py":
            module = "fractions"
        else:
            module = "other"
        out[module] = out.get(module, 0.0) + tottime
    return sorted(out.items(), key=lambda kv: (-kv[1], kv[0]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", type=int, default=None,
                    help="run only the first SIZE ops")
    ap.add_argument("--top", type=int, default=25,
                    help="number of functions to print")
    ap.add_argument("--sort", default="cumulative",
                    choices=("cumulative", "tottime", "ncalls"))
    ap.add_argument("--verb", default=None,
                    help="profile only this verb's ops (all ops still run)")
    ap.add_argument("--by-module", action="store_true",
                    help="also print the self time of each source module")
    ap.add_argument("--slowest", type=int, default=0, metavar="N",
                    help="also print the N slowest profiled ops")
    ap.add_argument("--band", type=float, nargs=2, default=None,
                    metavar=("LO", "HI"),
                    help="profile only the ops whose unprofiled latency "
                         "rank lies between these quantiles")
    ns = ap.parse_args(argv)
    if ns.band is not None and not 0 <= ns.band[0] <= ns.band[1] <= 1:
        ap.error("--band takes 0 <= LO <= HI <= 1")
    ops = workloads.generate(ns.workload, ns.seed, ns.size)
    band = None
    if ns.band is not None:
        band = latency_band(unprofiled_latencies(ns.workload, ns.seed,
                                                 ns.size), *ns.band)
    prof, timed, raised = profile_ops(ops, ns.verb, band)
    per_verb = {}
    for _, verb, s in timed:
        slot = per_verb.setdefault(verb, [0, 0.0])
        slot[0] += 1
        slot[1] += s
    if not per_verb:
        asked = f"{ns.verb!r} op" if ns.verb else "op"
        where = " in the latency band" if band is not None else ""
        print(f"no {asked}{where} among the {len(ops)} ops", file=sys.stderr)
        return 2
    total = sum(s for _, s in per_verb.values())
    what = f"{per_verb[ns.verb][0]} {ns.verb}" if ns.verb else str(len(timed))
    if band is not None:
        what += f" in the latency band {ns.band[0]:g}-{ns.band[1]:g}"
    scope = f" ({what} profiled)" if ns.verb or band is not None else ""
    print(f"{ns.workload} seed {ns.seed}: {len(ops)} ops{scope}, "
          f"{total:.2f} s profiled, {raised} raised an internal error")
    for verb, (n, s) in sorted(per_verb.items(), key=lambda kv: -kv[1][1]):
        print(f"  {verb:<16} {n:>5} ops {s:>9.3f} s")
    print()
    if ns.slowest > 0:
        print("\n".join(slowest(ops, timed, ns.slowest)))
        print()
    if ns.by_module:
        modules = self_time_by_module(prof)
        own = sum(s for _, s in modules) or 1.0
        print("self time by module:")
        for module, s in modules:
            print(f"  {module:<18} {s:>9.3f} s {100 * s / own:>6.1f}%")
        print()
    pstats.Stats(prof, stream=sys.stdout).sort_stats(ns.sort) \
        .print_stats(ns.top)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
