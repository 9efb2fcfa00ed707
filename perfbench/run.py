"""lodua benchmark: one workload, one seed, fresh worker processes.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a lodua source tree; the engine is imported from
``src/``.  Every worker is a fresh, single-threaded process that imports
lodua with cold caches and issues the workload's op list once, one op at a
time (see worker.py).  Each run first times a fixed pure-Python loop (the
host-speed probe, a diagnostic only).

``--trace 0`` runs the op list in ``rounds(W, T)`` untraced workers, with
import-only processes before, between and after them that time set-up, and
prints the end-to-end metrics.  Every time is scaled to a reference host
speed by the speed-probe chunks each worker times every 50 ms, and an op's
latency is its fastest over the rounds.  ``--trace 1`` runs one untraced,
one traced and one counting worker and prints the per-layer metrics.  Every
answer is checked (see NOTES.md); the last stdout line is the JSON result.
``--record`` rewrites the reference answers of the default seed in refs/.
"""

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# import-only processes before each round and after the last one, so that
# setup_s samples the same stretch of host time as the rounds
SETUP_PROBES = 3
# Nominal length of one untraced round of each workload on a 2-core x86 host
# (rounds run up to 1.8x longer when that host runs slow); a run makes one
# round per ROUND_S of --seconds: 2, 3 and 2 rounds at 20 s.  The round count
# depends on --seconds alone, never on host speed.
ROUND_S = {"completed-grid": 10.0, "integer-sweep": 7.5, "poly-sweep": 10.0}
MIN_ROUNDS = 2
# A run at the default --seconds must end within 180 s; longer runs get
# three times --seconds.  Rounds that do not finish within the
# budget count as failed ops.
RUN_BUDGET_S = 170.0

# Every time a worker measures is scaled to a host on which one speed-probe
# chunk (worker.PROBE_ITERS loop iterations) takes REF_CHUNK_S, about that
# 2-core host in its fast phases.  The host's speed drifts by up to 1.8x in
# phases of seconds to minutes, and the median chunk time of a worker tracks
# it (see NOTES.md, "Run-to-run spread").
REF_CHUNK_S = 2.0e-3
PROBE_WINDOW_S = 0.5

# per-layer counters derived from traced call counts
CALL_COUNTERS = {
    "groebner.bases_built": "groebner.GBasis.__init__",
    "linalg.smith_calls": "linalg.smith_normal_form",
    "towers.lim_calls": "towers.lim_lim1",
    "towers.stage_calls": "towers.Tower.stage",
    "complexes.homology_calls": "complexes.ChainComplex.homology",
    "local.lambda_calls": "local.derived_completion",
}
GRID_LABELS = ("N2", "N3", "N4", "rank2")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class BudgetExhausted(BenchError):
    """A worker did not finish within the run budget."""


def host_probe():
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def rounds(workload, seconds):
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def run_budget(seconds):
    return max(RUN_BUDGET_S, 3 * seconds)


class Runner:
    def __init__(self, workload, seed, seconds, size):
        self.workload, self.seed, self.size = workload, seed, size
        self.seconds = seconds
        self.deadline = time.monotonic() + run_budget(seconds)

    def worker(self, mode, spans_path=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        if self.size is not None:
            cmd += ["--size", str(self.size)]
        if spans_path:
            cmd += ["--spans", spans_path]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BudgetExhausted("run budget exhausted")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BudgetExhausted(f"{mode} worker exceeded the run budget")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def import_times(self, n):
        """Scaled import times of up to ``n`` import-only workers, within
        budget."""
        out = []
        try:
            for _ in range(n):
                out.append(scaled_setup(self.worker("import")))
        except BudgetExhausted:
            pass
        return out


def speed(res):
    """The factor that scales a worker's times to the reference speed."""
    return REF_CHUNK_S / statistics.median(res["probes"])


def scaled_setup(res):
    """A worker's import time, scaled by the chunks timed right after it."""
    return res["setup_s"] * REF_CHUNK_S / statistics.median(
        res["setup_chunks"])


def scaled(res):
    """A worker's op latencies, scaled to the reference speed.

    Each op is scaled by the median of the probe chunks timed while it ran
    or within PROBE_WINDOW_S of it, and always of the chunk just before it
    and the one just after it: the host's speed drifts over seconds.
    """
    at, chunks = res["probe_at"], res["probes"]
    out = []
    for rec in res["ops"]:
        start, end = rec["t0"], rec["t0"] + rec["latency"]
        lo = min(bisect.bisect_left(at, start - PROBE_WINDOW_S),
                 bisect.bisect_left(at, start) - 1)
        hi = max(bisect.bisect_right(at, end + PROBE_WINDOW_S),
                 bisect.bisect_right(at, end) + 1)
        near = chunks[max(0, lo):hi]
        out.append(rec["latency"] * REF_CHUNK_S / statistics.median(near))
    return out


def tail(latencies):
    """(value, percentile) at the highest percentile with >= 10 ops beyond."""
    xs = sorted(latencies)
    k = max(1, len(xs) - 10)
    return xs[k - 1], 100.0 * k / len(xs)


def load_refs(workload):
    path = os.path.join(HERE, "refs", f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def check_passes(passes, refs):
    """Mark ops whose answer differs between passes or from the reference.

    ``passes`` is a list of (name, worker result); ``refs`` is the loaded
    reference file or None.  A reference answer that failed its oracle when
    recorded is not held against the op: the oracle judges it, so a fixed
    engine does not fail there.  Returns the failures as (pass name, op
    index, verb, reason, error type), every failed op of every pass, in
    order.
    """
    first = passes[0][1]["ops"]
    verbs = passes[0][1]["verbs"]
    known_bad = set(refs["oracle_failures"]) if refs else set()
    failures = []
    for name, res in passes:
        for i, rec in enumerate(res["ops"]):
            reason = rec["failure"]
            answer = (rec["code"], rec["sha"])
            if reason is None and refs is not None and \
                    i not in known_bad and \
                    answer != tuple(refs["answers"][i]):
                reason = "differs from the reference"
            if reason is None and answer != (first[i]["code"],
                                             first[i]["sha"]):
                reason = "differs from the first pass"
            if reason is not None:
                failures.append((name, i, verbs[i], reason, rec["error"]))
    return failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(runner, refs):
    n = rounds(runner.workload, runner.seconds)
    setups, passes, unfinished = [], [], []
    for r in range(n):
        setups += runner.import_times(SETUP_PROBES)
        try:
            res = runner.worker("timed")
        except BudgetExhausted:
            unfinished.append(r)
            continue
        setups.append(scaled_setup(res))
        passes.append((f"round {r}", res))
    setups += runner.import_times(SETUP_PROBES)
    if not passes:
        raise BenchError("no round finished within the run budget")
    failures = check_passes(passes, refs)
    verbs = passes[0][1]["verbs"]
    for r in unfinished:
        failures += [(f"round {r}", i, verb,
                      "round not finished within the run budget", None)
                     for i, verb in enumerate(verbs)]
    # an op's latency is its fastest scaled latency over the finished
    # rounds: every round does the same work from cold caches, and bursts of
    # other load on the host only ever slow an op down
    per_round = [scaled(res) for _, res in passes]
    lat = [min(col) for col in zip(*per_round)]
    walls = [sum(rec["latency"] for rec in res["ops"]) for _, res in passes]
    tail_s, pct = tail(lat)
    attempted = len(passes) * len(verbs) + len(unfinished) * len(verbs)
    info = [f"rounds {len(passes)} of {n}, ops per round {len(verbs)}"
            f", round walls {' '.join(f'{w:.3f}' for w in walls)} s"
            f" unscaled, speed factors "
            f"{' '.join(f'{speed(res):.3f}' for _, res in passes)}",
            f"setup_s is the median of {len(setups)} imports",
            f"op_tail_ms is p{pct:.2f} of {len(lat)} per-op latencies",
            f"failed_frac {len(failures) / attempted:.6f}"]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(lat), "s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(statistics.median(
            res["rss_mb"] for _, res in passes), "MB"),
        "ok_frac": metric((attempted - len(failures)) / attempted, "ratio"),
    }
    return metrics, attempted, failures, info


def run_traced(runner, refs):
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(
        OUT, f"spans-{runner.workload}-{runner.seed}.jsonl")
    timed = runner.worker("timed")
    traced = runner.worker("traced", spans_path=spans_path)
    counted = runner.worker("counted")
    passes = [("timed", timed), ("traced", traced), ("counted", counted)]
    failures = check_passes(passes, refs)
    attempted = sum(len(res["ops"]) for _, res in passes)

    def wall(res):
        return sum(scaled(res))

    values = {}
    layers = traced["layers"]
    for layer in spans.SPAN_LAYERS:
        values[f"{layer}.calls"] = (layers[f"{layer}.calls"], "count")
        values[f"{layer}.self_s"] = (layers[f"{layer}.self_s"], "s")
    tc, cc = traced["counters"], counted["counters"]
    for name, qual in CALL_COUNTERS.items():
        values[name] = (traced["calls"].get(qual, 0), "count")
    bases = values["groebner.bases_built"][0]
    gcalls = tc.get("linalg.groebner_calls", 0)
    values["linalg.groebner_calls"] = (gcalls, "count")
    values["groebner.bases_per_call"] = (bases / gcalls if gcalls else 0.0,
                                         "ratio")
    for name in ("criteria.cells", "criteria.cells_unrecognized"):
        values[name] = (tc.get(name, 0), "count")
    for name, count in cc.items():
        values[name] = (count, "count")
    # the N / rank curve: 0 on workloads that run no such grid
    labels = timed["labels"]
    for label in GRID_LABELS:
        secs = [t for lab, t in zip(labels, scaled(timed)) if lab == label]
        values[f"criteria.grid.{label}_s"] = (sum(secs), "s")
    values["trace.overhead_frac"] = (wall(traced) / wall(timed) - 1.0,
                                     "ratio")
    info = [f"spans written to {os.path.relpath(spans_path, ROOT)}",
            f"scaled walls: timed {wall(timed):.3f} s, traced "
            f"{wall(traced):.3f} s, count pass {wall(counted):.3f} s"]
    metrics = {k: metric(v, u) for k, (v, u) in values.items()}
    return metrics, attempted, failures, info


def record_refs(runner):
    """Write the default seed's answers (exit code, body sha256) to refs/.

    Ops an oracle rejects are recorded too, and listed under
    ``oracle_failures``.  An op that raised a foreign exception has no
    answer to record.
    """
    res = runner.worker("timed")
    crashed = [(i, rec["failure"]) for i, rec in enumerate(res["ops"])
               if rec["code"] is None]
    if crashed:
        raise BenchError(f"refusing to record ops that raised: {crashed}")
    known_bad = [i for i, rec in enumerate(res["ops"]) if rec["failure"]]
    for i in known_bad:
        print(f"op {i} fails its check ({res['ops'][i]['failure']})")
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    head = {"workload": runner.workload, "seed": runner.seed,
            "ops_sha256": ops_digest(runner.workload, runner.seed),
            "oracle_failures": known_bad}
    rows = ",\n".join(json.dumps([rec["code"], rec["sha"]])
                      for rec in res["ops"])
    path = os.path.join(HERE, "refs", f"{runner.workload}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "answers": [\n' + rows + "]}\n")
    print(f"recorded {len(res['ops'])} answers to {os.path.relpath(path)}")


def ops_digest(workload, seed):
    ops = workloads.generate(workload, seed)
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def references(workload, seed, size):
    """The reference file, when this run issues exactly its op list."""
    refs = load_refs(workload)
    if refs is None or size is not None or seed != refs["seed"]:
        return None
    if refs["ops_sha256"] != ops_digest(workload, seed):
        raise BenchError("refs/ were recorded for another op list; "
                         "re-record them with --record")
    return refs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="truncate the op list (smoke runs)")
    ap.add_argument("--record", action="store_true",
                    help="rewrite refs/ for the default seed and exit")
    ns = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "lodua", "__init__.py")):
        print("perfbench: no lodua source tree at src/lodua; run from the "
              "root of a lodua checkout", file=sys.stderr)
        return 2
    runner = Runner(ns.workload, ns.seed, ns.seconds, ns.size)
    try:
        if ns.record:
            if ns.seed != DEFAULT_SEED or ns.size is not None:
                raise BenchError("--record takes the default seed and size")
            record_refs(runner)
            return 0
        refs = references(ns.workload, ns.seed, ns.size)
        probe = host_probe()
        if ns.trace:
            metrics, attempted, failures, info = run_traced(runner, refs)
        else:
            metrics, attempted, failures, info = run_timed(runner, refs)
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1
    print(f"# {ns.workload} seed {ns.seed}: host probe {probe:.4f} s "
          f"(diagnostic, not gated)")
    print(f"# answers checked against "
          f"{'references and oracles' if refs else 'oracles only'}")
    for line in info:
        print(f"# {line}")
    for pas, idx, verb, reason, err in failures:
        print(f"FAILED {ns.workload} op {idx} ({pas}) verb {verb}: {reason}"
              f"{f' [{err}]' if err else ''}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
