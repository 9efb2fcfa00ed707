"""One fresh, single-threaded process: import lodua, run one op list once.

    python3 perfbench/worker.py --workload W --seed S --mode MODE [--size N]

MODE is ``timed`` (no instrumentation), ``traced`` (layer spans, written to
``--spans``) or ``counted`` (innermost-operation counts), or ``import`` to
time the import alone.  Ops are issued one at a time (closed loop, one
client).  Only the op call is timed; answer checks run after it.  Every
PROBE_EVERY_S of wall time a timer signal makes the worker time one chunk of
a fixed pure-Python loop (the speed probe), in an op or between ops, so that
run.py can scale its times to a fixed host speed; the chunks' time is taken
out of the op latencies.  The result is one JSON object on the last line of
stdout.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# the speed probe: a chunk of PROBE_ITERS loop iterations (about 2 ms) every
# PROBE_EVERY_S of wall time, and PROBE_AFTER_IMPORT chunks after the import
PROBE_ITERS = 20_000
PROBE_EVERY_S = 0.05
PROBE_AFTER_IMPORT = 5

# the exit codes lodua.cli.main gives each refusal
_REFUSAL_CODES = (("InvalidInput", 3), ("UnrecognizedTower", 2),
                  ("BudgetExceeded", 2), ("UnsupportedRing", 2),
                  ("InternalInconsistency", 2), ("LoduaError", 2))


def import_lodua():
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import lodua
    import lodua.cli
    return time.perf_counter() - t0


def probe_chunk():
    """Seconds for PROBE_ITERS iterations of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class SpeedProbe:
    """Probe-chunk times, their start times, and the seconds spent in them."""

    def __init__(self):
        self.chunks, self.at, self.spent = [], [], 0.0
        self.busy = False

    def sample(self, *_):
        if self.busy:   # a tick during a chunk slower than PROBE_EVERY_S
            return
        self.busy = True
        t0 = time.perf_counter()
        self.at.append(t0)
        self.chunks.append(probe_chunk())
        self.spent += time.perf_counter() - t0
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _grid_rings(lodua, op):
    spec = {"base": op["base"], "vars": ["x", "y"]}
    if op["base"] == "Fp":
        spec["p"] = 7
    base = lodua.make_ring(spec)
    completed = lodua.make_ring(
        {**spec, "completion": {"ideal": ["x", "y"], "precision": op["N"]}})
    return base, completed


def execute(lodua, op):
    """(exit code, report dict) of one op, as the CLI would give them."""
    if op["kind"] == "grid":
        base, ring = _grid_rings(lodua, op)
        M = lodua.FPModule(ring, op["ngens"],
                           [tuple(ring.el(e) for e in col)
                            for col in op["relations"]])
        cert = lodua.is_L_complete(lodua.FPObj(M),
                                   lodua.IdealData(base, ["x", "y"]),
                                   precision=op["N"])
        code = {"complete": 0, "not-complete": 1, "inconclusive": 2}
        return code[cert.verdict], cert.describe()
    return lodua.cli.run(op["doc"], op["verb"], op["args"])


def refusal_code(ex):
    names = {cls.__name__ for cls in type(ex).__mro__}
    for name, code in _REFUSAL_CODES:
        if name in names:
            return code
    return None


def _is_fp_target(op):
    doc, name = op["doc"], op["args"].get("target")
    if name in doc.get("modules", {}):
        return True
    return doc.get("descriptors", {}).get(name, {}).get("kind") == "fp"


def oracle(lodua, op, code, report):
    """Name of the first oracle that rejects this answer, or None.

    ``report`` is None for a refusal.  Where an oracle knows the answer
    (a verdict of complete, a zero L_s), a refusal is rejected too; the
    recheck oracle has no report to replay and leaves refusals to the
    references.
    """
    if op["kind"] == "grid":
        # finitely presented modules over the completion are L-complete
        if report is None or report["verdict"] != "complete":
            return "grid-complete"
        return None
    verb = op["verb"]
    if verb in ("lcomplete-check", "gm-check") and report is not None:
        try:
            lodua.cli.recheck(op["doc"], report)
        except Exception:  # a crash in the replay is a rejection too
            return "recheck"
    if verb == "localhom" and op["args"].get("s", 0) >= 1 \
            and _is_fp_target(op):
        # L_s vanishes for s > 0 on finitely presented modules
        if report is None or report["result"].get("kind") != "zero":
            return "localhom-fg-collapse"
    return None


def run_ops(lodua, ops, speed, tracer=None, counter=None):
    """Issue every op once, with the SpeedProbe ``speed`` sampling; returns
    per-op records."""
    records = []
    clock = time.perf_counter
    speed.start()
    for i, op in enumerate(ops):
        report, error, failure = None, None, None
        if tracer is not None:
            tracer.op = i
        if counter is not None:
            counter.active = True
        # a tick between reading the clock and reading speed.spent can only
        # leave a chunk's time in the latency, never take out time the op
        # did not spend
        t0 = clock()
        spent = speed.spent
        try:
            code, report = execute(lodua, op)
        except lodua.LoduaError as ex:
            code, error = refusal_code(ex), ex
        except Exception as ex:  # any other exception is a failed op
            code, error = None, ex
            failure = f"exception {type(ex).__name__}"
        spent = speed.spent - spent
        latency = clock() - t0 - spent
        if tracer is not None:
            tracer.op = None
        if counter is not None:
            counter.active = False
        if report is not None:
            body = json.dumps(report, sort_keys=True, indent=2)
        else:
            body = f"{type(error).__name__}: {error}"
        if failure is None:
            bad = oracle(lodua, op, code, report)
            if bad:
                failure = f"oracle {bad}"
        records.append({
            "t0": t0, "latency": latency, "code": code,
            "sha": hashlib.sha256(body.encode()).hexdigest(),
            "failure": failure,
            "error": type(error).__name__ if error is not None else None})
    speed.stop()
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("import", "timed", "traced", "counted"))
    ap.add_argument("--size", type=int, default=None)
    ap.add_argument("--spans", default=None)
    ns = ap.parse_args(argv)
    setup = import_lodua()
    out = {"setup_s": setup}
    speed = SpeedProbe()
    for _ in range(PROBE_AFTER_IMPORT):
        speed.sample()
    out["setup_chunks"] = list(speed.chunks)
    if ns.mode != "import":
        import lodua
        sys.path.insert(0, HERE)
        import spans as layer_trace
        import workloads
        ops = workloads.generate(ns.workload, ns.seed, ns.size)
        tracer = counter = None
        if ns.mode == "traced":
            tracer = layer_trace.SpanTracer()
            tracer.install()
        elif ns.mode == "counted":
            counter = layer_trace.CallCounter()
            counter.install()
        records = run_ops(lodua, ops, speed, tracer, counter)
        out["ops"] = records
        out["labels"] = [op.get("label") for op in ops]
        out["verbs"] = [op.get("verb", "is_L_complete") for op in ops]
        out["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()
            out["counters"] = dict(tracer.counters)
            out["layers"] = layer_trace.layer_summary(tracer.spans)
            out["calls"] = layer_trace.call_counts(tracer.spans)
            if ns.spans:
                tracer.write(ns.spans)
        if counter is not None:
            counter.restore()
            out["counters"] = dict(counter.counters)
    out["probes"], out["probe_at"] = speed.chunks, speed.at
    print(json.dumps(out))


if __name__ == "__main__":
    main()
