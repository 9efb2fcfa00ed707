"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Smoke runs of every workload at a tiny op count, restoration of every
patched binding, self time on a hand-built span tree, the oracles on
refusals, rounds cut off by the run budget, and the scaling of times to
the reference host speed.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb",
              "ok_frac"}


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,size", [("completed-grid", 1),
                                           ("integer-sweep", 12),
                                           ("poly-sweep", 4)])
def test_smoke_run(workload, size):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--size", str(size))
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == 2 * size        # two rounds at least
    assert set(out["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_traced_run():
    out = bench("--workload", "poly-sweep", "--seed", "3", "--trace", "1",
                "--size", "3")
    assert out["correct"] and out["attempted"] == 9   # timed+traced+counted
    m = out["metrics"]
    for layer in spans.SPAN_LAYERS:
        assert f"{layer}.calls" in m and f"{layer}.self_s" in m
    assert m["groebner.bases_built"]["value"] > 0
    assert m["groebner.steps"]["value"] > 0
    assert m["poly.mul_calls"]["value"] > 0
    assert "trace.overhead_frac" in m


def test_refuses_without_source_tree(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as fh:
                (bench_dir / name).write_text(fh.read())
    proc = subprocess.run([sys.executable, str(bench_dir / "run.py"),
                           "--workload", "integer-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _snapshot():
    """Every attribute of every lodua module and class, by identity."""
    import lodua.cli  # noqa: F401  (loads every layer)
    snap = {}
    for mod in spans._lodua_modules():
        for name, val in vars(mod).items():
            snap[(mod.__name__, name)] = id(val)
            if isinstance(val, type) and val.__module__.startswith("lodua"):
                for attr, v in vars(val).items():
                    snap[(mod.__name__, name, attr)] = id(v)
    return snap


@pytest.mark.parametrize("kind", [spans.SpanTracer, spans.CallCounter])
def test_patches_are_restored(kind):
    import lodua.linalg
    import lodua.towers
    before = _snapshot()
    orig = lodua.linalg.lift_through
    patcher = kind()
    patcher.install()
    assert patcher.bindings
    if kind is spans.SpanTracer:
        # a from-import copy is rebound along with the defining module
        assert lodua.towers.lift_through is not orig
        assert lodua.towers.lift_through is lodua.linalg.lift_through
    assert _snapshot() != before
    patcher.restore()
    assert _snapshot() == before
    assert lodua.towers.lift_through is orig


def test_self_time_on_hand_built_tree():
    # id, parent, op, layer, name, start, end
    tree = [
        [0, None, 0, "cli", "cli.run", 0.0, 10.0],
        [1, 0, 0, "modules", "modules.tor", 1.0, 4.0],
        [2, 1, 0, "linalg", "linalg.syzygies", 2.0, 3.0],
        [3, 0, 0, "linalg", "linalg.smith_normal_form", 5.0, 9.0],
        [4, None, 1, "towers", "towers.lim_lim1", 20.0, 30.0],
        [5, 4, 1, "ring", "ring.Ring.inv_el", 21.0, 24.0],
        [6, 4, 1, "ring", "ring.Ring.inv_el", 23.0, 26.0],  # overlaps 5
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0,
                                 4: 5.0, 5: 3.0, 6: 3.0})
    summary = spans.layer_summary(tree)
    assert summary["cli.self_s"] == pytest.approx(3.0)
    assert summary["linalg.self_s"] == pytest.approx(5.0)
    assert summary["linalg.calls"] == 2
    assert summary["hopf.calls"] == 0
    assert spans.call_counts(tree)["ring.Ring.inv_el"] == 2


def test_oracles_reject_refusals_where_they_know_the_answer():
    grid = {"kind": "grid"}
    assert worker.oracle(None, grid, 3, None) == "grid-complete"
    assert worker.oracle(None, grid, 0, {"verdict": "complete"}) is None
    doc = {"modules": {"M": {"generators": 1, "relations": []}}}
    lh = {"kind": "cli", "doc": doc, "verb": "localhom",
          "args": {"target": "M", "s": 1}}
    assert worker.oracle(None, lh, 3, None) == "localhom-fg-collapse"
    assert worker.oracle(None, lh, 0, {"result": {"kind": "zero"}}) is None
    # at s = 0, and for verbs without a known answer, refusals go to refs/
    assert worker.oracle(None, {**lh, "args": {"target": "M", "s": 0}},
                         3, None) is None
    assert worker.oracle(None, {**lh, "verb": "localcoh"}, 2, None) is None


def test_unfinished_rounds_count_as_failed_ops():
    class Runner:
        workload, seconds = "completed-grid", 30    # three rounds

        def __init__(self):
            self.rounds = 0

        def import_times(self, n):
            return [0.1] * n

        def worker(self, mode):
            self.rounds += 1
            if self.rounds > 1:
                raise run.BudgetExhausted("run budget exhausted")
            ops = [{"t0": float(i), "latency": 0.01 * (i + 1), "code": 0,
                    "sha": str(i), "failure": None, "error": None}
                   for i in range(4)]
            return {"setup_s": 0.1, "ops": ops, "rss_mb": 20.0,
                    "verbs": ["tor"] * 4, "probes": [run.REF_CHUNK_S],
                    "probe_at": [0.0], "setup_chunks": [run.REF_CHUNK_S]}

    metrics, attempted, failures, _ = run.run_timed(Runner(), None)
    assert attempted == 12
    assert len(failures) == 8
    assert {f[0] for f in failures} == {"round 1", "round 2"}
    assert metrics["ok_frac"]["value"] == pytest.approx(4 / 12)
    assert metrics["wall_s"]["value"] == pytest.approx(0.1)


def test_times_are_scaled_to_the_reference_speed():
    ref = run.REF_CHUNK_S
    # the host ran at half speed early in the long op, at full speed at its
    # end, and far slower long after it
    res = {"probes": [2 * ref, 2 * ref, ref, ref, 10 * ref],
           "probe_at": [0.0, 2.0, 4.2, 4.3, 20.0],
           "ops": [{"t0": 0.1, "latency": 4.0},
                   {"t0": 4.35, "latency": 0.01}]}
    assert run.speed(res) == pytest.approx(0.5)
    # the long op takes the chunks timed while it ran and within
    # PROBE_WINDOW_S of it; the short one those and the next chunk
    assert run.scaled(res) == pytest.approx([4.0 / 1.5, 0.01])


def test_probe_time_is_taken_out_of_op_latencies():
    import lodua
    calls = []

    def slow_op(lodua_, op):
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            pass
        calls.append(op)
        return 0, {"result": {"kind": "zero"}}

    speed = worker.SpeedProbe()
    orig = worker.execute
    worker.execute = slow_op
    try:
        recs = worker.run_ops(lodua, [{"kind": "cli", "verb": "tor",
                                       "args": {}, "doc": {}}], speed)
    finally:
        worker.execute = orig
    assert len(speed.chunks) >= 3                  # sampled inside the op
    assert recs[0]["latency"] == pytest.approx(0.3 - speed.spent, abs=0.02)


def test_reference_that_failed_its_oracle_is_not_held_against_an_op():
    def rec(code, sha, failure=None):
        return {"code": code, "sha": sha, "failure": failure, "error": None}

    refs = {"oracle_failures": [1], "answers": [[0, "a"], [3, "b"]]}
    # op 1 was refused when recorded; a zero answer now is a fix
    fixed = {"verbs": ["tor", "localhom"], "ops": [rec(0, "a"), rec(0, "z")]}
    assert run.check_passes([("round 0", fixed)], refs) == []
    changed = {"verbs": ["tor", "localhom"],
               "ops": [rec(0, "x"), rec(3, "b", "oracle localhom")]}
    assert run.check_passes([("round 0", changed)], refs) == [
        ("round 0", 0, "tor", "differs from the reference", None),
        ("round 0", 1, "localhom", "oracle localhom", None)]
