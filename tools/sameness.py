"""Fingerprint one benchmark workload's answers and membership questions.

    python3 tools/sameness.py --workload poly-sweep
    python3 tools/sameness.py --workload integer-sweep --seed 2 --size 50
    python3 tools/sameness.py --workload integer-sweep --refs
    python3 tools/sameness.py --workload integer-sweep --cold

Runs the op list of one workload and seed once, in order, in one process,
as ``perfbench/worker.py`` executes it (``perfbench/workloads.py`` and
``worker.py`` are imported, neither changed; the engine comes from
``src/``), and prints three lines:

    <workload> seed <S>: <n> ops, answers sha256 <hex>
    contains_in_relations: <q> queries, sha256 <hex>
    smith: <s> forms, sha256 <hex>

The first hashes every op's (exit code, body) pair, the body being the
report or the refusal exactly as the benchmark hashes it.  The second
hashes every ``FPModule.contains_in_relations`` question the run asks: the
module's generator count and relations, the vector and the answer, in
order.  The third hashes every ``linalg._smith`` call: the ring, the input
matrix, and U, D, V, U^-1 and V^-1, each entry rendered as a ring element
whatever arithmetic record the loop ran on.  Two trees whose lines match
gave the same answers by asking the same membership questions and
computing the same Smith forms (same pivots, same transforms), so a
refactor that claims to move no certificate can be checked by running this
script in both and comparing the output.  Run from the root of a lodua
checkout; to compare with another tree, copy the script into that tree's
``tools/`` and run it there.

With ``--cold`` it clears the table of tower limits
(``towers._presented_limits``) before every op, so each op computes its
limits as in a fresh process; its answers line must equal the one of a run
without it.  ``local._LAMBDA_CACHE`` is left alone: clearing it turns
answers that a warm run gives into refusals (ROADMAP item 1).

With ``--refs`` it instead runs the op list of the seed that
``perfbench/refs/<workload>.json`` was recorded for and lists every op
whose (exit code, body sha256) differs from that reference, then a count;
it exits 1 when any op differs.  That is the comparison behind the
benchmark's ``"correct"`` flag (``perfbench/run.py`` also holds each op to
its oracle and to the other passes), run in one process.  ``perfbench/`` is
only read.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import argparse  # noqa: E402

import run  # noqa: E402  (perfbench/run.py)
import worker  # noqa: E402  (perfbench/worker.py)
import workloads  # noqa: E402  (perfbench/workloads.py)


def _render(vec):
    return [e.render() for e in vec]


def _render_rows(ar, X):
    return [[ar.to_el(a).render() for a in row] for row in X]


def answers(lodua, ops, cold=False):
    """(exit code, body) of each op in turn, the body being the report or
    the refusal exactly as the benchmark hashes it; ``cold``: the table of
    tower limits is cleared before each op."""
    for op in ops:
        if cold:
            lodua.towers._presented_limits.cache_clear()
        try:
            code, report = worker.execute(lodua, op)
            body = json.dumps(report, sort_keys=True, indent=2)
        except Exception as ex:  # a refusal or a crash is an answer here
            code = worker.refusal_code(ex)
            body = f"{type(ex).__name__}: {ex}"
        yield code, body


def differences(workload, cold=False):
    """(seed, ops, differing) for the seed ``perfbench/refs/<workload>.json``
    was recorded for: ``differing`` lists (op index, verb, [code, sha256],
    the reference's [code, sha256]) for each op whose answer is not the
    reference's."""
    refs = run.load_refs(workload)
    if refs is None:
        raise SystemExit(f"no perfbench/refs/{workload}.json")
    seed = refs["seed"]
    if refs["ops_sha256"] != run.ops_digest(workload, seed):
        raise SystemExit(f"perfbench/refs/{workload}.json was recorded for "
                         "another op list")
    ops = workloads.generate(workload, seed)
    worker.import_lodua()
    import lodua
    differing = []
    for i, (op, (code, body), ref) in enumerate(
            zip(ops, answers(lodua, ops, cold), refs["answers"])):
        got = [code, hashlib.sha256(body.encode()).hexdigest()]
        if got != ref:
            differing.append((i, op.get("verb", op["kind"]), got, ref))
    return seed, len(ops), differing


def fingerprint(ops, cold=False):
    """(answers sha256, number of membership questions, their sha256,
    number of Smith forms, their sha256)."""
    worker.import_lodua()
    import lodua
    from lodua import linalg
    from lodua.modules import FPModule
    answered, queries, forms = (hashlib.sha256(), hashlib.sha256(),
                                hashlib.sha256())
    count = nforms = 0
    ask = FPModule.contains_in_relations
    smith = linalg._smith

    def logged_smith(ar, D):
        nonlocal nforms
        given = _render_rows(ar, D)  # before _smith reduces D in place
        out = smith(ar, D)
        nforms += 1
        forms.update(json.dumps(
            [repr(ar.ring), given] + [_render_rows(ar, X) for X in out]
        ).encode() + b"\n")
        return out

    def logged(M, vec):
        nonlocal count
        got = ask(M, vec)
        count += 1
        queries.update(json.dumps(
            [M.ngens, [_render(col) for col in M.relations], _render(vec),
             bool(got)]).encode() + b"\n")
        return got

    FPModule.contains_in_relations = logged
    linalg._smith = logged_smith
    try:
        for code, body in answers(lodua, ops, cold):
            answered.update(json.dumps([code, body]).encode() + b"\n")
    finally:
        FPModule.contains_in_relations = ask
        linalg._smith = smith
    return (answered.hexdigest(), count, queries.hexdigest(), nforms,
            forms.hexdigest())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=None, help="default 1")
    ap.add_argument("--size", type=int, default=None,
                    help="run only the first SIZE ops")
    ap.add_argument("--refs", action="store_true",
                    help="list the ops whose answer differs from "
                         "perfbench/refs/ at its seed")
    ap.add_argument("--cold", action="store_true",
                    help="clear the table of tower limits before every op")
    ns = ap.parse_args(argv)
    if ns.refs:
        if ns.seed is not None or ns.size is not None:
            ap.error("--refs runs the whole op list of the seed the "
                     "reference was recorded for; drop --seed and --size")
        seed, n, differing = differences(ns.workload, ns.cold)
        for i, verb, (code, sha), (ref_code, ref_sha) in differing:
            print(f"op {i} {verb}: exit {code} sha256 {sha}, reference "
                  f"exit {ref_code} sha256 {ref_sha}")
        print(f"{ns.workload} seed {seed}: {n} ops, {len(differing)} differ "
              f"from perfbench/refs/{ns.workload}.json")
        return 1 if differing else 0
    seed = 1 if ns.seed is None else ns.seed
    ops = workloads.generate(ns.workload, seed, ns.size)
    answered, count, queries, nforms, forms = fingerprint(ops, ns.cold)
    print(f"{ns.workload} seed {seed}: {len(ops)} ops, "
          f"answers sha256 {answered}")
    print(f"contains_in_relations: {count} queries, sha256 {queries}")
    print(f"smith: {nforms} forms, sha256 {forms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
