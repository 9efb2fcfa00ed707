"""Fingerprint one benchmark workload's answers and membership questions.

    python3 tools/sameness.py --workload poly-sweep
    python3 tools/sameness.py --workload integer-sweep --seed 2 --size 50

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
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import argparse  # noqa: E402

import worker  # noqa: E402  (perfbench/worker.py)
import workloads  # noqa: E402  (perfbench/workloads.py)


def _render(vec):
    return [e.render() for e in vec]


def _render_rows(ar, X):
    return [[ar.to_el(a).render() for a in row] for row in X]


def fingerprint(ops):
    """(answers sha256, number of membership questions, their sha256,
    number of Smith forms, their sha256)."""
    worker.import_lodua()
    import lodua
    from lodua import linalg
    from lodua.modules import FPModule
    answers, queries, forms = (hashlib.sha256(), hashlib.sha256(),
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
        for op in ops:
            try:
                code, report = worker.execute(lodua, op)
                body = json.dumps(report, sort_keys=True, indent=2)
            except Exception as ex:  # a refusal or a crash is an answer here
                code = worker.refusal_code(ex)
                body = f"{type(ex).__name__}: {ex}"
            answers.update(json.dumps([code, body]).encode() + b"\n")
    finally:
        FPModule.contains_in_relations = ask
        linalg._smith = smith
    return (answers.hexdigest(), count, queries.hexdigest(), nforms,
            forms.hexdigest())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", type=int, default=None,
                    help="run only the first SIZE ops")
    ns = ap.parse_args(argv)
    ops = workloads.generate(ns.workload, ns.seed, ns.size)
    answers, count, queries, nforms, forms = fingerprint(ops)
    print(f"{ns.workload} seed {ns.seed}: {len(ops)} ops, "
          f"answers sha256 {answers}")
    print(f"contains_in_relations: {count} queries, sha256 {queries}")
    print(f"smith: {nforms} forms, sha256 {forms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
