"""Fingerprint one benchmark workload's answers and membership questions.

    python3 tools/sameness.py --workload poly-sweep
    python3 tools/sameness.py --workload integer-sweep --seed 2 --size 50
    python3 tools/sameness.py --workload integer-sweep --refs
    python3 tools/sameness.py --workload integer-sweep --cold
    python3 tools/sameness.py --workload poly-sweep --rules

Runs the op list of one workload and seed once, in order, in one process,
as ``perfbench/worker.py`` executes it (``perfbench/workloads.py`` and
``worker.py`` are imported, neither changed; the engine comes from
``src/``), and prints five lines:

    <workload> seed <S>: <n> ops, answers sha256 <hex>
    contains_in_relations: <q> queries, sha256 <hex>
    smith: <s> forms, sha256 <hex>
    homology: <h> presentations, sha256 <hex>
    kernels: <k> kernels, sha256 <hex>

The first hashes every op's (exit code, body) pair, the body being the
report or the refusal exactly as the benchmark hashes it.  The second
hashes every ``FPModule.contains_in_relations`` question the run asks: the
module's generator count and relations, the vector and the answer, in
order.  A zero test over a euclidean ring asks none (it reads the module's
decomposition), so over Z and Z_p this line counts the other membership
questions only.  The third hashes every ``linalg._smith`` call: the ring,
the input matrix, and U, D, V, U^-1 and V^-1, each entry rendered as a
ring element whatever arithmetic record the loop ran on.  The fourth
hashes every homology presentation the run computes (each
``ChainComplex._homology_data`` call, table hits not included): H's
generator count, its relations by ``Ring.vec_key`` and the matrix of its
representative cycles.  The fifth
hashes every ``ModuleMap.kernel`` result, homology's and every other
caller's (``is_iso``, ``hopf``, ``local``): K's generator count, its
relations and the inclusion's columns, all by ``Ring.vec_key``.  Two trees
whose lines match gave the same answers by asking the same membership
questions, computing the same Smith forms (same pivots, same transforms),
presenting the same homology on the same cycles and the same kernels on
the same generators, so a refactor that
claims to move no certificate can be checked by running this script in
both and comparing the output.  Run from the root of a lodua
checkout; to compare with another tree, copy the script into that tree's
``tools/`` and run it there.

With ``--cold`` it clears the table of tower limits
(``towers._presented_limits``), the document table (``cli._parsed``) and
the span table (``linalg._span``) before every op, so each op parses its
document, computes its limits and builds its Smith forms and Groebner bases
as in a fresh process; its answers line must equal the one of a run without
it.

With ``--refs`` it instead runs the op list of the seed that
``perfbench/refs/<workload>.json`` was recorded for and lists every op
whose (exit code, body sha256) differs from that reference, then a count;
it exits 1 when any op differs.  That is the comparison behind the
benchmark's ``"correct"`` flag (``perfbench/run.py`` also holds each op to
its oracle and to the other passes), run in one process.  ``perfbench/`` is
only read.

With ``--rules`` it instead counts the rule that decides each lag probe
(``towers._probe_lag``) of the run, and prints a header line and then one
line per (tower kind, ``Ring.classify()`` of the tower's ring, rule), as

    tor int invariant factors: 36

The rules are ``no F_s`` (a Tor_s tower whose resolution has no F_s),
``gate failed`` (stages past the probe gate), ``invariant factors``
(``_pid_tor_lag``), ``stage cycles`` (``_cycle_tor_lag``) and
``materialized`` (``is_pro_trivial``); a refusal counts under the rule that
raised it.  A probe that a table hit saves is not counted; with ``--cold``
every op computes its limits afresh.
"""

import hashlib
import json
import os
import sys
from collections import Counter

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
    tower limits, the document table and the span table are cleared before
    each op."""
    for op in ops:
        if cold:
            lodua.towers._presented_limits.cache_clear()
            lodua.cli._parsed.cache_clear()
            lodua.linalg._span.cache_clear()
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
    number of Smith forms, their sha256, number of homology presentations,
    their sha256, number of kernels, their sha256)."""
    worker.import_lodua()
    import lodua
    from lodua import linalg
    from lodua.complexes import ChainComplex
    from lodua.modules import FPModule, ModuleMap
    answered, queries, forms, homs, kers = (
        hashlib.sha256() for _ in range(5))
    count = nforms = nhoms = nkers = 0
    ask = FPModule.contains_in_relations
    smith = linalg._smith
    homology = ChainComplex._homology_data
    kernel = ModuleMap.kernel

    def logged_kernel(f):
        nonlocal nkers
        K, incl = out = kernel(f)
        nkers += 1
        key = K.ring.vec_key
        kers.update(json.dumps(
            [K.ngens, [repr(key(col)) for col in K.relations],
             [repr(key(col)) for col in incl.cols()]]).encode() + b"\n")
        return out

    def logged_homology(C, n):
        nonlocal nhoms
        out = homology(C, n)
        nhoms += 1
        H, key = out.H, out.H.ring.vec_key
        homs.update(json.dumps(
            [H.ngens, [repr(key(col)) for col in H.relations],
             [_render(row) for row in out.rep.matrix]]).encode() + b"\n")
        return out

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
    ChainComplex._homology_data = logged_homology
    ModuleMap.kernel = logged_kernel
    try:
        for code, body in answers(lodua, ops, cold):
            answered.update(json.dumps([code, body]).encode() + b"\n")
    finally:
        FPModule.contains_in_relations = ask
        linalg._smith = smith
        ChainComplex._homology_data = homology
        ModuleMap.kernel = kernel
    return (answered.hexdigest(), count, queries.hexdigest(), nforms,
            forms.hexdigest(), nhoms, homs.hexdigest(), nkers,
            kers.hexdigest())


# the lag rules that _probe_lag calls by name, and the count's name of each
_RULES = {"_pid_tor_lag": "invariant factors",
          "_cycle_tor_lag": "stage cycles",
          "is_pro_trivial": "materialized"}


def rule_counts(ops, cold=False):
    """{(tower kind, Ring.classify(), rule): probes} over one run of ops."""
    worker.import_lodua()
    import lodua
    from lodua import towers
    counts, fired = Counter(), []
    saved = {name: getattr(towers, name) for name in ("_probe_lag", *_RULES)}

    def called(name):
        def rule(*args, **kwargs):
            fired.append(_RULES[name])
            return saved[name](*args, **kwargs)
        return rule

    def probe(tower):
        fired.clear()
        out = None
        try:
            out = saved["_probe_lag"](tower)
            return out
        finally:
            # a refusal counts under the rule that raised it, one raised
            # while the gate built its stages under "gate failed"
            rule = fired[0] if fired else (
                "no F_s" if out == (0, None) else "gate failed")
            counts[tower.kind, tower.ring.classify(), rule] += 1

    for name in _RULES:
        setattr(towers, name, called(name))
    towers._probe_lag = probe
    try:
        for _ in answers(lodua, ops, cold):
            pass
    finally:
        for name, fn in saved.items():
            setattr(towers, name, fn)
    return counts


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
                    help="clear the table of tower limits, the document "
                         "table and the span table before every op")
    ap.add_argument("--rules", action="store_true",
                    help="count the rule that decides each lag probe, per "
                         "tower kind and ring class")
    ns = ap.parse_args(argv)
    if ns.refs and ns.rules:
        ap.error("--refs and --rules are two different runs; pick one")
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
    if ns.rules:
        counts = rule_counts(ops, ns.cold)
        print(f"{ns.workload} seed {seed}: {len(ops)} ops, "
              f"{sum(counts.values())} lag probes")
        for (kind, ring, rule), n in sorted(counts.items()):
            print(f"{kind} {ring} {rule}: {n}")
        return 0
    (answered, count, queries, nforms, forms, nhoms, homs, nkers,
     kers) = fingerprint(ops, ns.cold)
    print(f"{ns.workload} seed {seed}: {len(ops)} ops, "
          f"answers sha256 {answered}")
    print(f"contains_in_relations: {count} queries, sha256 {queries}")
    print(f"smith: {nforms} forms, sha256 {forms}")
    print(f"homology: {nhoms} presentations, sha256 {homs}")
    print(f"kernels: {nkers} kernels, sha256 {kers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
