"""The scripts under tools/ run end to end at a small size."""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_curves_script_prints_one_line_per_point():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "curves.py"),
         "--vars", "2", "--rank", "2", "--N", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"Q\[\[x,y\]\] rank 2 N 2: complete in \d+\.\d\d s\n",
                        proc.stdout)


def test_profile_script_prints_verbs_and_functions():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "profile.py"),
         "--workload", "poly-sweep", "--size", "2", "--top", "5"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"poly-sweep seed 1: 2 ops, \d+\.\d\d s profiled, "
                        r"0 raised an internal error", lines[0])
    assert re.fullmatch(r"  localhom +2 ops +\d+\.\d{3} s", lines[1])
    assert "function calls" in proc.stdout
    assert "lodua/cli.py" in proc.stdout


def test_profile_script_profiles_one_verb():
    # the three localhom ops before it still run, unprofiled
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "profile.py"),
         "--workload", "poly-sweep", "--size", "4", "--verb", "complete",
         "--sort", "ncalls", "--top", "5"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"poly-sweep seed 1: 4 ops \(1 complete profiled\), "
                        r"\d+\.\d\d s profiled, 0 raised an internal error",
                        lines[0])
    assert re.fullmatch(r"  complete +1 ops +\d+\.\d{3} s", lines[1])
    assert lines[2] == ""
    assert "Ordered by: call count" in proc.stdout


def test_profile_script_prints_self_time_by_module():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "profile.py"),
         "--workload", "poly-sweep", "--size", "2", "--top", "1",
         "--by-module"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = lines.index("self time by module:")
    assert start == 3 and lines[start - 1] == ""   # after the verb lines
    rows = []
    for line in lines[start + 1:lines.index("", start)]:
        m = re.fullmatch(r"  (\S+) +(\d+\.\d{3}) s +(\d+\.\d)%", line)
        assert m, line
        rows.append((m[1], float(m[2]), float(m[3])))
    names = [name for name, _, _ in rows]
    assert len(set(names)) == len(names)
    assert {"lodua.groebner", "lodua.poly", "builtins"} <= set(names)
    assert all(re.fullmatch(r"lodua\.\w+|fractions|builtins|other", name)
               for name in names)
    assert [s for _, s, _ in rows] == sorted((s for _, s, _ in rows),
                                             reverse=True)
    assert abs(sum(share for _, _, share in rows) - 100) < 1


def test_profile_script_names_the_slowest_ops():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "profile.py"),
         "--workload", "integer-sweep", "--size", "20", "--top", "1",
         "--slowest", "12"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # perfbench/run.py's tail of 20 latencies is the 10th smallest, the
    # 11th slowest
    start = lines.index("slowest 12 of 20 profiled ops "
                        "(op_tail_ms reads rank 11):")
    assert lines[start - 1] == ""   # after the verb lines
    rows = lines[start + 1:lines.index("", start)]
    assert len(rows) == 12
    parsed = []
    for rank, line in enumerate(rows, 1):
        m = re.fullmatch(r" +(\d+) op +(\d+) (\S+) +(\d+\.\d{3}) ms  (\{.*\})"
                         r"(  <- op_tail_ms)?", line)
        assert m, line
        assert int(m[1]) == rank
        assert bool(m[6]) == (rank == 11)
        parsed.append((int(m[2]), m[3], float(m[4]), json.loads(m[5])))
    assert len({index for index, _, _, _ in parsed}) == 12
    assert all(0 <= index < 20 for index, _, _, _ in parsed)
    times = [ms for _, _, ms, _ in parsed]
    assert times == sorted(times, reverse=True)
    # the arguments are the op's own
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    ops = workloads.generate("integer-sweep", 1, 20)
    assert all((ops[index]["verb"], ops[index]["args"]) == (verb, args)
               for index, verb, _, args in parsed)


def test_profile_script_profiles_a_latency_band():
    # ranks 8..11 of 20 (quantiles 8/19..11/19) lie in [0.4, 0.6]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "profile.py"),
         "--workload", "integer-sweep", "--size", "20", "--top", "1",
         "--band", "0.4", "0.6", "--slowest", "20"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"integer-sweep seed 1: 20 ops \(4 in the latency "
                        r"band 0\.4-0\.6 profiled\), \d+\.\d\d s profiled, "
                        r"0 raised an internal error", lines[0])
    start = lines.index("slowest 4 of 4 profiled ops:")
    counts = [int(re.fullmatch(r"  \S+ +(\d+) ops +\d+\.\d{3} s", line)[1])
              for line in lines[1:start - 1]]
    assert sum(counts) == 4
    assert len(lines[start + 1:lines.index("", start)]) == 4


def test_profile_latency_band_reads_ranks_as_quantiles():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "lodua_profile", os.path.join(ROOT, "tools", "profile.py"))
    profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profile)
    latencies = [0.5, 0.1, 0.9, 0.3, 0.7]   # ranks 2, 0, 4, 1, 3
    assert profile.latency_band(latencies, 0.4, 0.6) == {0}
    assert profile.latency_band(latencies, 0.25, 0.75) == {0, 3, 4}
    assert profile.latency_band(latencies, 0, 1) == set(range(5))
    assert profile.latency_band([0.2], 0, 0) == {0}


def test_sameness_script_prints_repeatable_fingerprints():
    def run():
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "sameness.py"),
             "--workload", "integer-sweep", "--size", "8"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out = run()
    assert re.fullmatch(r"integer-sweep seed 1: 8 ops, answers sha256 "
                        r"[0-9a-f]{64}\n"
                        r"contains_in_relations: \d+ queries, "
                        r"sha256 [0-9a-f]{64}\n"
                        r"smith: [1-9]\d* forms, sha256 [0-9a-f]{64}\n"
                        r"homology: [1-9]\d* presentations, "
                        r"sha256 [0-9a-f]{64}\n"
                        r"kernels: [1-9]\d* kernels, "
                        r"sha256 [0-9a-f]{64}\n", out)
    assert run() == out


def test_sameness_script_counts_the_lag_rules():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "sameness.py"),
         "--workload", "integer-sweep", "--size", "40", "--rules"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    head, *lines = proc.stdout.splitlines()
    probes = re.fullmatch(r"integer-sweep seed 1: 40 ops, (\d+) lag probes",
                          head)
    counts = {}
    for line in lines:
        kind, ring, rule, n = re.fullmatch(
            r"(tor|koszul_stage) (\w+) (no F_s|gate failed|invariant factors"
            r"|stage cycles|materialized): (\d+)", line).groups()
        counts[kind, ring, rule] = int(n)
    assert sum(counts.values()) == int(probes[1]) > 0
    # over Z and Z_p no Tor tower is materialized; the Koszul-stage towers
    # that Lambda asks over Z_5 are
    assert ("tor", "int", "invariant factors") in counts
    assert {key for key in counts if key[2] == "materialized"} == {
        ("koszul_stage", "int_completed", "materialized")}


def test_sameness_cold_run_gives_the_warm_answers():
    def lines(workload, size, *flags):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "sameness.py"),
             "--workload", workload, "--size", size, *flags],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    # the cold run asks again what the warm one took from the tables: over
    # Z and Z_5 it builds again the Smith forms the span table kept (its
    # zero tests read them, so the first 16 integer-sweep ops ask the same
    # membership questions warm and cold); over Q[x,y] and F_7[x,y] it asks
    # membership again, which in the first 16 poly-sweep ops no table saves
    for workload, size, line in (("integer-sweep", "16", 2),
                                 ("poly-sweep", "48", 1)):
        warm, cold = lines(workload, size), lines(workload, size, "--cold")
        assert cold[0] == warm[0]
        assert cold[line] != warm[line]


def test_an_answer_does_not_depend_on_the_ops_before_it():
    """The first 160 integer-sweep ops at seed 1 (ten documents, five of
    them over Z_5, with localhom and gm-check of Z_5^2/(20, 50) at ops 114
    and 121) answer the same with the tables of tower limits, documents and
    spans cleared before every op as in one warm pass."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "sameness", os.path.join(ROOT, "tools", "sameness.py"))
    sameness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sameness)
    ops = sameness.workloads.generate("integer-sweep", 1, 160)
    docs = {json.dumps(op["doc"], sort_keys=True) for op in ops}
    assert len(docs) == 10
    assert sum("completion" in json.loads(doc)["ring"] for doc in docs) == 5
    sameness.worker.import_lodua()
    import lodua
    warm = list(sameness.answers(lodua, ops))
    cold = list(sameness.answers(lodua, ops, cold=True))
    assert warm[114][0] == warm[121][0] == 0
    assert cold == warm


def test_sameness_hashes_every_smith_form():
    import importlib.util
    from lodua import linalg
    spec = importlib.util.spec_from_file_location(
        "sameness", os.path.join(ROOT, "tools", "sameness.py"))
    sameness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sameness)
    calls = []
    smith = linalg._smith

    def counted(ar, D):
        calls.append(len(D))
        return smith(ar, D)

    linalg._smith = counted
    try:
        linalg._span.cache_clear()
        ops = sameness.workloads.generate("integer-sweep", 1, 4)
        nforms, forms = sameness.fingerprint(ops)[3:5]
        assert linalg._smith is counted  # the tool puts back what it wrapped
    finally:
        linalg._smith = smith
    assert nforms == len(calls) > 0
    assert re.fullmatch(r"[0-9a-f]{64}", forms)


def test_sameness_hashes_every_homology_presentation():
    import importlib.util
    from lodua.complexes import ChainComplex
    spec = importlib.util.spec_from_file_location(
        "sameness", os.path.join(ROOT, "tools", "sameness.py"))
    sameness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sameness)
    made = []
    homology = ChainComplex._homology_data

    def counted(C, n):
        made.append(homology(C, n))
        return made[-1]

    ops = sameness.workloads.generate("integer-sweep", 1, 12)
    ChainComplex._homology_data = counted
    try:
        sameness.worker.import_lodua()
        import lodua
        lodua.towers._presented_limits.cache_clear()
        lodua.cli._parsed.cache_clear()
        lodua.linalg._span.cache_clear()
        nhoms, homs = sameness.fingerprint(ops)[5:7]
        # the tool puts back what it wrapped
        assert ChainComplex._homology_data is counted
    finally:
        ChainComplex._homology_data = homology
    assert nhoms == len(made) > 0
    assert re.fullmatch(r"[0-9a-f]{64}", homs)
    # the same run hashes the same presentations
    lodua.towers._presented_limits.cache_clear()
    lodua.cli._parsed.cache_clear()
    lodua.linalg._span.cache_clear()
    assert sameness.fingerprint(ops)[5:7] == (nhoms, homs)


def test_sameness_hashes_every_kernel():
    """Every ModuleMap.kernel call is hashed, homology's and the others',
    and the same run hashes the same kernels."""
    import importlib.util
    from lodua.modules import ModuleMap
    spec = importlib.util.spec_from_file_location(
        "sameness", os.path.join(ROOT, "tools", "sameness.py"))
    sameness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sameness)
    sameness.worker.import_lodua()
    import lodua
    made = []
    kernel = ModuleMap.kernel

    def counted(f):
        made.append(kernel(f))
        return made[-1]

    def clear():
        lodua.towers._presented_limits.cache_clear()
        lodua.cli._parsed.cache_clear()
        lodua.linalg._span.cache_clear()

    ops = sameness.workloads.generate("poly-sweep", 1, 6)
    ModuleMap.kernel = counted
    try:
        clear()
        nkers, kers = sameness.fingerprint(ops)[7:]
        # the tool puts back what it wrapped
        assert ModuleMap.kernel is counted
    finally:
        ModuleMap.kernel = kernel
    assert nkers == len(made) > 0
    assert re.fullmatch(r"[0-9a-f]{64}", kers)
    clear()
    assert sameness.fingerprint(ops)[7:] == (nkers, kers)


_SEED_1_OPS = {"completed-grid": 18, "integer-sweep": 800, "poly-sweep": 105}


@pytest.mark.parametrize("workload", sorted(_SEED_1_OPS))
def test_sameness_finds_every_answer_in_the_refs(workload):
    """--refs agrees with perfbench/refs/ on this tree, on every workload: a
    change that moves a recorded body fails here, not only in the
    benchmark's ``ok_frac``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "sameness.py"),
         "--workload", workload, "--refs"],
        capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, (
        f"{workload} seed 1: {_SEED_1_OPS[workload]} ops, 0 differ from "
        f"perfbench/refs/{workload}.json\n")), proc.stderr


def test_sameness_lists_the_ops_that_differ_from_the_refs(capsys):
    """--refs names an op whose recorded answer was changed (in memory:
    perfbench/ is only read)."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "sameness", os.path.join(ROOT, "tools", "sameness.py"))
    sameness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sameness)
    refs = sameness.run.load_refs("completed-grid")
    code, sha = refs["answers"][5]
    refs["answers"][5] = [code + 1, sha]
    load, sameness.run.load_refs = sameness.run.load_refs, lambda w: refs
    try:
        assert sameness.main(["--workload", "completed-grid", "--refs"]) == 1
    finally:
        sameness.run.load_refs = load
    assert capsys.readouterr().out == (
        f"op 5 grid: exit {code} sha256 {sha}, reference exit {code + 1} "
        f"sha256 {sha}\n"
        "completed-grid seed 1: 18 ops, 1 differ from "
        "perfbench/refs/completed-grid.json\n")


def test_linecov_traces_one_small_call(ZZ):
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "linecov", os.path.join(ROOT, "tools", "linecov.py"))
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    from lodua import sequences
    with linecov.LineTracer() as tracer:
        assert sequences.is_regular_sequence(ZZ, [5]).regular
    path = os.path.realpath(sequences.__file__)
    total, never = linecov.missed(path, tracer.hits[path])
    with open(path) as fh:
        source = fh.read().splitlines()

    def line(text):
        return next(n for n, s in enumerate(source, 1) if text in s)

    assert 0 < len(never) < total
    assert line("K, incl = scalar_map") not in never
    assert line("return RegularityVerdict(True") not in never
    assert line("return RegularityVerdict(False, stage=i + 1") in never
    assert line("raise InvalidInput") in never
    uncalled = linecov.never_called(path, tracer.hits[path])
    assert "RegularityVerdict.describe" in uncalled
    assert "is_regular_sequence" not in uncalled
    assert "RegularityVerdict.__init__" not in uncalled
    assert linecov.ranges([3, 4, 5, 9]) == "3-5, 9"


def test_linecov_traces_child_interpreters():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "linecov", os.path.join(ROOT, "tools", "linecov.py"))
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    from lodua import sequences
    child = ("import sys; sys.path.insert(0, sys.argv[1])\n"
             "from lodua import InvalidInput, make_ring, sequences\n"
             "try:\n"
             "    sequences.is_regular_sequence(make_ring({'base': 'Z'}), [])\n"
             "except InvalidInput:\n"
             "    pass\n")
    with linecov.LineTracer() as tracer:
        subprocess.run([sys.executable, "-c", child, os.path.join(ROOT, "src")],
                       check=True, timeout=300)
    path = os.path.realpath(sequences.__file__)
    with open(path) as fh:
        source = fh.read().splitlines()
    refusal = next(n for n, s in enumerate(source, 1)
                   if 'raise InvalidInput("need a nonempty' in s)
    assert refusal not in linecov.missed(path, tracer.hits.get(path, set()))[1]


def test_counted_methods_sit_in_their_own_class():
    """perfbench's CallCounter patches each method it counts in its class's
    own __dict__; a method inherited, renamed or moved would stop being
    counted without an error.  COUNTED is read from the file, unchanged."""
    import ast
    import importlib
    with open(os.path.join(ROOT, "perfbench", "spans.py")) as fh:
        tree = ast.parse(fh.read())
    counted = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["COUNTED"])
    assert counted
    for _, modname, clsname, attrs in counted:
        cls = getattr(importlib.import_module(modname), clsname)
        for attr in attrs:
            assert attr in vars(cls), f"{clsname}.{attr}"


def test_pairs_script_records_alternating_runs(tmp_path):
    """One pair of smoke runs on one tree: both runs land in --out in the
    BENCH runs format, and every end-to-end metric gets its summary line."""
    import json
    out = tmp_path / "pairs.json"
    out.write_text(json.dumps({"pr": 0}))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "pairs.py"),
         "--parent", ROOT, "--change", ROOT, "--workload", "poly-sweep",
         "--pairs", "1", "--size", "4", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["pr"] == 0
    assert [(r["pair"], r["side"], r["seed"], r["trace"])
            for r in record["runs"]] == [(1, "parent", 1, 0),
                                         (1, "change", 1, 0)]
    assert all(r["result"]["correct"] and r["result"]["attempted"] % 4 == 0
               for r in record["runs"])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    lines = proc.stdout.splitlines()
    assert lines[0] == "poly-sweep seed 1: 1 pairs"
    # each summary line is followed by its change/parent ratio line
    for name, line, ratio in zip(names, lines[1::2], lines[2::2],
                                 strict=True):
        assert re.fullmatch(
            rf"{name}: parent \S+ \[\S+, \S+\], change \S+ \[\S+, \S+\], "
            r"change wins [01]/1, median gap \S+ (>|<=) parent IQR 0; "
            r"(worse|unresolved|no regression)", line)
        assert re.fullmatch(r"  change/parent: median (\S+) \[\1, \1\] "
                            r"over 1 pairs", ratio), ratio


def test_pairs_script_refuses_trees_with_different_bytecode(tmp_path):
    """A tree whose src/lodua/__pycache__ holds bytecode for this interpreter
    that the other lacks is refused before any run."""
    import json
    for name in ("parent", "change"):
        folder = tmp_path / name / "src" / "lodua" / "__pycache__"
        folder.mkdir(parents=True)
        # another interpreter's bytecode does not count
        (folder / "towers.cpython-00.pyc").write_bytes(b"")
    tag = sys.implementation.cache_tag
    (tmp_path / "change" / "src" / "lodua" / "__pycache__" /
     f"towers.{tag}.pyc").write_bytes(b"")
    out = tmp_path / "pairs.json"
    out.write_text(json.dumps({"pr": 0}))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "pairs.py"),
         "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--workload", "poly-sweep",
         "--pairs", "1", "--size", "4", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"pairs: the trees' src/lodua/__pycache__ differ in 1 bytecode files "
        f"(towers.{tag}.pyc): compile both trees or neither\n")
    assert json.loads(out.read_text()) == {"pr": 0}


def test_pairs_summary_gives_a_regression_verdict():
    """Each verdict of the no-regression rule, on synthetic runs of a
    lower-is-better metric and a higher-is-better one, both of bound 0.25."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "tools", "pairs.py"))
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    metrics = [{"name": "t", "better": "lower", "bound": 0.25},
               {"name": "q", "better": "higher", "bound": 0.25}]

    def verdicts(parent, change):
        runs = [{"pair": p, "side": side,
                 "result": {"metrics": {"t": {"value": v},
                                        "q": {"value": 2 / v}}}}
                for side, values in (("parent", parent), ("change", change))
                for p, v in enumerate(values, 1)]
        return [line.rsplit("; ", 1)[1] for line in pairs.summary(runs, metrics)]

    steady = [1.0, 1.0, 1.01, 0.99, 1.0]
    # the median 1.3 is 30% worse, and 2/1.3 is 23% worse than 2
    assert verdicts(steady, [1.3] * 5) == ["worse", "no regression"]
    assert verdicts(steady, [1.2] * 5) == ["no regression", "no regression"]
    assert verdicts(steady, [1.6] * 5) == ["worse", "worse"]
    # a spread of 0.4 around the median 1 is wider than the bound
    noisy = [0.6, 0.8, 1.0, 1.2, 1.4]
    assert verdicts(noisy, [1.0] * 5) == ["unresolved", "unresolved"]
    # unless every change run beats every parent run
    assert verdicts(noisy, [0.5] * 5) == ["no regression", "no regression"]


def test_pairs_ratios_cancel_a_drift_shared_by_a_pair():
    """The per-pair change/parent ratio: a host drift that moves both runs
    of a pair leaves it steady, and a zero parent value is left out."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "tools", "pairs.py"))
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    metrics = [{"name": "t", "better": "lower", "bound": 0.25},
               {"name": "z", "better": "lower", "bound": 0.25}]
    parent, change = [1.0, 2.0, 1.0, 2.0, 1.5], [0.9, 1.8, 0.9, 1.8, 1.35]
    zeros = [0.0, 0.0, 1.0, 0.0, 0.0]
    runs = [{"pair": p, "side": side,
             "result": {"metrics": {"t": {"value": v}, "z": {"value": z}}}}
            for side, values in (("parent", parent), ("change", change))
            for p, (v, z) in enumerate(zip(values, zeros), 1)]
    # the sides overlap, so the summary alone shows no clear gain
    assert "median gap 0.15 <= parent IQR 1" in pairs.summary(runs,
                                                              metrics)[0]
    assert pairs.ratios(runs, metrics) == [
        "  change/parent: median 0.9 [0.9, 0.9] over 5 pairs",
        "  change/parent: median 1 [1, 1] over 1 pairs"]
    runs = [r for r in runs if r["pair"] != 3]
    assert pairs.ratios(runs, metrics)[1] == (
        "  change/parent: no pair with a nonzero parent value")


def test_sameness_diff_groups_the_ops_one_change_moves(tmp_path):
    """Two copies of the tree that differ in one ``basis`` string: --diff
    lists the two integer-sweep ops among the first 40 that print it (both
    `lcomplete-check` over Q), in one group with one diff."""
    import shutil
    trees = []
    for name in ("parent", "child"):
        tree = tmp_path / name
        for part in ("src", "perfbench", "tools"):
            shutil.copytree(os.path.join(ROOT, part), tree / part,
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          "out"))
        trees.append(tree)
    towers = trees[1] / "src" / "lodua" / "towers.py"
    text = towers.read_text()
    assert text.count('basis="x invertible on Q"') == 2
    towers.write_text(text.replace('basis="x invertible on Q"',
                                   'basis="x is invertible on Q"'))
    proc = subprocess.run(
        [sys.executable, str(trees[1] / "tools" / "sameness.py"),
         "--workload", "integer-sweep", "--size", "40",
         "--diff", str(trees[0])],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "group 1: 2 ops: 11 lcomplete-check, 27 lcomplete-check"
    assert lines[1:3] == ["--- parent", "+++ this tree"]
    moved = [line for line in lines[3:-1] if line[0] in "+-"]
    assert moved == ['-        "basis": "x invertible on Q",',
                     '+        "basis": "x is invertible on Q",',
                     '-        "basis": "x invertible on Q",',
                     '+        "basis": "x is invertible on Q",']
    assert not any(line.startswith("group ") for line in lines[1:])
    assert lines[-1] == (f"integer-sweep seed 1: 40 ops, 2 differ from "
                         f"{trees[0]}, in 1 groups")
