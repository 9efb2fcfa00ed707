"""The scripts under tools/ run end to end at a small size."""

import os
import re
import subprocess
import sys

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


def test_sameness_script_prints_repeatable_fingerprints():
    def run():
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "sameness.py"),
             "--workload", "integer-sweep", "--size", "4"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out = run()
    assert re.fullmatch(r"integer-sweep seed 1: 4 ops, answers sha256 "
                        r"[0-9a-f]{64}\n"
                        r"contains_in_relations: [1-9]\d* queries, "
                        r"sha256 [0-9a-f]{64}\n"
                        r"smith: [1-9]\d* forms, sha256 [0-9a-f]{64}\n", out)
    assert run() == out


def test_sameness_cold_run_gives_the_warm_answers():
    def lines(*flags):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "sameness.py"),
             "--workload", "integer-sweep", "--size", "16", *flags],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    warm, cold = lines(), lines("--cold")
    assert cold[0] == warm[0]
    # the cold run asks again what the warm one took from the table
    assert cold[1] != warm[1]


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
        *_, nforms, forms = sameness.fingerprint(ops)
        assert linalg._smith is counted  # the tool puts back what it wrapped
    finally:
        linalg._smith = smith
    assert nforms == len(calls) > 0
    assert re.fullmatch(r"[0-9a-f]{64}", forms)


def test_sameness_lists_the_ops_that_differ_from_the_refs(capsys):
    """--refs agrees with perfbench/refs/ on this tree and names an op whose
    recorded answer was changed (in memory: perfbench/ is only read)."""
    import importlib.util
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "sameness.py"),
         "--workload", "completed-grid", "--refs"],
        capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, (
        "completed-grid seed 1: 18 ops, 0 differ from "
        "perfbench/refs/completed-grid.json\n")), proc.stderr
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
