"""List the statement lines of ``src/lodua`` that nothing executes.

    python3 tools/linecov.py

Traces lines with the standard library's ``sys.settrace`` (``coverage`` is
not needed) while two things run, in this process and in every Python
process they start: the tier-1 tests, by ``pytest.main``, and the seed-1
op lists of the three benchmark workloads, through the runner of
``tools/sameness.py``.
Then it prints, for each module of ``src/lodua``, the statement lines no
traced call executed, as ranges, and the functions never called, as
``Class.method``:

    sequences.py: 3 of 36 statements not executed
      22, 24, 35
      never called: RegularityVerdict.describe

A statement counts as executed when any line of its header ran (the whole
statement for a simple one, up to the body for a compound one), and a
function as called when a line of its body after the docstring ran.
Child interpreters are traced too (the tests that start the CLI, the demos
and the tools run in subprocesses): while the tracer runs, a directory
with a ``sitecustomize.py`` comes first on ``PYTHONPATH``, so every Python
child started meanwhile, and its own children, trace themselves and write
their lines to that directory when they exit; the tracer merges them.  A
child that is killed writes nothing.  Tracing slows the run down several
times.  Run from the root of a lodua checkout.
"""

import argparse
import ast
import atexit
import importlib.util
import json
import os
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "lodua")
WORKLOADS = ("completed-grid", "integer-sweep", "poly-sweep")
# the sitecustomize.py of the traced children: it loads this file by path
SITECUSTOMIZE = """\
import importlib.util, os
_spec = importlib.util.spec_from_file_location("linecov", {linecov!r})
_linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_linecov)
_linecov.trace_child(os.path.dirname(os.path.abspath(__file__)), {traced!r})
"""


class LineTracer:
    """The lines executed in files under one directory, per file, by this
    process and, as a context manager, by the Python children started
    while it traces."""

    def __init__(self, directory=SRC):
        self.prefix = os.path.realpath(directory) + os.sep
        self.hits = {}      # real path -> set of line numbers
        self._wanted = {}   # code object -> its hit set, or None

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code not in self._wanted:
            path = os.path.realpath(code.co_filename)
            self._wanted[code] = self.hits.setdefault(path, set()) \
                if path.startswith(self.prefix) else None
        lines = self._wanted[code]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def start(self):
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])

    def __enter__(self):
        self._children = tempfile.TemporaryDirectory()
        with open(os.path.join(self._children.name, "sitecustomize.py"),
                  "w") as fh:
            fh.write(SITECUSTOMIZE.format(linecov=os.path.abspath(__file__),
                                          traced=self.prefix))
        self._pythonpath = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [self._children.name] + [p for p in [self._pythonpath] if p])
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        if self._pythonpath is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = self._pythonpath
        with self._children as directory:
            for name in os.listdir(directory):
                if name.endswith(".json"):
                    with open(os.path.join(directory, name)) as fh:
                        for path, lines in json.load(fh).items():
                            self.hits.setdefault(path, set()).update(lines)


def trace_child(out, traced):
    """Trace the files under ``traced`` in this interpreter, and at its exit
    write their lines to a new file in ``out`` (run by the children's
    sitecustomize.py)."""
    tracer = LineTracer(traced)
    tracer.start()

    def write():
        tracer.stop()
        fd, _ = tempfile.mkstemp(".json", dir=out)
        with os.fdopen(fd, "w") as fh:
            json.dump({path: sorted(lines)
                       for path, lines in tracer.hits.items()}, fh)
    atexit.register(write)


def statements(source):
    """{first line: header lines} for each statement that runs code."""
    nodes = list(ast.walk(ast.parse(source)))
    docstrings = {id(node.body[0]) for node in nodes
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and _is_docstring(node.body[0])}
    out = {}
    for node in nodes:
        # global and nonlocal compile to nothing, and `try:` to no line
        if not isinstance(node, ast.stmt) or id(node) in docstrings or \
                isinstance(node, (ast.Global, ast.Nonlocal, ast.Try)):
            continue
        body = getattr(node, "body", None)
        first = _first_line(node)
        if isinstance(body, list) and body:
            last = body[0].lineno - 1
        else:
            last = node.end_lineno
        out[first] = range(first, max(first, last) + 1)
    return out


def _first_line(node):
    """A statement's first line, its decorators included."""
    return min([node.lineno] + [d.lineno for d in
                                getattr(node, "decorator_list", [])])


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def missed(path, hits):
    """(statement count, first lines of the statements never executed)."""
    with open(path) as fh:
        stmts = statements(fh.read())
    return len(stmts), sorted(first for first, header in stmts.items()
                              if not hits.intersection(header))


def never_called(path, hits):
    """Names, as ``Class.method``, of the functions of which no line after
    the docstring ran, in source order."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[1:] if _is_docstring(child.body[0]) \
                    else child.body
                # no body line runs before a call, not even a nested def's
                if body and not hits.intersection(
                        range(_first_line(body[0]), child.end_lineno + 1)):
                    out.append(prefix + child.name)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                name = prefix + child.name + "."
            visit(child, name)
    visit(tree, "")
    return out


def ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(tracer):
    """One block per module of ``src/lodua``."""
    lines = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(SRC, name))
        hits = tracer.hits.get(path, set())
        total, never = missed(path, hits)
        lines.append(f"{name}: {len(never)} of {total} statements not "
                     "executed")
        if never:
            lines.append("  " + ranges(never))
        uncalled = never_called(path, hits)
        if uncalled:
            lines.append("  never called: " + ", ".join(uncalled))
    return "\n".join(lines)


def run_op_lists():
    spec = importlib.util.spec_from_file_location(
        "sameness", os.path.join(HERE, "sameness.py"))
    sameness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sameness)
    for workload in WORKLOADS:
        sameness.fingerprint(sameness.workloads.generate(workload, 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.parse_args(argv)
    # run as a script, this file's directory comes first on the path, where
    # tools/profile.py would shadow the standard library's ``profile``
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # the tests that start a child interpreter import lodua from src too,
    # as under the tier-1 command
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    with LineTracer() as tracer:
        import pytest
        pytest.main(["-q", "-p", "no:cacheprovider",
                     os.path.join(ROOT, "tests")])
        run_op_lists()
    print(report(tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
