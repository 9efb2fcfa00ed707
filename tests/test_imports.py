"""Imports inside functions are kept for breaking import cycles only."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "lodua")


def _parsed_modules():
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                out[name[:-3]] = ast.parse(fh.read())
    return out


def _relative(node):
    return isinstance(node, ast.ImportFrom) and node.level == 1 \
        and node.module is not None


def _function_imports(tree):
    """{(imported module, line)} of every ``from .x import`` in a function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((inner.module, inner.lineno)
                         for inner in ast.walk(node) if _relative(inner))
    return found


def _reaches(top, start, goal):
    """Whether `start` imports `goal` through a chain of top-level imports."""
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name == goal:
            return True
        if name not in seen:
            seen.add(name)
            todo.extend(top.get(name, ()))
    return False


def test_function_level_imports_break_cycles():
    # `from .x import` inside a function of module m is needed only when x
    # reaches m through top-level imports (m -> x -> ... -> m would fail
    # at import time); anywhere else it belongs at the top of m
    modules = _parsed_modules()
    top = {name: {node.module for node in tree.body if _relative(node)}
           for name, tree in modules.items()}
    needless = sorted(f"{name}.py:{line} imports .{target}"
                      for name, tree in modules.items()
                      for target, line in _function_imports(tree)
                      if not _reaches(top, target, name))
    assert needless == []


def test_a_longer_cycle_counts():
    top = {"m": {"a"}, "a": {"b"}, "b": {"m"}, "c": set()}
    assert _reaches(top, "a", "m")
    assert not _reaches(top, "c", "m")
    assert not _reaches(top, "m", "c")


def test_the_layers_under_ring_import_no_ring():
    # ring asks linalg for its lifts and syzygies, so linalg and the layers
    # under it import nothing from ring, at the top or in a function
    imports = {name: {node.module for node in ast.walk(tree) if _relative(node)}
               for name, tree in _parsed_modules().items()}
    assert [name for name in ("poly", "groebner", "linalg")
            if _reaches(imports, name, "ring")] == []
