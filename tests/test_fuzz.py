"""The document contract under mutation: `resolve` on each fixture document
with one value of its `ring`, `ideal`, `modules`, `maps`, `descriptors`,
`complexes`, `towers`, `group`, `comodules` or `options` block replaced or
deleted (a block the fixture lacks is added), and `--recheck` of a real
`lcomplete-check` or `gm-check` report with one value replaced or deleted,
end with exit code 0, 1, 2 or 3, print no traceback and no `internal error:`
line, and print the same report when run again.
"""

import contextlib
import copy
import functools
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lodua.cli

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DOCUMENTS = ("c2-swap.json", "z-mod-p-infty.json", "z.json", "zp.json")
BLOCKS = ("ring", "ideal", "modules", "maps", "descriptors", "complexes",
          "towers", "group", "comodules", "options")

# keys of the schema and names of the fixtures, so a drawn object can look
# like a block entry; integers stay small, so that a drawn precision or
# generator count keeps each document cheap to resolve
_KEYS = ("base", "p", "vars", "quotient", "invert", "completion", "ideal",
         "precision", "generators", "relations", "kind", "module", "mult",
         "dim", "elements", "table", "action", "source", "target", "matrix",
         "modules", "diffs", "descriptor", "x", "s", "K", "lag", "budget",
         "A", "Z", "Zp", "e", "CA")
_STRINGS = ("x", "y", "x + y", "x*y", "5", "0", "-1", "", "5+", "x^",
            "(x", "z", "1/2", "xy", "x^9", "Z", "Q", "Fp", "fp", "telescope",
            "telescope_quotient", "rational", "adic", "mult", "tor", "A")
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                     st.sampled_from((0.5, 2.5, -1.0)),
                     st.sampled_from(_STRINGS))


def _values(keys, scalars):
    """Scalars, and lists and objects of them under the given keys."""
    return st.recursive(
        scalars,
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(st.sampled_from(keys), inner,
                                                max_size=3)),
        max_leaves=6)


_VALUES = _values(_KEYS, _SCALARS)
_DELETE = object()


def _load(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


@st.composite
def _mutations(draw):
    """(fixture, path, value): the path starts at a block and walks into
    objects and lists while the draw says so; the value replaces the one at
    the path, or deletes it."""
    name = draw(st.sampled_from(DOCUMENTS))
    path = [draw(st.sampled_from(BLOCKS))]
    _walk(draw, _load(name).get(path[0]), path)
    return name, path, draw(st.one_of(st.just(_DELETE), _VALUES))


def _walk(draw, node, path):
    """Extend path from node into objects and lists while the draw says so."""
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        path.append(draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node)))))
        node = node[path[-1]]


def _mutate(doc, path, value):
    """doc with the value at path replaced by value, or deleted."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is not _DELETE:
        parent[path[-1]] = value
    elif isinstance(parent, dict):
        parent.pop(path[-1], None)
    else:
        del parent[path[-1]]
    return doc


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lodua.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# documents refused when they are read, each with exit 3: an action that
# moves the inverted element, an identity entry that moves a variable, a
# completion ideal that the action does not preserve, a map whose matrix
# has the wrong shape, a complex with a degree key that is no integer, a
# tower of a kind a document cannot declare, and a budget option (the
# budget comes from LODUA_BUDGET)
_REFUSED = (
    ("c2-swap.json", ["ring", "invert"], "x"),
    ("c2-swap.json", ["group", "action", "e"], {"x": "y", "y": "x"}),
    ("c2-swap.json", ["ring", "completion"], {"ideal": ["x"], "precision": 3}),
    ("z.json", ["maps"], {"f": {"source": "Z", "target": "Z",
                                "matrix": [["1", "2"]]}}),
    ("z.json", ["complexes"], {"C": {"modules": {"a": "Z"}}}),
    ("z.json", ["towers"], {"t": {"kind": "koszul_stage"}}),
    ("c2-swap.json", ["options", "budget"], 10),
)


# the walk reaches a group or comodule action entry in about one draw of a
# thousand, so each is also run made a list, None, and under a key that
# names no group element
@settings(max_examples=200)
@given(_mutations())
@example(("c2-swap.json", ["group", "action", "s"], ["y", "x"]))
@example(("c2-swap.json", ["group", "action", "s"], None))
@example(("c2-swap.json", ["group", "action", "t"], {"x": "y", "y": "x"}))
@example(("c2-swap.json", ["comodules", "CA", "action", "s"], ["1"]))
@example(("c2-swap.json", ["comodules", "CA", "action", "s"], None))
@example(("c2-swap.json", ["comodules", "CA", "action", "t"], [["1"]]))
@example(_REFUSED[0])
@example(_REFUSED[1])
@example(_REFUSED[2])
@example(_REFUSED[3])
@example(_REFUSED[4])
@example(_REFUSED[5])
@example(_REFUSED[6])
def test_resolve_keeps_the_contract_on_mutated_documents(mutation):
    name, keys, value = mutation
    doc = _mutate(copy.deepcopy(_load(name)), keys, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out, err = _main("resolve", path)
        again = _main("resolve", path)
    assert code in (0, 1, 2, 3), (code, doc)
    if mutation in _REFUSED:
        assert (code, out) == (3, "") and err.startswith("invalid input: "), \
            (err, doc)
    assert "Traceback" not in err and "internal error:" not in err, (err, doc)
    assert again[:2] == (code, out), doc


# a real report of each verb whose certificate `--recheck` checks, and the
# keys and words of such reports
_REPORTS = {"zp.json": ("lcomplete-check", {}),
            "z-mod-p-infty.json": ("gm-check", {"s": 1})}
_REPORT_KEYS = ("version", "verb", "result", "verdict", "table", "status",
                "kind", "lim1_tor_next", "lim_tor", "witness", "i=1,q=0",
                "i=1,q=1")
_REPORT_VALUES = _values(_REPORT_KEYS, st.one_of(_SCALARS, st.sampled_from(
    ("1", "zero", "module", "exact", "complete", "not-complete",
     "lcomplete-check", "gm-check"))))


@functools.lru_cache(maxsize=None)
def _report_text(name):
    verb, args = _REPORTS[name]
    return json.dumps(lodua.cli.run(_load(name), verb, args)[1])


@st.composite
def _report_mutations(draw):
    """(fixture, path, value) as for ``_mutations``, the path starting at a
    key of the fixture's report."""
    name = draw(st.sampled_from(sorted(_REPORTS)))
    report = json.loads(_report_text(name))
    path = [draw(st.sampled_from(sorted(report)))]
    _walk(draw, report[path[0]], path)
    return name, path, draw(st.one_of(st.just(_DELETE), _REPORT_VALUES))


# an empty path replaces the whole report; these four ended in
# `internal error: AttributeError`, or checked nothing
@settings(max_examples=150)
@given(_report_mutations())
@example(("zp.json", [], [1, 2]))
@example(("z-mod-p-infty.json", ["result", "lim1_tor_next"], 5))
@example(("z.json", [], {"version": "1", "verb": "lcomplete-check",
                          "result": {"verdict": "complete",
                                     "table": {"i=1,q=0": 3,
                                               "i=1,q=1": 4}}}))
@example(("zp.json", ["result"], [1]))
def test_recheck_keeps_the_contract_on_mutated_reports(mutation):
    name, keys, value = mutation
    report = _mutate(json.loads(_report_text(name)), keys, value) if keys \
        else value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with open(path, "w") as fh:
            json.dump(report, fh)
        argv = ("resolve", os.path.join(FIXTURES, name), "--recheck", path)
        code, out, err = _main(*argv)
        again = _main(*argv)
    assert code in (0, 1, 2, 3), (code, report)
    assert "Traceback" not in err and "internal error:" not in err, (err, report)
    assert again[:2] == (code, out), report
