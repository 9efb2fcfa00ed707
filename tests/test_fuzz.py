"""The document contract under mutation: `resolve` on each fixture document
with one value of its `ring`, `ideal`, `modules`, `descriptors`, `group` or
`comodules` block replaced or deleted ends with exit code 0, 1, 2 or 3,
prints no traceback and no `internal error:` line, and prints the same
report when run again.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lodua.cli

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DOCUMENTS = ("c2-swap.json", "z-mod-p-infty.json", "z.json", "zp.json")
BLOCKS = ("ring", "ideal", "modules", "descriptors", "group", "comodules")

# keys of the schema and names of the fixtures, so a drawn object can look
# like a block entry; integers stay small, so that a drawn precision or
# generator count keeps each document cheap to resolve
_KEYS = ("base", "p", "vars", "quotient", "invert", "completion", "ideal",
         "precision", "generators", "relations", "kind", "module", "mult",
         "dim", "elements", "table", "action", "A", "Z", "Zp", "e", "s",
         "CA")
_STRINGS = ("x", "y", "x + y", "x*y", "5", "0", "-1", "", "5+", "x^",
            "(x", "z", "1/2", "xy", "x^9", "Z", "Q", "Fp", "fp", "telescope",
            "telescope_quotient", "rational", "A")
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                     st.sampled_from((0.5, 2.5, -1.0)),
                     st.sampled_from(_STRINGS))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(_KEYS), inner,
                                            max_size=3)),
    max_leaves=6)
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
    node = _load(name).get(path[0])
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        path.append(draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node)))))
        node = node[path[-1]]
    return name, path, draw(st.one_of(st.just(_DELETE), _VALUES))


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


def _resolve(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lodua.cli.main(["resolve", path])
    return code, out.getvalue(), err.getvalue()


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
def test_resolve_keeps_the_contract_on_mutated_documents(mutation):
    name, keys, value = mutation
    doc = _mutate(copy.deepcopy(_load(name)), keys, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out, err = _resolve(path)
        again = _resolve(path)
    assert code in (0, 1, 2, 3), (code, doc)
    assert "Traceback" not in err and "internal error:" not in err, (err, doc)
    assert again[:2] == (code, out), doc
