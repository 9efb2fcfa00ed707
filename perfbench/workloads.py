"""Seeded op lists for the three benchmark workloads.

Every op is a plain JSON-serialisable dict, so the generator imports nothing
from lodua and a seed always yields the same list.  Two kinds of op exist:

* ``grid``: ``lodua.is_L_complete(FPObj(M), IdealData(A, ["x", "y"]),
  precision=N)`` with M over Q[[x,y]] or F_7[[x,y]]; the CLI cannot pose this
  question (see NOTES.md), so the library is called directly.
* ``cli``: ``lodua.cli.run(doc, verb, args)`` on a generated document.

The shape of each list (which verbs, how many ops, which rings, which
modules up to units) is fixed; the seed draws the units that scale
relations and entries, so run-to-run cost stays comparable across seeds.
The one exception is the shape of the integer-sweep's second module N.
"""

import random

WORKLOADS = ("completed-grid", "integer-sweep", "poly-sweep")

# ops per round of each sweep; a smoke run passes a smaller limit
SWEEP_SIZE = {"integer-sweep": 800, "poly-sweep": 105}


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# -- completed-grid ---------------------------------------------------------

def _unit(rng, base):
    """A unit drawn by the seed: -1 or 1 over Q, so that coefficients do not
    grow, and any of 1-6 over F_7."""
    return rng.choice((1, -1)) if base == "Q" else rng.randint(1, 6)


def _times(c, a, base):
    return str(c * a % 7 if base == "Fp" else c * a)


def _linear_form(shape, rng, base, top=6, c=None):
    """c*(a*x + b*y) with a, b nonzero and a != b: a generic line.  a = b
    gives a multiple of x + y, which lies in the poly-sweep ideal
    (x + y, xy) and made its documents cost a third more.

    ``shape`` (the same at every seed) draws a and b, and ``rng`` (the
    seed's) the unit c, unless it is given.  So every seed poses the same
    modules, each relation scaled by a unit, and the work does not depend on
    the seed.
    """
    a = shape.randint(1, top)
    b = shape.choice([v for v in range(1, top + 1) if v != a])
    c = _unit(rng, base) if c is None else c
    return f"{_times(c, a, base)}*x+{_times(c, b, base)}*y"


def _grid_op(label, base, N, ngens, relations=()):
    return {"kind": "grid", "label": label, "base": base, "N": N,
            "ngens": ngens, "relations": [list(r) for r in relations]}


def completed_grid(seed):
    """Free modules for the N / rank curve plus cyclic modules.

    The curve is the free module of rank 1 over Q at N = 2, 3, 4 and of
    rank 2 at N = 2, so that rank2 and N2 differ in the rank alone.

    The cyclic modules have one generic linear relation (small coefficients
    over Q, where they would grow) scaled by a seeded unit, so their cost
    varies little from seed to seed.  Two are at N = 3, one over each base; the other twelve are at
    N = 2, nine over Q and three over F_7, which cost less.  The median and
    the tail (the eighth fastest of 18, the highest with ten ops beyond it)
    both fall amid the nine cyclic modules over Q at N = 2, so neither
    jumps between op groups.
    """
    rng, shape = _rng("completed-grid", seed), _rng("completed-grid", "shape")
    ops = [_grid_op("N2", "Q", 2, 1), _grid_op("N3", "Q", 3, 1),
           _grid_op("N4", "Q", 4, 1), _grid_op("rank2", "Q", 2, 2)]
    for base, N in (("Fp", 3), ("Q", 3)) + (("Q", 2), ("Q", 2), ("Fp", 2),
                                            ("Q", 2)) * 3:
        top = 3 if base == "Q" else 6
        ops.append(_grid_op("random", base, N, 1,
                            [[_linear_form(shape, rng, base, top)]]))
    return ops


# -- integer-sweep ----------------------------------------------------------

_INT_RINGS = ({"base": "Z"},
              {"base": "Z", "completion": {"ideal": ["5"], "precision": 20}})


# 5-adic valuations of the two relations of shape 4 (None: entry 0), one
# pattern per pair of documents, for Z and for Z_5.  Freely drawn entries
# made a round's cost swing by a third from seed to seed.  Over Z_5 the
# third generator stays free: the engine refuses Z_5-modules whose free
# summand is not a coordinate axis, for example every Z pattern here (see
# NOTES.md, "Engine defects").
_SHAPE4 = ((((1, 0, 2), (1, 1, None)),
            ((0, 2, 1), (None, 2, None)),
            ((None, 0, 2), (1, 1, None)),
            ((1, 2, 1), (None, 3, 1))),
           (((1, 2, None), (None, 3, None)),
            ((0, 2, None), (None, 2, None)),
            ((2, None, None), (1, 1, None)),
            ((1, 1, None), (None, 2, None))))


def _int_module(rng, shape, variant=0, ring=0):
    """A module of one of six shapes; the seed draws the units.

    0: cyclic 5-power torsion; 1: Z plus 5-torsion; 2: two torsion
    summands; 3: one relation on two generators; 4: three generators, two
    relations, in valuation pattern ``_SHAPE4[ring][variant]``; 5: torsion
    prime to 5.
    """
    units = (1, 2, 3, 4) if ring else (1, -1)

    def p5(a):
        return "0" if a is None else str(5 ** a * rng.choice(units))

    if shape == 0:
        return {"generators": 1, "relations": [[p5(2)]]}
    if shape == 1:
        return {"generators": 2, "relations": [["0", p5(1)]]}
    if shape == 2:
        return {"generators": 2, "relations": [[p5(1), "0"], ["0", p5(3)]]}
    if shape == 3:
        return {"generators": 2, "relations": [[p5(1), p5(2)]]}
    if shape == 4:
        return {"generators": 3,
                "relations": [[p5(a) for a in col]
                              for col in _SHAPE4[ring][variant]]}
    return {"generators": 1, "relations": [[str(rng.choice((2, 3, 6, 7)))]]}


def _int_doc(rng, k):
    """Document k: the ring alternates, M cycles through the six shapes."""
    return {
        "version": "1",
        "ring": _INT_RINGS[k % 2],
        "ideal": ["5"],
        "modules": {"A": {"generators": 1, "relations": []},
                    "M": _int_module(rng, (k // 2) % 6, (k // 12) % 4,
                                     k % 2),
                    "N": _int_module(rng, rng.choice((0, 1, 3, 5)),
                                     ring=k % 2)},
        "descriptors": {
            "fpM": {"kind": "fp", "module": "M"},
            "tel": {"kind": "telescope", "module": "A", "mult": "5"},
            "pru": {"kind": "telescope_quotient", "module": "A", "mult": "5"},
            "rat": {"kind": "rational", "dim": 1},
        },
    }


def _cli(doc, verb, **args):
    return {"kind": "cli", "doc": doc, "verb": verb, "args": args}


def _int_ops(doc):
    """One document's worth of ops: every verb the sweep covers."""
    return [
        _cli(doc, "localhom", target="M", s=0),
        _cli(doc, "localhom", target="M", s=1),
        _cli(doc, "localhom", target="M", s=2),
        _cli(doc, "localhom", target="tel", s=0),
        _cli(doc, "localhom", target="pru", s=1),
        _cli(doc, "complete", module="M"),
        _cli(doc, "tor", M="M", N="N", s=1),
        _cli(doc, "ext", M="M", N="N", s=1),
        _cli(doc, "gm-check", target="pru", s=1),
        _cli(doc, "gm-check", target="fpM", s=0),
        _cli(doc, "lcomplete-check", target="fpM"),
        _cli(doc, "lcomplete-check", target="rat"),
        _cli(doc, "lambda", target="M"),
        _cli(doc, "localcoh", target="M", s=0),
        _cli(doc, "localcoh", target="pru", s=0),
        _cli(doc, "localcoh", target="rat", s=1),
    ]


def integer_sweep(seed, size=None):
    size = SWEEP_SIZE["integer-sweep"] if size is None else size
    rng = _rng("integer-sweep", seed)
    ops = []
    k = 0
    while len(ops) < size:
        ops.extend(_int_ops(_int_doc(rng, k)))
        k += 1
    return ops[:size]


# -- poly-sweep -------------------------------------------------------------

_POLY_RINGS = ({"base": "Q", "vars": ["x", "y"]},
               {"base": "Fp", "p": 7, "vars": ["x", "y"]})
_POLY_IDEALS = (["x", "y"], ["x + y", "x*y"])
_POLY_OPTIONS = {"precision": 4, "K": 4, "lag": 2}


def _poly_module(shape, rng, k, base, top):
    """Module shape k % 3 with generic coefficients up to ``top``: cyclic on
    a line, cyclic on a parabola, or an extension of two lines.  ``shape``
    draws the coefficients, ``rng`` a unit for each relation."""
    kind = k % 3
    if kind == 0:
        return {"generators": 1,
                "relations": [[_linear_form(shape, rng, base, top)]]}
    if kind == 1:
        a, b = shape.randint(1, top), shape.randint(1, top)
        c = _unit(rng, base)
        return {"generators": 1, "relations": [[
            f"{_times(c, a, base)}*x^2+{_times(c, b, base)}*y"]]}
    c = _unit(rng, base)
    first = [_linear_form(shape, rng, base, top, c),
             _times(c, shape.randint(1, top), base)]
    return {"generators": 2,
            "relations": [first, ["0", _linear_form(shape, rng, base, top)]]}


def _poly_doc(shape, rng, k):
    """Document k: ring, ideal and module shape cycle with k.  Coefficients
    over Q stay at most 3: with up to 6 the cost of a Q document swung by
    2x from seed to seed, as rational coefficients grew."""
    base, top = ("Q", 3) if k % 2 == 0 else ("Fp", 6)
    mods = {"M": _poly_module(shape, rng, k // 4, base, top),
            "N": {"generators": 1,
                  "relations": [[_linear_form(shape, rng, base, top)]]}}
    return {"version": "1", "ring": _POLY_RINGS[k % 2],
            "ideal": _POLY_IDEALS[(k // 2) % 2], "modules": mods,
            "options": dict(_POLY_OPTIONS)}


def _c2_doc(precision):
    return {
        "version": "1",
        "ring": {"base": "Q", "vars": ["x", "y"]},
        "ideal": ["x + y", "x*y"],
        "modules": {"A": {"generators": 1, "relations": []}},
        "group": {
            "elements": ["e", "s"],
            "table": {"e": {"e": "e", "s": "s"}, "s": {"e": "s", "s": "e"}},
            "action": {"s": {"x": "y", "y": "x"}},
        },
        "comodules": {"CA": {"module": "A", "action": {"s": [["1"]]}}},
        "options": {"precision": precision, "K": 6, "lag": 3},
    }


def _poly_ops(doc):
    return [
        _cli(doc, "localhom", target="M", s=0),
        _cli(doc, "localhom", target="M", s=1),
        _cli(doc, "localhom", target="M", s=2),
        _cli(doc, "complete", module="M"),
        _cli(doc, "tor", M="M", N="N", s=1),
        _cli(doc, "ext", M="M", N="N", s=1),
        _cli(doc, "gamma", target="M"),
        _cli(doc, "localcoh", target="M", s=1),
    ]


def _hopf_ops(precision):
    doc = _c2_doc(precision)
    return [_cli(doc, "verify", which="completion-formula", comodule="CA"),
            _cli(doc, "comodule-complete", comodule="CA"),
            _cli(doc, "iota", comodule="CA")]


def poly_sweep(seed, size=None):
    """Documents of eight ops each, with a C2-swap trio after every fourth."""
    size = SWEEP_SIZE["poly-sweep"] if size is None else size
    rng, shape = _rng("poly-sweep", seed), _rng("poly-sweep", "shape")
    ops = []
    k = 0
    while len(ops) < size:
        ops.extend(_poly_ops(_poly_doc(shape, rng, k)))
        if k % 4 == 3:
            ops.extend(_hopf_ops(3 + (k // 4) % 3))
        k += 1
    return ops[:size]


def generate(workload, seed, size=None):
    """The op list of one workload at one seed."""
    if workload == "completed-grid":
        ops = completed_grid(seed)
        return ops if size is None else ops[:size]
    if workload == "integer-sweep":
        return integer_sweep(seed, size)
    if workload == "poly-sweep":
        return poly_sweep(seed, size)
    raise ValueError(f"unknown workload {workload!r}")
