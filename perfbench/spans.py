"""Layer instrumentation installed from outside lodua.

Two patch sets, never active together:

* ``SpanTracer`` wraps the public functions and methods of each layer module
  (``lodua.cli`` ... ``lodua.hopf``) and records one span per call: id,
  parent span, op id, layer, qualified name, start and end.  Spans stay in
  memory and are written out as JSON lines when the pass ends.
* ``CallCounter`` wraps the innermost operations (``Poly`` and
  ``RingElement`` arithmetic, ``Ring.el``, the Groebner step counter) with a
  bare counter.  They run 10^5-10^6 times per round; a span around each would
  swamp the self times of the layers that call them.

A function bound by ``from .x import f`` lives on in every importing module,
so a patch replaces every binding of the same object in every ``lodua``
module, and ``restore`` puts each one back.
"""

import functools
import inspect
import json
import sys
import time

SPAN_LAYERS = ("cli", "criteria", "local", "towers", "complexes", "modules",
               "linalg", "groebner", "ring", "hopf")

# Innermost operations and helpers, called per element, matrix entry or
# reduction step: counted by CallCounter or not at all, never spanned.  A
# span on each would multiply the trace overhead and swamp the self times of
# the layers that call them.
SPAN_SKIP = {
    "ring.RingElement", "ring.Ring.el", "ring.Ring.zero", "ring.Ring.one",
    "ring.Ring.classify", "ring.Ring.var", "ring.Ring.get",
    "ring.Ring.reduction_basis",
    "groebner.GBasis.normal_form", "groebner.GBasis.contains",
    "groebner.vec_zero", "groebner.vec_is_zero", "groebner.vec_add",
    "groebner.vec_sub", "groebner.vec_scale_term", "groebner.default_budget",
    "linalg.vec_is_zero",
}

COUNTED = (
    ("poly.mul_calls", "lodua.poly", "Poly", ("__mul__",)),
    ("poly.addsub_calls", "lodua.poly", "Poly", ("__add__", "__sub__")),
    ("ring.el_calls", "lodua.ring", "Ring", ("el",)),
    ("ring.arith_calls", "lodua.ring", "RingElement",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
      "__neg__", "__pow__")),
    ("groebner.steps", "lodua.groebner", "GBasis", ("_tick",)),
)

_EUCLIDEAN_KINDS = ("int", "field", "int_completed", "int_localized")


def _lodua_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lodua" or n.startswith("lodua."))]


class _Patcher:
    """Replace attributes and remember the originals."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def set_everywhere(self, fn, wrapper):
        """Rebind every module-level binding of ``fn`` to ``wrapper``."""
        for mod in _lodua_modules():
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self.set(mod, name, wrapper)

    def restore(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    @property
    def bindings(self):
        return [(owner, name) for owner, name, _ in self._saved]


def layer_targets(layer):
    """(owner, attribute name, qualified name, function) for one layer.

    Public module functions and the public methods (plus ``__init__``) of
    the classes the module defines, less ``SPAN_SKIP``; properties are left
    alone.
    """
    mod = sys.modules[f"lodua.{layer}"]
    out = []
    for name, obj in sorted(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__ or \
                name.startswith("_") or f"{layer}.{name}" in SPAN_SKIP:
            continue
        if inspect.isfunction(obj):
            out.append((mod, name, name, obj))
        elif inspect.isclass(obj):
            for attr, val in sorted(vars(obj).items()):
                qual = f"{name}.{attr}"
                if (attr.startswith("_") and attr != "__init__") or \
                        f"{layer}.{qual}" in SPAN_SKIP:
                    continue
                if isinstance(val, (staticmethod, classmethod)) or \
                        inspect.isfunction(val):
                    out.append((obj, attr, qual, val))
    return out


class SpanTracer:
    """Span recording for one traced pass; ``op`` gates recording."""

    def __init__(self):
        self.spans = []          # [id, parent, op, layer, name, start, end]
        self.counters = {}
        self.op = None
        self._stack = []
        self._patcher = _Patcher()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def _after(self, qual, args, result):
        """Counters read at the boundary of a finished call."""
        if qual in ("syzygies", "lift_through", "member"):
            kind = args[0].classify()
            if kind not in _EUCLIDEAN_KINDS and kind != "poly_localized":
                self.count("linalg.groebner_calls")
        elif qual == "ext_telescope":
            self.count("criteria.cells")
            if not result.is_recognized():
                self.count("criteria.cells_unrecognized")

    def _wrap(self, layer, qual, fn):
        tracer = self
        clock = time.perf_counter
        key = f"{layer}.{qual}"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [len(tracer.spans), stack[-1][0] if stack else None,
                   tracer.op, layer, key, clock(), None]
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = clock()
                stack.pop()
            tracer._after(qual, args, result)
            return result
        return span

    def install(self):
        for layer in SPAN_LAYERS:
            for owner, attr, qual, val in layer_targets(layer):
                if isinstance(val, (staticmethod, classmethod)):
                    wrapped = type(val)(self._wrap(layer, qual, val.__func__))
                    self._patcher.set(owner, attr, wrapped)
                elif inspect.isclass(owner):
                    self._patcher.set(owner, attr,
                                      self._wrap(layer, qual, val))
                else:
                    self._patcher.set_everywhere(
                        val, self._wrap(layer, qual, val))

    def restore(self):
        self._patcher.restore()

    @property
    def bindings(self):
        return self._patcher.bindings

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, layer, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "layer": layer, "name": name,
                                     "start": start, "end": end}) + "\n")


class CallCounter:
    """Bare call counts on the innermost operations (the count pass)."""

    def __init__(self):
        self.counters = {name: 0 for name, *_ in COUNTED}
        self.active = False
        self._patcher = _Patcher()

    def _wrap(self, counter, fn):
        counters = self.counters
        owner = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if owner.active:
                counters[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for counter, modname, clsname, attrs in COUNTED:
            cls = getattr(sys.modules[modname], clsname)
            for attr in attrs:
                self._patcher.set(cls, attr,
                                  self._wrap(counter, vars(cls)[attr]))

    def restore(self):
        self._patcher.restore()

    @property
    def bindings(self):
        return self._patcher.bindings


def self_times(spans):
    """Self time per span: its duration minus the union of its children.

    ``spans`` are ``[id, parent, op, layer, name, start, end]`` records.
    Returns ``{id: seconds}``.
    """
    children = {}
    for rec in spans:
        if rec[1] is not None:
            children.setdefault(rec[1], []).append((rec[5], rec[6]))
    out = {}
    for rec in spans:
        start, end = rec[5], rec[6]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(rec[0], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[rec[0]] = (end - start) - covered
    return out


def layer_summary(spans):
    """``<layer>.calls`` and ``<layer>.self_s`` for every span layer."""
    own = self_times(spans)
    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for rec in spans:
        out[f"{rec[3]}.calls"] += 1
        out[f"{rec[3]}.self_s"] += own[rec[0]]
    return out


def call_counts(spans):
    """Calls per qualified function name, e.g. ``linalg.smith_normal_form``."""
    out = {}
    for rec in spans:
        out[rec[4]] = out.get(rec[4], 0) + 1
    return out
