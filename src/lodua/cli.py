"""Command-line front end.

A problem document is a JSON object naming a ring, an ideal, and any
modules, maps, descriptors, complexes, groups, and comodules the command
refers to; the verb dispatches to the engine and the report is printed as
deterministic JSON (sorted keys, no timestamps in the body).  Exit codes:

    0  success or a true/complete/exact verdict
    1  a computed false / not-complete / failure verdict
    2  inconclusive, unrecognized tower, budget exhaustion, or an internal
       error (one line on stderr, no traceback)
    3  invalid input

A report whose reader closed stdout before it was written exits 2 as well.
Timing goes to stderr so identical inputs produce byte-identical reports.

``run`` keeps the last document it parsed (``_parsed``, a table of one
entry), so consecutive verbs on one document validate it once.  The key is
the document's exact typed content, ``marshal.dumps(doc, 2)`` (version 2
writes content alone, no references or interning flags; ``1``, ``true``,
``1.0`` and ``"1"``, or an int and a string key, stay distinct), and the
settings in force with the budget resolved; the ``Problem`` is built from
those bytes, so it shares no object with the caller's document.  A hit is
the cold parse: after construction nothing changes a ``Problem`` but memos
of pure functions of its objects and the settings (module membership and
decomposition, the regularity certificate of the ideal, the images of the
group action, comodule coactions, homology of a complex), and the key
covers both.  A refusal is not stored, and a document holding anything but
builtin JSON-like values (marshal refuses it) is parsed on every call.
"""

import argparse
import functools
import json
import marshal
import os
import sys
import time

from .complexes import ChainComplex
from .context import at_least, budget, current, settings
from .criteria import homology_membership, is_L_complete, is_lambda_local
from .descriptors import FPObj, Rational, Telescope, TelescopeQuotient
from .errors import (BudgetExceeded, InternalInconsistency, InvalidInput,
                     LoduaError, UnrecognizedTower, UnsupportedRing)
from .hopf import (Comodule, GroupLikeHopfAlgebroid, comodule_completion,
                   iota, verify_theorems, _base_change_comodule)
from .local import (IdealData, adic_completion, derived_completion, gamma,
                    gm_ses_check, local_cohomology, local_homology_Ls)
from .modules import FPModule, ModuleMap, ext as module_ext, tor as module_tor
from .ring import _is_expression, _listed, make_ring
from .towers import Tower, lim_lim1

SCHEMA_VERSION = "1"

# the keys every entry of a named block needs, and those of each kind
_REQUIRED = {"modules": ("generators",), "maps": ("source", "target", "matrix"),
             "descriptors": ("kind",), "complexes": ("modules",),
             "towers": ("kind",), "comodules": ("module",)}
_KIND_REQUIRED = {"fp": ("module",), "telescope": ("module", "mult"),
                  "telescope_quotient": ("module", "mult"),
                  "adic": ("module", "ideal"), "mult": ("x",),
                  "tor": ("ideal", "s")}

VERBS = ("resolve", "tor", "ext", "localcoh", "localhom", "gamma", "lambda",
         "gm-check", "complete", "lcomplete-check", "torsion-check",
         "lambda-local-check", "proreg-check", "comodule-limit",
         "comodule-complete", "iota", "verify")


class Problem:
    """A problem document, of a checked version, validated block by block
    with name resolution."""

    def __init__(self, doc):
        for block, keys in _REQUIRED.items():
            for name, spec in _fields(doc.get(block, {}), block).items():
                _fields(spec, repr(name), *keys)
                if block in ("descriptors", "towers") \
                        and isinstance(spec["kind"], str):
                    _fields(spec, repr(name), *_KIND_REQUIRED.get(spec["kind"], ()))
        self.ring = make_ring(doc.get("ring", {"base": "Z"}))
        self.ideal = None
        if "ideal" in doc and _elements("ideal", doc["ideal"]):
            self.ideal = IdealData(self.ring, doc["ideal"])
        self.modules = {}
        for name, spec in doc.get("modules", {}).items():
            self._unique(name)
            ngens, cols = _module_fields(name, spec)
            rels = [tuple(self.ring.el(e) for e in col) for col in cols]
            self.modules[name] = FPModule(self.ring, ngens, rels, name=name)
        self.maps = {}
        for name, spec in doc.get("maps", {}).items():
            self._unique(name)
            S, T = self.module(spec["source"]), self.module(spec["target"])
            self.maps[name] = ModuleMap(S, T, _matrix(name, spec["matrix"], S, T))
        self.descriptors = {}
        for name, spec in doc.get("descriptors", {}).items():
            self._unique(name)
            self.descriptors[name] = self._descriptor(name, spec)
        self.complexes = {}
        for name, spec in doc.get("complexes", {}).items():
            self._unique(name)
            mods = {_degree(name, k): self.module(v)
                    for k, v in _fields(spec["modules"], name).items()}
            diffs = {_degree(name, k): self.map(v)
                     for k, v in _fields(spec.get("diffs", {}), name).items()}
            self.complexes[name] = ChainComplex(self.ring, mods, diffs)
        self.towers = {}
        for name, spec in doc.get("towers", {}).items():
            self._unique(name)
            self.towers[name] = self._tower(name, spec)
        self.hopf = None
        if doc.get("group"):
            g = _fields(doc["group"], "group", "elements", "table")
            els = _listed("group elements", "strings", g["elements"],
                          lambda v: type(v) is str)
            try:
                table = {(a, b): g["table"][a][b] for a in els for b in els}
            except (KeyError, TypeError):
                raise InvalidInput("the group table needs every product") from None
            action = _fields(g.get("action", {}), "group action")
            for h, spec in action.items():
                _named(h, "group element", dict.fromkeys(els))
                for x, img in _fields(spec, f"group action of {h!r}").items():
                    _named(x, "ring variable", dict.fromkeys(self.ring.names))
                    _element(f"group action of {h!r} on {x!r}", img)
            self.hopf = GroupLikeHopfAlgebroid(self.ring, els, table, action)
        self.comodules = {}
        for name, spec in doc.get("comodules", {}).items():
            self._unique(name)
            if self.hopf is None:
                raise InvalidInput("comodules need a group block")
            M = self.module(spec["module"])
            action = {}
            for h, mat in _fields(spec.get("action", {}), name).items():
                _named(h, "group element", dict.fromkeys(self.hopf.elements))
                action[h] = _matrix(f"{name} action of {h}", mat, M, M)
            self.comodules[name] = Comodule(self.hopf, M, action)

    def _unique(self, name):
        for pool in (getattr(self, "modules", {}), getattr(self, "maps", {}),
                     getattr(self, "descriptors", {}),
                     getattr(self, "complexes", {}),
                     getattr(self, "comodules", {})):
            if name in pool:
                raise InvalidInput(f"duplicate name {name!r}")

    def _tower(self, name, spec):
        kind = spec["kind"]
        if kind in ("adic", "tor"):
            ideal = [self.ring.el(g)
                     for g in _elements(f"{name!r} ideal", spec["ideal"])]
        if kind == "adic":
            return Tower.adic(self.module(spec["module"]), ideal)
        if kind == "mult":
            return Tower.mult(self._target_or_module(spec),
                              self.ring.el(_element(f"{name!r} x", spec["x"])))
        if kind == "tor":
            return Tower.tor(self._target_or_module(spec), ideal,
                             at_least("s", spec["s"], 0))
        raise InvalidInput(f"unknown tower kind {kind!r}")

    def _target_or_module(self, spec):
        name = spec.get("descriptor") or spec.get("module")
        return _named(name, "module", self.descriptors, self.modules)

    def _descriptor(self, name, spec):
        kind = spec["kind"]
        if kind == "fp":
            return FPObj(self.module(spec["module"]))
        if kind == "telescope":
            return Telescope(self.module(spec["module"]),
                             self.ring.el(_element(f"{name!r} mult",
                                                   spec["mult"])))
        if kind == "telescope_quotient":
            return TelescopeQuotient(self.module(spec["module"]),
                                     self.ring.el(_element(f"{name!r} mult",
                                                           spec["mult"])))
        if kind == "rational":
            try:
                return Rational(self.ring, spec.get("dim", 1))
            except InvalidInput as e:
                raise InvalidInput(f"{name!r} {e}") from None
        raise InvalidInput(f"unknown descriptor kind {kind!r}")

    def module(self, name):
        return _named(name, "module", self.modules)

    def map(self, name):
        return _named(name, "map", self.maps)

    def comodule(self, name):
        return _named(name, "comodule", self.comodules)

    def target(self, name):
        """A module, descriptor, or complex by name."""
        return _named(name, "object", self.descriptors, self.modules,
                      self.complexes)

    def need_ideal(self):
        if self.ideal is None:
            raise InvalidInput("this verb needs an `ideal` block")
        return self.ideal


def _named(name, what, *pools):
    """The entry called ``name`` in the first pool holding it; a name that
    is not a string names nothing."""
    for pool in pools:
        if isinstance(name, str) and name in pool:
            return pool[name]
    raise InvalidInput(f"unknown {what} {name!r}")


def _fields(spec, what, *keys):
    """spec, checked to be a JSON object holding each of keys."""
    if not isinstance(spec, dict):
        raise InvalidInput(f"{what} must be a JSON object")
    for key in keys:
        if key not in spec:
            raise InvalidInput(f"{what} needs {key!r}")
    return spec


def _module_fields(name, spec):
    """(generators, relations) of a module entry, checked for type: a
    non-negative integer, and a list of columns, each a list of element
    expressions (strings or integers)."""
    ngens = spec["generators"]
    if type(ngens) is not int or ngens < 0:
        raise InvalidInput(f"{name!r} generators must be a non-negative "
                           f"integer, not {ngens!r}")
    cols = spec.get("relations", [])
    if not isinstance(cols, list) or not all(map(_is_elements, cols)):
        raise InvalidInput(f"{name!r} relations must be a list of lists of "
                           f"strings or integers, not {cols!r}")
    return ngens, cols


def _is_elements(value, n=None):
    """Is value a list of element expressions (strings or integers, not
    booleans), n of them unless n is None?"""
    return isinstance(value, list) and n in (None, len(value)) and all(
        map(_is_expression, value))


def _element(what, value):
    """value, checked to be one element expression (a string or an integer,
    not a boolean)."""
    if not _is_expression(value):
        raise InvalidInput(f"{what} must be a string or an integer, not "
                           f"{value!r}")
    return value


def _degree(name, key):
    """A complex's degree key as an integer."""
    try:
        return int(key)
    except ValueError:
        raise InvalidInput(f"{name!r} degree must be an integer, not "
                           f"{key!r}") from None


def _elements(what, value):
    if not _is_elements(value):
        raise InvalidInput(f"{what} must be a list of strings or integers, "
                           f"not {value!r}")
    return value


def _matrix(name, mat, source, target):
    """A map's matrix: target.ngens rows of source.ngens expressions."""
    if not (isinstance(mat, list) and len(mat) == target.ngens
            and all(_is_elements(row, source.ngens) for row in mat)):
        raise InvalidInput(
            f"{name!r} matrix must be a list of {target.ngens} lists of "
            f"{source.ngens} strings or integers, not {mat!r}")
    return mat


_BOUNDS = ("precision", "K", "lag")


def _settings(doc, args):
    """(settings, command) of a verb on a document, checked to be an object
    of this schema version.  Precision, K and lag come from a flag, then the
    options, then the command; the budget from ``LODUA_BUDGET``, checked
    here at verb start."""
    version = _fields(doc, "document").get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported schema version {version}")
    flags = {k: v for k, v in args.items() if v is not None}
    options = _fields(doc.get("options", {}), "options")
    unknown = sorted(options.keys() - set(_BOUNDS))
    if unknown:
        raise InvalidInput(f"unknown option {unknown[0]!r}: options hold "
                           "precision, K and lag (the budget is LODUA_BUDGET)")
    command = _fields(doc.get("command", {}), "command")
    chosen = {**command, **options, **flags}
    given = {key: chosen[key] for key in _BOUNDS
             if chosen.get(key) is not None}
    return {**given, "budget": budget()}, {**command, **flags}


def run(doc, verb, args=None):
    """Execute a verb on a document under its settings; returns
    (exit_code, report dict).  The document is parsed once for consecutive
    calls on the same content under the same settings (``_parsed``)."""
    given, cmd = _settings(doc, args or {})
    with settings(**given):
        try:
            blob = marshal.dumps(doc, 2)
        except ValueError:  # no key for it, so it is parsed every time
            problem = Problem(doc)
        else:
            problem = _parsed(blob, current())
        return _run(problem, verb, cmd)


@functools.lru_cache(maxsize=1)
def _parsed(blob, in_force):
    """The Problem of the document written as ``blob`` under the settings
    ``in_force`` (the key only: ``run`` has put them in force)."""
    return Problem(marshal.loads(blob))


# the verify tags that check a comodule; the others ask the group alone
_COMODULE_TAGS = ("completion-formula", "comodule-gm", "fg-vanishing")


def _run(problem, verb, cmd):
    def name(key):
        if cmd.get(key) is None:
            raise InvalidInput(f"missing --{key}")
        return cmd[key]

    if verb not in VERBS:
        raise InvalidInput(f"unknown verb {verb!r}")
    s = None
    if verb in ("tor", "ext", "localcoh", "localhom", "gm-check"):
        s = at_least("s", name("s"), 0)
    d = None if verb in ("resolve", "tor", "ext") else problem.need_ideal()
    report = {"version": SCHEMA_VERSION, "verb": verb}
    code = 0

    if verb == "resolve":
        report["ring"] = repr(problem.ring)
        report["modules"] = {n: m.describe() for n, m in
                             sorted(problem.modules.items())}
        report["descriptors"] = {n: d.describe() for n, d in
                                 sorted(problem.descriptors.items())}
        if problem.towers:
            report["towers"] = {
                n: lim_lim1(t).describe()
                for n, t in sorted(problem.towers.items())}
        if problem.ideal:
            report["ideal"] = problem.ideal.describe()
    elif verb == "tor":
        M, N = problem.module(name("M")), problem.module(name("N"))
        out = module_tor(M, N, s)
        report["result"] = out.describe()
    elif verb == "ext":
        M, N = problem.module(name("M")), problem.module(name("N"))
        out = module_ext(M, N, s)
        report["result"] = out.describe()
    elif verb == "localcoh":
        v = local_cohomology(d, problem.target(name("target")), s)
        report["result"] = v.describe()
        code = 0 if v.is_recognized() else 2
    elif verb == "localhom":
        tgt = problem.target(name("target"))
        if isinstance(tgt, ChainComplex):
            raise InvalidInput("localhom takes a module or descriptor; "
                               "use `lambda` for complexes")
        v = local_homology_Ls(d, tgt, s)
        report["result"] = v.describe()
    elif verb == "gamma":
        g = gamma(d, problem.target(name("target")))
        report["result"] = g.describe()
    elif verb == "lambda":
        table = derived_completion(d, problem.target(name("target")))
        report["result"] = table.describe()
    elif verb == "gm-check":
        tgt = problem.target(name("target"))
        out = gm_ses_check(d, tgt, s)
        report["result"] = out
    elif verb == "complete":
        out, nat = adic_completion(problem.module(name("module")), d)
        report["result"] = out.describe()
        report["natural_map"] = nat
        report["precision"] = nat["precision"]
    elif verb == "lcomplete-check":
        cert = is_L_complete(problem.target(name("target")), d)
        report["result"] = cert.describe()
        code = {"complete": 0, "not-complete": 1, "inconclusive": 2}[cert.verdict]
    elif verb == "torsion-check":
        out = homology_membership(problem.target(name("target")), d)
        report["result"] = out
        code = 0 if out["verdict"] is True else (
            1 if out["verdict"] is False else 2)
    elif verb == "lambda-local-check":
        out = is_lambda_local(problem.target(name("target")), d)
        report["result"] = out
        code = {"local": 0, "not-local": 1, "inconclusive": 2}[out["verdict"]]
    elif verb == "proreg-check":
        report["result"] = {
            "status": "weakly-proregular",
            "theorem": "every supported ring is Noetherian, and every finite "
                       "sequence of a Noetherian ring is weakly proregular "
                       "(Schenzel, Math. Scand. 92, 2003; Porta, Shaul & "
                       "Yekutieli, Algebr. Represent. Theory 17, 2014)",
            "regularity": d.regular_certificate().describe()}
    elif verb in ("comodule-limit", "comodule-complete"):
        com = problem.comodule(name("comodule"))
        limit, cert = comodule_completion(com, d, cmd.get("method", "kernel"))
        report["result"] = limit.describe()
        report["certificate"] = cert
        report["method_agreement"] = ("kernel and pullback limits share the "
                                      "presentation; identity witness")
    elif verb == "iota":
        com = problem.comodule(name("comodule"))
        res, cert = iota(_base_change_comodule(
            com, com.hopf.completed_ring(d.gens)))
        report["result"] = res.describe()
        report["certificate"] = cert
    elif verb == "verify":
        which = name("which")
        if problem.hopf is None:
            raise InvalidInput("verify needs a `group` block")
        com = problem.comodule(cmd["comodule"]) if cmd.get("comodule") else None
        if com is None and problem.comodules:
            com = next(iter(problem.comodules.values()))
        if com is None and which in _COMODULE_TAGS:
            raise InvalidInput(f"verify --which {which} needs a comodule")
        out = verify_theorems(problem.hopf, d, com, which)
        report["result"] = out
        verdict = out.get("verdict", "pass")
        code = 0 if verdict in ("pass", "true-level") else 2
    return code, report


def recheck(doc, report):
    """Revalidate the replayable parts of a report without recomputation.

    Confirms the document still parses and names resolve, the report body
    is well-formed deterministic JSON, any witness matrices define
    relation-preserving maps, and verb-specific certificate invariants hold
    (grid coverage and verdict consistency for the completeness check,
    outer-term/isomorphism consistency for the lim/lim^1 sequence).
    """
    with settings(**_settings(doc, {})[0]):
        problem = Problem(doc)
    report = _fields(report, "report")
    if report.get("version") != SCHEMA_VERSION:
        raise InvalidInput("report version mismatch")
    body = json.dumps(report, sort_keys=True)
    json.loads(body)
    rechecked = {"names_resolve": True, "witnesses": 0, "invariants": []}
    result = report.get("result", {})
    verb = report.get("verb")
    wit = result.get("witness") if isinstance(result, dict) else None
    if isinstance(wit, list) and problem.comodules:
        com = next(iter(problem.comodules.values()))
        M = com.module
        # raises if the witness is not a valid map
        ModuleMap(M, M, _matrix("report witness", wit, M, M))
        rechecked["witnesses"] += 1
    if verb == "lcomplete-check":
        result = _fields(result, "lcomplete-check result")
        table = _fields(result.get("table", {}), "certificate grid")
        n = problem.ideal.n if problem.ideal else 0
        want = {f"i={i},q={q}" for i in range(1, n + 1) for q in range(i + 1)}
        if set(table) != want:
            raise InvalidInput("certificate grid does not cover i<=n, q<=i")
        all_zero = all([_fields(cell, f"grid cell {key}").get("kind") == "zero"
                        for key, cell in table.items()])
        verdict = result.get("verdict")
        if verdict == "complete" and not all_zero:
            raise InvalidInput("complete verdict with a nonzero cell")
        if verdict == "not-complete" and all_zero:
            raise InvalidInput("not-complete verdict with an all-zero grid")
        rechecked["invariants"].append("completeness grid covers and matches")
    if verb == "gm-check":
        result = _fields(result, "gm-check result")
        if result.get("status") == "exact":
            left, right = (_fields(result.get(term, {}), term).get("kind")
                           for term in ("lim1_tor_next", "lim_tor"))
            if left != "zero" and right != "zero":
                raise InvalidInput("exact status but neither outer term is zero")
            rechecked["invariants"].append("sequence has a vanishing outer term")
    return rechecked


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lodua",
        description="exact local duality engine: torsion, completion, "
                    "local (co)homology, towers, comodules")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("document", help="problem document (JSON)")
    parser.add_argument("--s", type=int, default=None)
    parser.add_argument("--which", default=None)
    parser.add_argument("--method", default=None)
    parser.add_argument("--target", default=None)
    parser.add_argument("--module", default=None)
    parser.add_argument("--comodule", default=None)
    parser.add_argument("--M", default=None)
    parser.add_argument("--N", default=None)
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--K", type=int, default=None)
    parser.add_argument("--lag", type=int, default=None)
    parser.add_argument("--recheck", default=None,
                        help="revalidate the certificates of a prior report")
    ns = parser.parse_args(argv)
    t0 = time.time()
    try:
        with open(ns.document) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        print(f"invalid input: {ex}", file=sys.stderr)
        return 3
    args = {k: getattr(ns, k) for k in ("s", "which", "method", "target",
                                        "module", "comodule", "M", "N",
                                        "precision", "K", "lag")}
    try:
        if ns.recheck:
            with open(ns.recheck) as fh:
                prior = json.load(fh)
            code, report = 0, {"recheck": recheck(doc, prior)}
        else:
            code, report = run(doc, ns.verb, args)
    except InvalidInput as ex:
        print(f"invalid input: {ex}", file=sys.stderr)
        return 3
    except (UnrecognizedTower, BudgetExceeded, UnsupportedRing) as ex:
        print(f"inconclusive: {ex}", file=sys.stderr)
        return 2
    except InternalInconsistency as ex:
        print(f"internal inconsistency (hard error): {ex}", file=sys.stderr)
        return 2
    except LoduaError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:
        # a defect in the engine, reported in one line instead of a traceback
        detail = " ".join(str(ex).split())
        print(f"internal error: {type(ex).__name__}: {detail}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(report, sort_keys=True, indent=2), flush=True)
    except BrokenPipeError:
        # the reader is gone; without a working stdout the flush at exit
        # would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    label = "recheck" if ns.recheck else ns.verb
    print(f"# {label} in {time.time() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
