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

Timing goes to stderr so identical inputs produce byte-identical reports.
"""

import argparse
import json
import os
import sys
import time

from .complexes import ChainComplex
from .criteria import homology_membership, is_L_complete, is_lambda_local
from .descriptors import FPObj, Rational, Telescope, TelescopeQuotient
from .errors import (BudgetExceeded, InternalInconsistency, InvalidInput,
                     LoduaError, UnrecognizedTower, UnsupportedRing)
from .groebner import default_budget
from .hopf import (Comodule, CompleteComodule, comodule_completion, iota,
                   make_group_like, verify_theorems, _completed_hopf,
                   _base_change_comodule)
from .local import (IdealData, adic_completion, derived_completion, gamma,
                    gm_ses_check, local_cohomology, local_homology_Ls)
from .modules import FPModule, ModuleMap, ext as module_ext, tor as module_tor
from .ring import DEFAULT_PRECISION, make_ring
from .towers import lim_lim1, standard_tower, weak_proregularity_check

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
    """A validated problem document with name resolution."""

    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise InvalidInput("document must be a JSON object")
        if doc.get("version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise InvalidInput(f"unsupported schema version {doc.get('version')}")
        for block, keys in _REQUIRED.items():
            for name, spec in _fields(doc.get(block, {}), block).items():
                _fields(spec, repr(name), *keys)
                if block in ("descriptors", "towers"):
                    _fields(spec, repr(name), *_KIND_REQUIRED.get(spec["kind"], ()))
        self.doc = doc
        self.options = dict(doc.get("options", {}))
        if "LODUA_BUDGET" in os.environ:
            self.options.setdefault("budget", default_budget())
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
            mods = {int(k): self.module(v)
                    for k, v in _fields(spec["modules"], name).items()}
            diffs = {int(k): self.map(v)
                     for k, v in _fields(spec.get("diffs", {}), name).items()}
            self.complexes[name] = ChainComplex(self.ring, mods, diffs)
        self.towers = {}
        for name, spec in doc.get("towers", {}).items():
            self._unique(name)
            self.towers[name] = self._tower(name, spec)
        self.hopf = None
        if doc.get("group"):
            g = _fields(doc["group"], "group", "elements", "table")
            try:
                table = {(a, b): g["table"][a][b] for a in g["elements"]
                         for b in g["elements"]}
            except (KeyError, TypeError):
                raise InvalidInput("the group table needs every product") from None
            self.hopf = make_group_like(self.ring, g["elements"], table,
                                        g.get("action", {}))
        self.comodules = {}
        for name, spec in doc.get("comodules", {}).items():
            self._unique(name)
            if self.hopf is None:
                raise InvalidInput("comodules need a group block")
            self.comodules[name] = Comodule(self.hopf, self.module(spec["module"]),
                                            _fields(spec.get("action", {}), name))

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
            return standard_tower("adic", module=self.module(spec["module"]),
                                  ideal=ideal)
        if kind == "mult":
            return standard_tower("mult",
                                  descriptor=self._target_or_module(spec),
                                  x=self.ring.el(spec["x"]))
        if kind == "tor":
            return standard_tower("tor",
                                  descriptor=self._target_or_module(spec),
                                  ideal=ideal,
                                  s=_int_setting("s", spec["s"], 0))
        raise InvalidInput(f"unknown tower kind {kind!r}")

    def _target_or_module(self, spec):
        name = spec.get("descriptor") or spec.get("module")
        if name in self.descriptors:
            return self.descriptors[name]
        return self.module(name)

    def _descriptor(self, name, spec):
        kind = spec["kind"]
        if kind == "fp":
            return FPObj(self.module(spec["module"]))
        if kind == "telescope":
            return Telescope(self.module(spec["module"]),
                             self.ring.el(spec["mult"]))
        if kind == "telescope_quotient":
            return TelescopeQuotient(self.module(spec["module"]),
                                     self.ring.el(spec["mult"]))
        if kind == "rational":
            try:
                return Rational(self.ring, spec.get("dim", 1))
            except InvalidInput as e:
                raise InvalidInput(f"{name!r} {e}") from None
        raise InvalidInput(f"unknown descriptor kind {kind!r}")

    def module(self, name):
        if name not in self.modules:
            raise InvalidInput(f"unknown module {name!r}")
        return self.modules[name]

    def map(self, name):
        if name not in self.maps:
            raise InvalidInput(f"unknown map {name!r}")
        return self.maps[name]

    def comodule(self, name):
        if name not in self.comodules:
            raise InvalidInput(f"unknown comodule {name!r}")
        return self.comodules[name]

    def target(self, name):
        """A module, descriptor, or complex by name."""
        if name in self.descriptors:
            return self.descriptors[name]
        if name in self.modules:
            return self.modules[name]
        if name in self.complexes:
            return self.complexes[name]
        raise InvalidInput(f"unknown object {name!r}")

    def need_ideal(self):
        if self.ideal is None:
            raise InvalidInput("this verb needs an `ideal` block")
        return self.ideal

    def opt(self, key, default):
        return self.options.get(key, default)


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
        type(e) in (str, int) for e in value)


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


def _int_setting(key, value, least):
    """An integer setting of at least ``least``; anything else is invalid."""
    if value is None:
        raise InvalidInput(f"missing --{key}")
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        n = int(value)
    except ValueError:
        raise InvalidInput(f"{key} must be an integer, not {value!r}") from None
    if n < least:
        raise InvalidInput(f"{key} must be at least {least}, not {n}")
    return n


def run(doc, verb, args=None):
    """Execute a verb on a document; returns (exit_code, report dict)."""
    args = args or {}
    problem = Problem(doc)
    cmd = dict(doc.get("command", {}))
    cmd.update({k: v for k, v in args.items() if v is not None})

    def setting(key, default, least):
        # an explicit flag, then the document's options, then its command,
        # then the default
        value = args.get(key)
        if value is None:
            value = problem.opt(key, cmd.get(key))
        return _int_setting(key, default if value is None else value, least)

    def name(key):
        if cmd.get(key) is None:
            raise InvalidInput(f"missing --{key}")
        return cmd[key]

    precision = setting("precision", DEFAULT_PRECISION, 1)
    K = setting("K", 12, 1)
    lag = setting("lag", 6, 0)
    s = None
    if verb in ("tor", "ext", "localcoh", "localhom", "gm-check"):
        s = _int_setting("s", cmd.get("s"), 0)
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
                n: lim_lim1(t, K, lag, precision).describe()
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
        d = problem.need_ideal()
        v = local_cohomology(d, problem.target(name("target")), s)
        report["result"] = v.describe()
        code = 0 if v.is_recognized() else 2
    elif verb == "localhom":
        d = problem.need_ideal()
        tgt = problem.target(name("target"))
        if isinstance(tgt, ChainComplex):
            raise InvalidInput("localhom takes a module or descriptor; "
                               "use `lambda` for complexes")
        v = local_homology_Ls(d, tgt, s, K, lag, precision)
        report["result"] = v.describe()
    elif verb == "gamma":
        d = problem.need_ideal()
        g = gamma(d, problem.target(name("target")))
        report["result"] = g.describe()
    elif verb == "lambda":
        d = problem.need_ideal()
        table = derived_completion(d, problem.target(name("target")),
                                   K, lag, precision)
        report["result"] = table.describe()
    elif verb == "gm-check":
        d = problem.need_ideal()
        tgt = problem.target(name("target"))
        out = gm_ses_check(d, tgt, s, K, lag, precision)
        report["result"] = out
    elif verb == "complete":
        d = problem.need_ideal()
        out, nat = adic_completion(problem.module(name("module")), d, precision)
        report["result"] = out.describe()
        report["natural_map"] = nat
        report["precision"] = precision
    elif verb == "lcomplete-check":
        d = problem.need_ideal()
        cert = is_L_complete(problem.target(name("target")), d, precision)
        report["result"] = cert.describe()
        code = {"complete": 0, "not-complete": 1, "inconclusive": 2}[cert.verdict]
    elif verb == "torsion-check":
        d = problem.need_ideal()
        out = homology_membership(problem.target(name("target")), d, "torsion",
                                  K, lag, precision)
        report["result"] = out
        code = 0 if out["verdict"] is True else (
            1 if out["verdict"] is False else 2)
    elif verb == "lambda-local-check":
        d = problem.need_ideal()
        out = is_lambda_local(problem.target(name("target")), d, K, lag, precision)
        report["result"] = out
        code = {"local": 0, "not-local": 1, "inconclusive": 2}[out["verdict"]]
    elif verb == "proreg-check":
        d = problem.need_ideal()
        out = weak_proregularity_check(problem.ring, d.gens,
                                       stage_bound=min(K, 4), lag=lag)
        report["result"] = out
        code = {"weakly-proregular": 0, "not-weakly-proregular": 1,
                "inconclusive": 2}[out["status"]]
    elif verb in ("comodule-limit", "comodule-complete"):
        d = problem.need_ideal()
        com = problem.comodule(name("comodule"))
        limit, cert = comodule_completion(com, d, precision,
                                          cmd.get("method", "kernel"))
        report["result"] = limit.describe()
        report["certificate"] = cert
        report["method_agreement"] = ("kernel and pullback limits share the "
                                      "presentation; identity witness")
    elif verb == "iota":
        d = problem.need_ideal()
        com = problem.comodule(name("comodule"))
        h_hat = _completed_hopf(problem.hopf, d.gens, precision)
        chat = _base_change_comodule(h_hat, com)
        res, cert = iota(CompleteComodule(h_hat, chat, precision))
        report["result"] = res.describe()
        report["certificate"] = cert
    elif verb == "verify":
        d = problem.need_ideal()
        which = name("which")
        com = problem.comodule(cmd["comodule"]) if cmd.get("comodule") else None
        if com is None and problem.comodules:
            com = next(iter(problem.comodules.values()))
        out = verify_theorems(problem.hopf, d, com, which, precision=precision,
                              stage_bound=K, lag=lag)
        report["result"] = out
        verdict = out.get("verdict", "pass")
        code = 0 if verdict in ("pass", "true-level") else 2
    else:
        raise InvalidInput(f"unknown verb {verb!r}")
    return code, report


def recheck(doc, report):
    """Revalidate the replayable parts of a report without recomputation.

    Confirms the document still parses and names resolve, the report body
    is well-formed deterministic JSON, any witness matrices define
    relation-preserving maps, and verb-specific certificate invariants hold
    (grid coverage and verdict consistency for the completeness check,
    outer-term/isomorphism consistency for the lim/lim^1 sequence).
    """
    problem = Problem(doc)
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
        ModuleMap(M, M, wit)  # raises if the witness is not a valid map
        rechecked["witnesses"] += 1
    if verb == "lcomplete-check" and isinstance(result, dict):
        table = result.get("table", {})
        n = problem.ideal.n if problem.ideal else 0
        want = {f"i={i},q={q}" for i in range(1, n + 1) for q in range(i + 1)}
        if set(table) != want:
            raise InvalidInput("certificate grid does not cover i<=n, q<=i")
        all_zero = all(cell.get("kind") == "zero" for cell in table.values())
        verdict = result.get("verdict")
        if verdict == "complete" and not all_zero:
            raise InvalidInput("complete verdict with a nonzero cell")
        if verdict == "not-complete" and all_zero:
            raise InvalidInput("not-complete verdict with an all-zero grid")
        rechecked["invariants"].append("completeness grid covers and matches")
    if verb == "gm-check" and isinstance(result, dict):
        if result.get("status") == "exact":
            left = result.get("lim1_tor_next", {}).get("kind")
            right = result.get("lim_tor", {}).get("kind")
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
            out = recheck(doc, prior)
            print(json.dumps({"recheck": out}, sort_keys=True, indent=2))
            print(f"# recheck in {time.time() - t0:.3f}s", file=sys.stderr)
            return 0
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
    print(json.dumps(report, sort_keys=True, indent=2))
    print(f"# {ns.verb} in {time.time() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
