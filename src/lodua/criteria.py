"""Membership criteria: Ext-completeness, completion-locality, and the
homology-level torsion/complete tests for bounded complexes.

The completeness test follows the telescope grid: M is complete iff
Ext^q(x_i^-1 A/(x_1..x_(i-1)), M) vanishes for 1 <= i <= n and 0 <= q <= i
(higher q vanish for free: the telescope has projective dimension <= i).
Each cell comes from the Ext engine of `local`, which assembles Ext out
of a telescope from multiplication towers on the Ext modules of
A/(x_1..x_(i-1)) through the Milnor sequence, so every verdict carries an
exact certificate or an explicit nonzero witness.

Assumption: testing against the unit suffices because over the supported
rings (principal ideal domains and polynomial rings) finitely generated
projectives are free, so the dualizable objects are generated by the ring
itself.  Rings with nontrivial projectives would need the full dualizable
family; that case is out of scope here.
"""

from .descriptors import FPObj, LimitModule, value_of, values_agree
from .errors import InvalidInput
from .local import (GradedObject, derived_completion, ext_out_of_telescope,
                    gamma, _ideal_nilpotent_on)
from .modules import FPModule
from .towers import _require_radical_membership


class CompletenessCertificate:
    def __init__(self, verdict, table, bounds=None, witness=None):
        assert verdict in ("complete", "not-complete", "inconclusive")
        self.verdict = verdict
        self.table = table        # {(i, q): LimitModule}
        self.bounds = bounds or {}
        self.witness = witness

    def __bool__(self):
        return self.verdict == "complete"

    def describe(self):
        out = {"verdict": self.verdict,
               "table": {f"i={i},q={q}": v.describe()
                         for (i, q), v in sorted(self.table.items())},
               "bounds": self.bounds}
        if self.witness:
            out["witness"] = self.witness
        return out


def ext_telescope(d, i, desc, q, towers=None):
    """The grid cell Ext^q(x_i^-1 A/(x_1..x_(i-1)), target).

    ``towers`` is the memo of `local.ext_out_of_telescope` for stage i; cells
    (i, q) and (i, q + 1) both read Ext^q, so a caller walking one stage
    passes one dict to all its cells.
    """
    if not (1 <= i <= d.n):
        raise InvalidInput(f"index {i} outside 1..{d.n}")
    if q > i:
        return LimitModule.zero(
            basis=f"projective dimension of the telescope is at most {i}")
    if isinstance(desc, FPModule):
        desc = FPObj(desc)
    stage = FPModule.cyclic(d.ring, d.gens[:i - 1])   # A/(x_1..x_(i-1))
    return ext_out_of_telescope(stage, d.gens[i - 1], desc, q, towers)


def is_L_complete(desc, d, precision=None):
    """The full (i, q) grid; complete iff every cell vanishes.  No cell
    reads ``precision``, a keyword kept for the callers that pass it."""
    cert = d.regular_certificate()
    if not cert.regular:
        raise InvalidInput("completeness grid needs a regular sequence "
                           f"certificate; got {cert.describe()}")
    if isinstance(desc, FPModule):
        desc = FPObj(desc)
    table = {}
    witness = None
    verdict = "complete"
    for i in range(1, d.n + 1):
        towers = {}
        for q in range(0, i + 1):
            cell = ext_telescope(d, i, desc, q, towers)
            table[(i, q)] = cell
            if not cell.is_recognized():
                verdict = "inconclusive"
            elif not cell.is_zero() and verdict == "complete":
                verdict = "not-complete"
                witness = {"i": i, "q": q, "value": cell.describe()}
    return CompletenessCertificate(verdict, table,
                                   bounds={"grid": f"i<=n={d.n}, q<=i"},
                                   witness=witness)


def is_lambda_local(C, d):
    """True iff every homology module passes the grid; cross-checked against
    the completion functor returning the complex's own homology."""
    obj = GradedObject.of(C)
    table = {}
    verdict = "local"
    for dgr, piece in sorted(obj.pieces.items()):
        cert = is_L_complete(piece, d)
        table[dgr] = cert
        if cert.verdict == "inconclusive":
            verdict = "inconclusive"
        elif cert.verdict == "not-complete" and verdict == "local":
            verdict = "not-local"
    out = {"verdict": verdict,
           "per_degree": {str(k): v.describe() for k, v in table.items()}}
    if verdict != "local":
        return out
    lam = derived_completion(d, obj)
    for dgr, piece in obj.pieces.items():
        got = lam.value(dgr)
        expected = value_of(piece)
        ok, detail = values_agree(got, expected)
        if not ok:
            out["verdict"] = "inconclusive"
            out["fixed_point_failure"] = {"degree": dgr, "detail": detail}
            return out
    out["fixed_point"] = "completion returns the complex's own homology"
    return out


def homology_membership(C, d):
    """Degreewise torsion of homology, with functor certification: every H_n
    is I-power torsion, certified by the torsion functor returning the
    homology unchanged.  Completeness of homology is `is_lambda_local`."""
    obj = GradedObject.of(C)
    report = {"kind": "torsion", "per_degree": {}}
    for dgr, piece in sorted(obj.pieces.items()):
        if piece.kind == "fp":
            j = _ideal_nilpotent_on(d, piece.module)
            if j is None:
                report["per_degree"][str(dgr)] = {
                    "torsion": False,
                    "witness": "generator not killed by any materialized "
                               "power of I"}
                report["verdict"] = False
                return report
            report["per_degree"][str(dgr)] = {"torsion": True,
                                              "killed_by_power": j}
        elif piece.kind == "telescope_quotient":
            m = _require_radical_membership(d.ring, piece.mult, d.gens)
            report["per_degree"][str(dgr)] = {
                "torsion": True,
                "note": f"stage k is killed by I^{m}k"}
        else:
            report["per_degree"][str(dgr)] = {"torsion": False,
                                              "witness": piece.kind}
            report["verdict"] = False
            return report
    gm = gamma(d, obj)
    for dgr, piece in obj.pieces.items():
        got = gm.value(dgr)
        ok, detail = values_agree(got, value_of(piece))
        if not ok:
            report["verdict"] = False
            report["gamma_failure"] = {"degree": dgr, "detail": detail}
            return report
    report["verdict"] = True
    report["gamma_fixed_point"] = ("the torsion functor returns the "
                                   "homology unchanged")
    return report
