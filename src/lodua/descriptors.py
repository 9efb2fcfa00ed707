"""Finite descriptors for the module-like objects the engine manipulates.

Beyond finitely presented modules, the exact answers the engine produces or
consumes can be:

  * Telescope(M, u)          -- u^-1 M = colim(M -u-> M -u-> ...)
  * TelescopeQuotient(M, u)  -- u^-1 M / M = colim(M/u^k M) along u-inclusions
                                (u regular on M, certified); e.g. Z/p^infty
  * Rational(dim)            -- Q^dim as a Z-module: every nonzero integer
                                acts invertibly

plus LimitModule, the stamped value type for lim/lim1 and local homology:
zero, an honest module (possibly over a completed ring at stated precision),
a completion cokernel (e.g. Z_p/Z, with an explicit nonzero witness), one of
the ind descriptors above, or `unrecognized` carrying evidence.  The engine
never silently converts an unrecognized answer into a guess.  `value_of` and
`descriptor_of` translate between a descriptor and the value it stands for.
"""

from .errors import InvalidInput
from .modules import (ModuleMap, _capped_killing_power,
                      _killing_power, _same_module, base_change,
                      quotient_by_ideal_power, scalar_map, scalar_matrix)


class Descriptor:
    kind = "abstract"


class FPObj(Descriptor):
    kind = "fp"

    def __init__(self, module):
        self.module = module
        self.ring = module.ring

    def describe(self):
        return {"kind": "fp", "module": self.module.describe()}

    def __repr__(self):
        return f"<fp {self.module!r}>"


class Telescope(Descriptor):
    """u^-1 M as the mapping telescope of multiplication by u."""

    kind = "telescope"

    def __init__(self, module, mult):
        self.module = module
        self.ring = module.ring
        self.mult = self.ring.el(mult)
        if self.mult.is_zero():
            raise InvalidInput("telescope multiplier must be nonzero")

    def describe(self):
        return {"kind": "telescope", "module": self.module.describe(),
                "mult": self.mult.render()}

    def __repr__(self):
        return f"<telescope by {self.mult.render()} on {self.module!r}>"


class TelescopeQuotient(Descriptor):
    """u^-1 M / M; stages M/u^k M with injective u-multiplication maps."""

    kind = "telescope_quotient"

    def __init__(self, module, mult):
        self.module = module
        self.ring = module.ring
        self.mult = self.ring.el(mult)
        # u must act injectively on M, else the stage maps are not
        # inclusions; over A^ that is certified over A (A^ is flat over A)
        base = self.ring.underlying()
        K, _ = scalar_map(base_change(module, base),
                          base.el(self.mult)).kernel()
        if not K.is_zero():
            raise InvalidInput("telescope quotient needs an injective multiplier")

    def stage(self, k):
        """M/u^k M."""
        return quotient_by_ideal_power(self.module, [self.mult], k)

    def stage_map(self, k):
        """Multiplication by u: stage k -> stage k+1 (injective)."""
        return ModuleMap(self.stage(k), self.stage(k + 1), scalar_matrix(
            self.ring, self.module.ngens, self.mult), check=False)

    def describe(self):
        return {"kind": "telescope_quotient", "module": self.module.describe(),
                "mult": self.mult.render()}

    def __repr__(self):
        return f"<colim {self.module!r}/{self.mult.render()}^k>"


class Rational(Descriptor):
    """Q^dim viewed over the integers; integers act invertibly."""

    kind = "rational"

    def __init__(self, ring, dim=1):
        if ring.base != "Z" or ring.nvars != 0:
            raise InvalidInput("rational descriptors live over Z")
        if type(dim) is not int or dim < 0:
            raise InvalidInput(
                f"dim must be a non-negative integer, not {dim!r}")
        self.ring = ring
        self.dim = dim

    def describe(self):
        return {"kind": "rational", "dim": self.dim}

    def __repr__(self):
        return f"<Q^{self.dim}>"


class CompletionCokernel:
    """coker(M -> completion of M); zero iff M is already complete.

    Carries the free rank of M (over euclidean rings), which measures the
    cokernel: coker = (completion/ring)^rank there.
    """

    def __init__(self, module, ideal_gens, free_rank=None, witness=None):
        self.module = module
        self.ideal_gens = tuple(ideal_gens)
        self.free_rank = free_rank
        self.witness = witness

    def is_zero(self):
        return self.free_rank == 0

    def describe(self):
        return {"kind": "completion_cokernel",
                "module": self.module.describe(),
                "ideal": [g.render() for g in self.ideal_gens],
                "free_rank": self.free_rank,
                "witness": self.witness}


# the LimitModule kinds whose payload is a descriptor
_DESCRIPTOR_KINDS = ("telescope", "telescope_quotient", "rational")


class LimitModule:
    """A recognized exact value, stamped with its precision when completed."""

    def __init__(self, kind, payload=None, precision=None, basis=None, evidence=None):
        assert kind in ("zero", "module", "completion_cokernel", "telescope",
                        "telescope_quotient", "rational", "ind", "unrecognized")
        self.kind = kind
        self.payload = payload
        self.precision = precision
        self.basis = basis          # short tag naming the recognition rule
        self.evidence = evidence

    @classmethod
    def zero(cls, basis=None):
        return cls("zero", basis=basis)

    @classmethod
    def of_module(cls, M, basis=None, nonzero=False):
        """The value M; ``nonzero``: the caller has already found M nonzero,
        so its zero test is not asked again."""
        precision = M.ring.precision if M.ring.is_completed else None
        if not nonzero and M.is_zero():
            return cls("zero", basis=basis, precision=precision)
        return cls("module", M, precision=precision, basis=basis)

    @classmethod
    def unrecognized(cls, evidence):
        return cls("unrecognized", evidence=evidence)

    def is_zero(self):
        if self.kind == "zero":
            return True
        if self.kind == "module":
            return self.payload.is_zero()
        if self.kind == "completion_cokernel":
            return self.payload.is_zero() if isinstance(self.payload, CompletionCokernel) \
                else False
        return False

    def is_recognized(self):
        return self.kind != "unrecognized"

    def describe(self):
        out = {"kind": self.kind}
        if self.basis:
            out["basis"] = self.basis
        if self.precision is not None:
            out["precision"] = self.precision
        if self.kind == "module":
            out["module"] = self.payload.describe()
            out["ring"] = repr(self.payload.ring)
        elif self.kind in _DESCRIPTOR_KINDS:
            out["value"] = self.payload.describe()
        elif self.kind == "completion_cokernel":
            out.update(self.payload.describe())
        elif self.kind == "ind":
            out["value"] = self.payload
        elif self.kind == "unrecognized":
            out["evidence"] = self.evidence
        return out

    def __repr__(self):
        if self.kind == "zero":
            return "<0>"
        if self.kind == "module":
            return f"<value {self.payload!r}>"
        return f"<{self.kind} value>"


def value_of(desc, basis=None):
    """The LimitModule a descriptor stands for.  A telescope u^-1 M whose
    multiplier is nilpotent on M is zero, and so is Q^0."""
    if desc.kind == "fp":
        return LimitModule.of_module(desc.module, basis=basis)
    if desc.kind == "telescope" and _capped_killing_power(desc.module,
                                                          [desc.mult]):
        return LimitModule("zero", precision=desc.ring.precision,
                           basis="telescope of a nilpotent multiplier")
    if desc.kind == "rational" and desc.dim == 0:
        return LimitModule.zero(basis="Q^0 is the zero module")
    # every other descriptor is of one of _DESCRIPTOR_KINDS
    return LimitModule(desc.kind, desc, basis=basis)


def descriptor_of(value):
    """The descriptor a LimitModule stands for, or None when it stands for
    none: zero, completion cokernels, ind and unrecognized values."""
    if value.kind == "module":
        return FPObj(value.payload)
    if value.kind in _DESCRIPTOR_KINDS:
        return value.payload
    return None


def values_agree(a, b):
    """Exact comparison of two LimitModules, at the coarser precision.

    Returns (bool, detail).  Module values over completed rings are compared
    by canonical invariant factors (euclidean) or by the presentations after
    reduction to the common precision.
    """
    if a.kind == "zero" or b.kind == "zero":
        return (a.is_zero() and b.is_zero(),
                "zero comparison")
    if a.kind != b.kind:
        return False, f"kinds differ: {a.kind} vs {b.kind}"
    if a.kind == "module":
        Ma, Mb = a.payload, b.payload
        if Ma.ring == Mb.ring:
            return _same_module(Ma, Mb), (
                "invariant factors" if Ma.ring.is_euclidean
                else "presentation comparison")
        ra, rb = Ma.ring, Mb.ring
        if ra.is_completed and rb.is_completed and ra.underlying() == rb.underlying():
            # one ideal, in whatever order it is listed, is one completion
            prec = min(ra.precision, rb.precision)
            Ma2 = change_precision(Ma, prec)
            same = set(ra.completion[0]) == set(rb.completion[0])
            return (same and _same_module(Ma2, base_change(Mb, Ma2.ring)),
                    f"compared at precision {prec}")
        if rb.is_completed and ra == rb.underlying():
            return values_agree(b, a)
        if ra.is_completed and rb == ra.underlying():
            # a torsion module killed by a power of I equals its completion
            if _killing_power(Mb, ra.completion[0], 24) is not None:
                return (_same_module(Ma, base_change(Mb, ra)),
                        "I-power-torsion module compared after completion")
            return False, ("modules over the discrete ring must be I-power "
                           "torsion to equal a completed value")
        return False, f"rings differ: {ra} vs {rb}"
    if a.kind == "rational":
        return a.payload.dim == b.payload.dim, "rational dimension"
    if a.kind in ("telescope", "telescope_quotient"):
        da, db = a.payload, b.payload
        if da.ring == db.ring:
            if not (da.mult == db.mult):
                return False, "multipliers differ"
            return _same_module(da.module, db.module), (
                "descriptor base modules" if da.ring.is_euclidean
                else "descriptor presentations")
        if a.kind == "telescope_quotient":
            ra, rb = da.ring, db.ring
            ua, ub = ra.underlying(), rb.underlying()
            if ua == rb or ub == ra or ua == ub:
                # one side lives over a completion of the other: compare the
                # materialized stage systems at the available precision
                bound = min(r.precision for r in (ra, rb) if r.is_completed)
                bound = min(bound - 1, 8) if bound else 8
                for k in range(1, bound + 1):
                    if not _same_module(da.stage(k), db.stage(k)):
                        return False, f"stages differ at k={k}"
                return True, f"stage systems agree through k={bound}"
        return False, "rings differ"
    if a.kind == "completion_cokernel":
        return a.payload.describe() == b.payload.describe(), "cokernel descriptor"
    if a.kind == "ind":
        # symbolic values compare by their full structural description
        return a.describe() == b.describe(), "symbolic descriptor comparison"
    return False, "unrecognized values never compare equal"


def change_precision(M, prec):
    """Reduce a module over a completed ring to a coarser precision."""
    ring = M.ring
    if not ring.is_completed or ring.precision == prec:
        return M
    if prec > ring.precision:
        raise InvalidInput("cannot refine precision of a computed answer")
    new_ring = ring.at_precision(prec)
    return base_change(M, new_ring)
