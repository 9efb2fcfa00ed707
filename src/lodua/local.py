"""Torsion and derived-completion functors, local (co)homology, and the
Greenlees-May comparison.

Everything operates on graded objects: finite formal sums of descriptors
placed in homological degrees.  On the torsion side `local_cohomology_value`
answers H^s_I by its recognition rules, and H^0_I by the stabilized chain of
I^k-torsion submodules; the completion side is computed by two routes that
are cross-checked:

  route A: iterated one-generator derived completion via the
           telescope/completion-comparison model RHom(x^-1 A, M) = [M -> M^];
  route B: Milnor sequences over the towers Kos(x^k) (x) C.

Any disagreement between the routes is a hard InternalInconsistency.  Every
supported ring is Noetherian, and in a Noetherian ring every finite sequence
is weakly proregular (Schenzel, Math. Scand. 92, 2003; Porta, Shaul and
Yekutieli, Algebr. Represent. Theory 17, 2014), so the towers of route B in
degrees 1..n+1 are pro-zero and its Milnor sequences leave the limit of the
adic tower in degree 0.  The routes are therefore not fully independent:
that limit is the same `completed_module` base change route A computes.
What route B adds is the adic stage cross-check (over euclidean rings, the
first min(K, 3) stages against the completed presentation), and over a
completed ring without variables (Z_p, Z_p[1/u]) only, the lag probes of
the Koszul-stage towers in degrees 1..n.

The Ext engine for descriptor pairs lives here too, in two rules:
`ext_out_of_fp` (f.p. source, any target descriptor) and
`ext_out_of_telescope`, which assembles Ext out of x^-1 C from lim and lim^1
of the multiplication towers on Ext(C, -) through the Milnor sequence.  The
derived Hom groups of the adjunction check and the cells of the
completeness grid (`criteria.ext_telescope`) both call it.
"""

from .complexes import ChainComplex
from .descriptors import (Descriptor, FPObj, LimitModule, Rational,
                          Telescope, TelescopeQuotient, descriptor_of,
                          value_of, values_agree)
from .errors import InternalInconsistency, InvalidInput, UnsupportedRing
from .koszul import koszul_cochain
from .linalg import member
from .modules import (FPModule, ModuleMap, _capped_killing_power, base_change,
                      block_sum, ext as module_ext, iso_check, power,
                      quotient_by_ideal_power, scalar_matrix,
                      stable_submodule)
from .ring import _reject_zerodivisor
from .sequences import is_regular_sequence
from .towers import (KoszulTensorStages, Tower, _require_radical_membership,
                     completed_module, completed_ring, lim_lim1,
                     mult_tower_values)


class IdealData:
    """An ordered generating sequence with its regularity certificate."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(ring.el(g) for g in gens)
        if any(g.is_zero() for g in self.gens):
            raise InvalidInput("ideal generators must be nonzero")
        self._regular = None

    @property
    def n(self):
        return len(self.gens)

    def regular_certificate(self):
        """The one regularity certificate of the sequence, computed once;
        over a completion its injectivity steps are certified in the
        underlying ring (``is_regular_sequence``)."""
        if self._regular is None:
            self._regular = is_regular_sequence(self.ring, self.gens)
        return self._regular

    def describe(self):
        return {"gens": [g.render() for g in self.gens], "ring": repr(self.ring)}


# -- graded objects -------------------------------------------------------------


class GradedObject:
    """A finite formal sum of descriptors in homological degrees."""

    def __init__(self, ring, pieces):
        self.ring = ring
        self.pieces = {d: p for d, p in pieces.items()
                       if not (p.kind == "fp" and p.module.is_zero())}

    @classmethod
    def of(cls, x):
        if isinstance(x, GradedObject):
            return x
        if isinstance(x, ChainComplex):
            return cls.from_complex(x)
        if isinstance(x, FPModule):
            return cls(x.ring, {0: FPObj(x)})
        if isinstance(x, Descriptor):
            return cls(x.ring, {0: x})
        raise InvalidInput(f"cannot grade {x!r}")

    @classmethod
    def from_complex(cls, C):
        """Split a bounded complex into its homology, when that is justified.

        Valid when the ring is hereditary (Z, fields, k[t], completed Z,
        Z[1/p]) so every complex is formal, or when at most one homology
        module is nonzero (then the complex is quasi-isomorphic to it).
        """
        ring = C.ring
        homs = {n: C.homology(n) for n in C.degrees()}
        nonzero = {n: H for n, H in homs.items() if not H.is_zero()}
        if len(nonzero) <= 1 or ring.is_euclidean:
            return cls(ring, {n: FPObj(H) for n, H in nonzero.items()})
        raise UnsupportedRing(
            "cannot split a complex with several nonzero homologies over "
            f"{ring}; provide a formal graded object instead")


class ValueTable:
    """degree -> LimitModule, with zero outside the stored range."""

    def __init__(self, entries, meta=None):
        self.entries = {d: v for d, v in entries.items() if not v.is_zero()}
        self.meta = meta or {}

    def value(self, n):
        return self.entries.get(n, LimitModule.zero())

    def as_graded_object(self, ring, name):
        """The table as a GradedObject of descriptors, for re-consumption;
        ``name`` (Gamma, Lambda) labels the refusal of a piece that is not."""
        pieces = {}
        for n, v in self.entries.items():
            pieces[n] = descriptor_of(v)
            if pieces[n] is None:
                raise UnsupportedRing(
                    f"{name} output in degree {n} is not re-consumable: "
                    f"{v.kind}")
        return GradedObject(ring, pieces)

    def is_zero(self):
        return not self.entries

    def describe(self):
        out = {str(d): v.describe() for d, v in sorted(self.entries.items())}
        if self.meta:
            out["meta"] = self.meta
        return out

    def __repr__(self):
        if not self.entries:
            return "<table 0>"
        return "<table " + ", ".join(f"{d}: {v!r}" for d, v in
                                     sorted(self.entries.items())) + ">"


def _add_value(acc, n, v):
    if v.is_zero():
        return
    if n not in acc:
        acc[n] = v
        return
    old = acc[n]
    if old.kind == "module" and v.kind == "module" and old.payload.ring == v.payload.ring:
        acc[n] = LimitModule.of_module(block_sum([old.payload, v.payload]),
                                       basis="direct sum")
    else:
        acc[n] = LimitModule("ind", {"sum": [old.describe(), v.describe()]},
                             basis="direct sum of values")


# -- Koszul and Cech models ------------------------------------------------------


class CechComplex:
    """The stable Koszul complex: the tensor of the telescopes A -> x_i^-1 A.

    Term -j is the sum of x_S^-1 A over |S| = j (homological indexing).  Its
    materialization at stage k is the Koszul cochain complex on x^k, and the
    colimit over k is the torsion functor applied to the unit.
    """

    def __init__(self, d):
        self.ideal = d
        self.ring = d.ring

    def term_descriptors(self, j):
        from itertools import combinations
        ring = self.ring
        out = []
        for S in combinations(range(self.ideal.n), j):
            u = ring.one()
            for i in S:
                u = u * self.ideal.gens[i]
            if j == 0:
                out.append(FPObj(FPModule.free(ring, 1)))
            else:
                out.append(Telescope(FPModule.free(ring, 1), u))
        return out

    def stage(self, k):
        return koszul_cochain(self.ring, self.ideal.gens, k)

    def is_acyclic(self):
        """True when some generator is a unit (the unit-ideal case)."""
        return any(g.is_unit() for g in self.ideal.gens)

    def top_cokernel_descriptor(self):
        """For one generator: coker(A -> x^-1 A) = colim A/x^k."""
        if self.ideal.n != 1:
            raise InvalidInput("single-generator form only")
        return TelescopeQuotient(FPModule.free(self.ring, 1), self.ideal.gens[0])

    def homology(self, n):
        return gamma(self.ideal, FPModule.free(self.ring, 1)).value(n)

    def describe(self):
        return {"terms": {str(-j): [t.describe() for t in self.term_descriptors(j)]
                          for j in range(self.ideal.n + 1)}}


def stable_koszul_complex(d):
    cx = CechComplex(d)
    if not cx.is_acyclic():
        for x in d.gens:
            _reject_zerodivisor(d.ring, x)
    return cx


# -- the torsion side ------------------------------------------------------------


_TORSION_STAGES = 8   # of the torsion chain of H^0_I


def local_cohomology_value(d, desc, s):
    """H^s_I(desc) as a recognized exact value."""
    ring = d.ring
    n = d.n
    if s < 0 or s > n:
        return LimitModule.zero(basis="outside Koszul range")
    if desc.kind == "rational":
        return LimitModule.zero(basis="ideal acts invertibly on Q")
    if desc.kind == "telescope":
        _require_radical_membership(ring, desc.mult, d.gens)
        return LimitModule.zero(basis="multiplier of the telescope lies in I")
    if desc.kind == "telescope_quotient":
        _require_radical_membership(ring, desc.mult, d.gens)
        return local_cohomology_value(d, FPObj(desc.module), s + 1)
    M = desc.module
    if M.ring != ring:
        if M.ring.is_completed and M.ring.underlying() == ring:
            # an A^-module is I A^-torsion the same way: coerce the ideal
            return local_cohomology_value(IdealData(M.ring, d.gens), desc, s)
        raise InvalidInput("descriptor lives over a different ring")
    if M.is_zero():
        return LimitModule.zero()
    if s == 0:
        return _torsion_submodule(d, M)
    # split euclidean modules into free and torsion cyclic pieces first;
    # torsion pieces contribute nothing above degree zero (each splits into
    # an I-nilpotent part and a part on which I acts invertibly)
    if ring.is_euclidean:
        factors, rank = M.decomposition()
        if factors and not rank:
            return LimitModule.zero(
                basis="torsion piece: no higher local cohomology over a "
                      "euclidean ring")
        if factors or rank != M.ngens or M.relations:
            # only the free part contributes above degree zero
            M = FPModule.free(ring, rank)
    nil = _ideal_nilpotent_on(d, M)
    if nil is not None:
        return LimitModule.zero(
            basis=f"I^{nil} kills M: torsion modules have no higher "
                  "local cohomology")
    free = not M.relations
    if free and n == 1:
        x = d.gens[0]
        # s = n = 1: top local cohomology of a free module over a domain
        stage1 = quotient_by_ideal_power(M, [x], 1)
        if stage1.is_zero():
            return LimitModule.zero(basis="x acts surjectively")
        tq = TelescopeQuotient(M, x)
        return LimitModule("telescope_quotient", tq,
                           precision=ring.precision,
                           basis="top local cohomology at one generator")
    if free and s == n:
        cert = d.regular_certificate()
        if cert.regular:
            _verify_top_witness(d, M)
            return LimitModule(
                "ind",
                {"system": "colim_k M/(x^k)M along multiplication by prod(x)",
                 "witness": "the class of (prod x)^(k-1) survives every stage",
                 "module": M.describe()},
                basis="top local cohomology of a regular sequence is nonzero")
        return LimitModule.unrecognized("no regularity certificate")
    if free and 0 < s < n:
        cert = d.regular_certificate()
        if cert.regular:
            return LimitModule.zero(
                basis="Koszul cohomology of a regular sequence vanishes "
                      "below the top")
    return LimitModule.unrecognized(
        {"reason": "no recognition rule for this module in middle degrees",
         "module": M.describe(), "degree": s})


def _torsion_submodule(d, M):
    """H^0_I(M): the stabilized ascending chain of I^k-torsion submodules.

    Over a completed polynomial ring A^ the chain runs over A, where it
    does not stop at I^N as in the A/I^N model, and H^0 comes back by base
    change: A^ is flat over A.  When the chain reaches all of M (I is
    nilpotent on M), the answer is M as presented."""
    ring = M.ring
    over = M
    if ring.is_completed and ring.nvars:
        A = ring.underlying()
        over = base_change(M, A)
        d = IdealData(A, d.gens)
    found = stable_submodule(over, lambda k: _power_torsion_gens(d, over, k),
                             _TORSION_STAGES)
    if found is None:
        return LimitModule.unrecognized(
            f"torsion chain did not stabilize within {_TORSION_STAGES} stages")
    k, gens = found
    sub = over.submodule(gens)
    basis = f"torsion chain stabilized at {k}"
    if sub.is_zero():
        return LimitModule.zero(basis=basis)
    # over a euclidean ring values compare by invariants, so the chain's
    # presentation serves; elsewhere they compare presentations, and an
    # I-torsion M is its own H^0 as presented
    if not ring.is_euclidean and all(
            member(over.ring, gens + over.relations, over.gen(i), over.ngens)
            for i in range(over.ngens)):
        return LimitModule.of_module(M, basis=basis, nonzero=True)
    # base_change returns sub itself when the chain ran over M's ring
    return LimitModule.of_module(base_change(sub, ring), basis=basis,
                                 nonzero=over is M)


def _power_torsion_gens(d, M, k):
    """Generators of {m : x_i^k m = 0 for all i}: the kernel of the map
    M -> M^n stacking the multiplications by x_i^k."""
    rows = [row for x in d.gens
            for row in scalar_matrix(M.ring, M.ngens, x ** k)]
    K, incl = ModuleMap(M, power(M, len(d.gens)), rows, check=False).kernel()
    return [incl.col(t) for t in range(K.ngens)]


def _ideal_nilpotent_on(d, M):
    """The least j with I^j M = 0, or None; M may live over the completion,
    where only j below the precision count (``_capped_killing_power``)."""
    if M.ring != d.ring and not (M.ring.is_completed
                                 and M.ring.underlying() == d.ring):
        raise InvalidInput("module lives over a different ring")
    return _capped_killing_power(M, d.gens)


def _verify_top_witness(d, M):
    """The class of (prod x)^(k-1) must be nonzero in M/(x^k)M, k <= 4,
    checked in the ring of the regularity certificate: over a completion,
    its underlying ring, where (prod x)^(k-1) is not cut off by I^N."""
    ring = d.ring.underlying()
    M = base_change(M, ring)
    gens = [ring.el(x) for x in d.gens]
    u = ring.one()
    for x in gens:
        u = u * x
    for k in range(1, 5):
        stage = quotient_by_ideal_power(M, [x ** k for x in gens], 1)
        wit = tuple(u ** (k - 1) * e for e in M.gen(0))
        if stage.contains_in_relations(wit):
            raise InternalInconsistency(
                f"top witness died at stage {k}; regularity certificate wrong")


class GammaObject:
    """Gamma_I X = (stable Koszul complex) (x) X, with its homology table.

    The smashing identity Gamma_I X = Gamma_I(A) (x) X holds by construction:
    `construction` records exactly that tensor decomposition.
    """

    def __init__(self, ideal, source, table):
        self.ideal = ideal
        self.source = source
        self.table = table
        self.construction = ("tensor", "stable_koszul(A)", "X")

    def value(self, n):
        return self.table.value(n)

    def as_graded_object(self):
        return self.table.as_graded_object(self.ideal.ring, "Gamma")

    def describe(self):
        return {"construction": list(self.construction),
                "homology": self.table.describe()}


def gamma(d, X):
    """The derived I-torsion functor, as a homology table with certificates."""
    obj = GradedObject.of(X)
    acc = {}
    for dgr, piece in obj.pieces.items():
        for s in range(0, d.n + 1):
            v = local_cohomology_value(d, piece, s)
            _add_value(acc, dgr - s, v)
    return GammaObject(d, obj, ValueTable(acc))


def local_cohomology(d, M, s):
    """H^s_I(M) for a module or descriptor."""
    obj = GradedObject.of(M)
    if list(obj.pieces) not in ([0], []):
        raise InvalidInput("local_cohomology expects a single-degree input")
    piece = obj.pieces.get(0)
    if piece is None:
        return LimitModule.zero()
    return local_cohomology_value(d, piece, s)


# -- the completion side ----------------------------------------------------------


def _lambda_route_A(d, M):
    """The telescope-model route on an f.p. piece, {degree: value}.

    One generator at a time, RHom(x^-1 A, M) = [M -> M^] turns derived
    completion of M into completion of its presentation; the iteration over
    all generators collapses to base change to the jointly completed ring.
    """
    out = completed_module(M, list(d.gens))
    if out.is_zero():
        return {}
    return {0: LimitModule.of_module(
        out, basis="iterated completion of an f.p. module (Artin-Rees)",
        nonzero=True)}


def _lambda_route_B(d, M):
    """Milnor sequences over the towers Kos(x^k) (x) M; {degree: value}.
    The sequence is weakly proregular, so the towers of degrees 1..n+1 are
    pro-zero and route B is the limit of the adic tower in degree 0.  Over
    a completed ring without variables (Z_p, Z_p[1/u]) the Koszul-stage
    towers of degrees 1..n are still asked of the tower table, for their
    lag probe's stage cross-check."""
    lim = lim_lim1(Tower.adic(M, d.gens)).lim
    if M.ring.is_completed and M.ring.nvars == 0:
        stages = KoszulTensorStages(M, d.gens)
        for s in range(1, d.n + 1):
            lim_lim1(stages.tower(s))
    return {} if lim.is_zero() else {0: lim}


def _milnor_value(lim, lim1):
    """The middle term of 0 -> lim^1 -> X -> lim -> 0 when an outer term
    vanishes; unrecognized, with both terms as evidence, when either term
    is; None when both are nonzero, which ``ext_out_of_telescope`` reports
    as a Milnor extension."""
    if not lim.is_recognized() or not lim1.is_recognized():
        return LimitModule.unrecognized({"lim": lim.describe(),
                                         "lim1": lim1.describe()})
    if lim1.is_zero():
        return lim
    if lim.is_zero():
        return lim1
    return None


def _completed_pieces(d, X):
    """The f.p. modules both routes complete, as (degree, module) pairs:
    rationals and telescopes supported on I die (the multiplier becomes
    invertible), and a telescope quotient u^-1 M / M contributes M one
    degree up through its defining triangle."""
    for dgr, piece in GradedObject.of(X).pieces.items():
        if piece.kind == "rational":
            continue
        if piece.kind in ("telescope", "telescope_quotient"):
            _require_radical_membership(d.ring, piece.mult, d.gens)
            if piece.kind == "telescope":
                continue
            dgr += 1
        yield dgr, piece.module


def derived_completion(d, X):
    """Lambda^I X computed by both routes and cross-checked degreewise.

    Both routes take the f.p. pieces of ``_completed_pieces``.
    Completions are taken at the precision setting (unset: the ring's own,
    or 20 over a discrete ring), and the K and lag settings bound route B's
    probes over a completed ring without variables.  No weak-proregularity
    question is asked: every finite sequence of a Noetherian ring is weakly
    proregular.
    """
    accA, accB = {}, {}
    for dgr, M in _completed_pieces(d, X):
        for s, v in _lambda_route_A(d, M).items():
            _add_value(accA, s + dgr, v)
        for s, v in _lambda_route_B(d, M).items():
            _add_value(accB, s + dgr, v)
    degrees = set(accA) | set(accB)
    for n in degrees:
        va = accA.get(n, LimitModule.zero())
        vb = accB.get(n, LimitModule.zero())
        if not va.is_recognized() or not vb.is_recognized():
            # route A returns a completed module and route B an adic limit,
            # and both are always recognized
            raise InternalInconsistency(
                f"derived completion unrecognized in degree {n}")
        ok, detail = values_agree(va, vb)
        if not ok:
            raise InternalInconsistency(
                f"route disagreement in degree {n}: {detail}; "
                f"A={va.describe()} B={vb.describe()}")
    return ValueTable(accA, meta={"routes": "telescope model and Koszul towers "
                                            "agree degreewise"})


def local_homology_Ls(d, desc, s):
    """L_s via the Greenlees-May extension of lim Tor_s by lim^1 Tor_(s+1).

    Only the Tor_s tower is materialized.  The Tor_(s+1) tower is built as
    an object, so its descriptor checks run; when it is a Tor tower in
    positive degree, Artin-Rees makes it pro-zero and its lim^1 is zero
    without any stage built.  Any other kind (the zero tower, or at s = 0
    the adic tower of a telescope quotient, with its stage cross-check)
    goes through ``lim_lim1``.  ``gm_ses_check`` materializes both towers.
    """
    desc = _as_descriptor(desc, d.ring)
    lim = lim_lim1(Tower.tor(desc, d.gens, s)).lim
    nxt = Tower.tor(desc, d.gens, s + 1)
    if nxt.kind == "tor":
        lim1 = LimitModule.zero(basis="Artin-Rees: lim^1 of a Tor tower in "
                                      "positive degree vanishes")
    else:
        lim1 = lim_lim1(nxt).lim1
    return _local_homology(d, desc, s, lim, lim1)


def _local_homology(d, desc, s, lim, lim1):
    """L_s, the extension of lim Tor_s by lim^1 Tor_(s+1): the sequence is
    weakly proregular, so L_s is H_s of the derived completion
    (Greenlees-May) without Lambda being computed.  The completed ring of
    each piece Lambda would complete is still built, so an ideal whose
    completion has no model is refused even where every Tor tower
    vanishes."""
    if not lim.is_recognized() or not lim1.is_zero():
        # both callers pass limits of towers Tower.tor builds: zero, adic
        # or Tor towers, whose lim is always recognized and whose lim^1 is
        # zero (tests/test_towers.py::test_tor_towers_have_no_lim1)
        raise InternalInconsistency(
            f"Greenlees-May extension unresolved: lim {lim.describe()}, "
            f"lim^1 {lim1.describe()}")
    for _, M in _completed_pieces(d, desc):
        completed_ring(M.ring, d.gens)
    return lim


def _as_descriptor(x, ring):
    if isinstance(x, Descriptor):
        return x
    if isinstance(x, FPModule):
        return FPObj(x)
    raise InvalidInput(f"expected a module or descriptor, got {x!r}")


def gm_ses_check(d, desc, s):
    """Materialize 0 -> lim^1 Tor_(s+1) -> L_s -> lim Tor_s -> 0 and certify it."""
    desc = _as_descriptor(desc, d.ring)
    t_s, t_s1 = [lim_lim1(Tower.tor(desc, d.gens, t)) for t in (s, s + 1)]
    left, right = t_s1.lim1, t_s.lim
    # an InternalInconsistency unless the right term is recognized and the
    # left one vanishes
    L = _local_homology(d, desc, s, right, left)
    ok, detail = values_agree(L, right)
    if not ok:
        raise InternalInconsistency(f"GM sequence fails exactness: {detail}")
    if right.kind == "module" and L.kind == "module" \
            and L.payload.ring == right.payload.ring \
            and L.payload.ring.is_euclidean:
        witness = iso_check(L.payload, right.payload).reason
    else:
        witness = detail
    return {"status": "exact",
            "lim1_tor_next": left.describe(),
            "L_s": L.describe(),
            "lim_tor": right.describe(),
            "exactness": ("left term vanishes; the epimorphism "
                          "L_s -> lim Tor_s is the certified isomorphism "
                          f"({detail})"),
            "witness": witness}


def adic_completion(M, d):
    """C^I(M): the same presentation base-changed to A^, stamped with the
    precision N it was taken at.

    The natural map M -> C^I(M) sends generator i to generator i.
    """
    out = completed_module(M, list(d.gens))
    nat = {"map": "generator i -> generator i",
           "source": M.describe(), "target": out.describe(),
           "precision": out.ring.precision}
    return out, nat


# -- the Ext engine, derived Hom groups and the adjunction spot-check -----------


def ext_out_of_fp(C, target, q):
    """Ext^q(C, target) for an f.p. module C, as a LimitModule.

    The target may be f.p. over A or over its completion, Q^d, u^-1 N or
    u^-1 N / N.
    """
    ring = C.ring
    if target.kind == "fp":
        N = target.module
        if N.ring == ring:
            return LimitModule.of_module(module_ext(C, N, q),
                                         basis="Ext of f.p. modules")
        if N.ring.is_completed and N.ring.underlying() == ring:
            return LimitModule.of_module(
                module_ext(base_change(C, N.ring), N, q),
                basis="flat base change to the completion")
        raise UnsupportedRing(f"no Ext rule from {ring} into {N.ring}")
    if target.kind == "telescope":
        # Ext^q(C, u^-1 N) = u^-1 Ext^q(C, N): localization is flat
        inner = ext_out_of_fp(C, FPObj(target.module), q)
        if inner.is_zero():
            return inner
        return value_of(Telescope(inner.payload, target.mult),
                        basis="localization is flat")
    if target.kind == "rational":
        # Q is injective over Z, and Hom(C, Q^d) = Q^(rd) for C of free rank
        # r.  Over rings without invariant factors only the grid asks, and its
        # stages A/(x_1..x_(i-1)) with relations are torsion.
        if q == 0 and not C.relations:
            rank = C.ngens
        elif q == 0 and ring.is_euclidean:
            rank = C.decomposition()[1]
        else:
            rank = 0
        if rank:
            return value_of(Rational(target.ring, rank * target.dim),
                            basis="Hom(free, Q)")
        return LimitModule.zero(basis="Q is divisible and torsion-free")
    # the last kind: a telescope quotient
    if C.ngens != 1 or C.relations:
        raise UnsupportedRing(
            "telescope-quotient targets are supported at the first stage "
            "only")
    if q == 0:
        return value_of(target, basis="Hom(A, N) = N")
    return LimitModule.zero(basis="A is projective")


def ext_out_of_telescope(C, x, target, q, towers=None):
    """Ext^q(x^-1 C, target) for an f.p. module C, through the Milnor sequence

        0 -> lim^1 Ext^(q-1)(C, target) -> Ext^q(x^-1 C, target)
          -> lim Ext^q(C, target) -> 0

    of the towers of multiplication by x (Greenlees-May).  ``towers`` maps p
    to the tower values on Ext^p(C, target), None when that Ext vanishes;
    Ext^q enters both q and q + 1, so a caller asking several degrees of one
    C passes one dict to all of them.
    """
    if towers is None:
        towers = {}
    for p in (q - 1, q):
        if p in towers:
            continue
        ext = descriptor_of(ext_out_of_fp(C, target, p)) if p >= 0 else None
        towers[p] = None if ext is None else mult_tower_values(
            ext, _coerce(ext.ring, x))
    low, high = towers[q - 1], towers[q]
    lim1 = low.lim1 if low else LimitModule.zero(basis="Ext module vanishes")
    lim = high.lim if high else LimitModule.zero(basis="Ext module vanishes")
    value = _milnor_value(lim, lim1)
    if value is None:
        return LimitModule("ind",
                           {"extension": [lim1.describe(), lim.describe()]},
                           basis="Milnor extension, both terms nonzero")
    return value


def _coerce(ring, x):
    """x read in ``ring``: its own ring or a completion of it."""
    if ring == x.ring:
        return x
    if ring.is_completed and ring.underlying() == x.ring:
        return ring.el(x)
    raise UnsupportedRing(f"cannot act by {x.render()} on {ring}")


def derived_hom_value(D1, i, D2, j):
    """Hom in the derived category between shifted descriptors.

    Hom(M[i], N[j]) = Ext^(j-i)(M, N); sources may be f.p., telescopes, or
    telescope quotients on free modules.  Values are exact LimitModules.
    """
    q = j - i
    if q < 0:
        return LimitModule.zero(basis="negative Ext degree")
    return ext_of_descriptors(D1, D2, q)


def ext_of_descriptors(D1, D2, q):
    """Ext^q(D1, D2) into f.p. targets, and into Q^d out of Z or Z^.

    f.p. and telescope sources go to the Ext engine, telescope-quotient
    sources (free, over a euclidean ring) to the adic tower of the target.
    Telescope and telescope-quotient targets are refused here although the
    engine takes them for the grid, and so are all targets but f.p. ones
    out of a telescope quotient; widening derived Hom to them is open.
    """
    if D1.kind in ("fp", "telescope") and not (
            D2.kind == "fp" or D2.kind == "rational"
            and D1.ring.base == "Z" and D1.ring.nvars == 0):
        raise UnsupportedRing(f"no Ext rule for target {D2.kind}")
    if D1.kind == "fp":
        return ext_out_of_fp(D1.module, D2, q)
    if D1.kind == "telescope":
        return ext_out_of_telescope(D1.module, D1.mult, D2, q)
    if D1.kind == "telescope_quotient":
        M, u = D1.module, D1.mult
        if M.relations or not M.ring.is_euclidean:
            raise UnsupportedRing(
                "telescope-quotient sources are supported on free modules "
                "over euclidean rings")
        if D2.kind != "fp":
            raise UnsupportedRing("need an f.p. target")
        r = M.ngens
        if q == 0:
            # Hom(colim M/u^k, N) = lim N[u^k] with u-transitions: zero for
            # f.p. (or completed f.p.) targets, which have no divisible
            # u-torsion
            return LimitModule.zero(basis="f.p. targets have trivial Tate module")
        if q == 1:
            # 0 -> lim^1 Hom(M/u^k, N) -> Ext^1 -> lim Ext^1(M/u^k, N) -> 0;
            # the Hom tower has finite stages (Mittag-Leffler), and the Ext^1
            # tower is the adic tower of N, recognized by Artin-Rees
            N = D2.module
            res = lim_lim1(Tower.adic(N, [_coerce(N.ring, u)]))
            if not res.lim1.is_zero():
                raise InternalInconsistency("adic tower with nonzero lim^1")
            value = res.lim
            if r > 1 and value.kind == "module":
                value = LimitModule.of_module(power(value.payload, r),
                                              basis=value.basis)
            return value
        return LimitModule.zero(
            basis="stages have projective dimension one; higher Ext vanish")
    # the last kind: a rational source
    raise UnsupportedRing("rational sources are not needed and not supported")


def adjunction_check(d, X, Y):
    """[Gamma X, Y] = [X, Lambda Y] on connected components, materialized.

    Both sides are assembled from shifted Ext groups of the homology pieces
    and compared exactly; the report carries both tables.
    """
    gx = gamma(d, X)
    Xobj = GradedObject.of(X)
    lam = derived_completion(d, Y)
    Yobj = GradedObject.of(Y)
    gx_pieces = gx.as_graded_object()
    lam_pieces = lam.as_graded_object(d.ring, "Lambda")
    left = _hom_sum(gx_pieces.pieces, Yobj.pieces)
    right = _hom_sum(Xobj.pieces, lam_pieces.pieces)
    ok, detail = values_agree(left, right)
    if not ok:
        raise InternalInconsistency(
            f"adjunction check failed: {detail}; "
            f"left={left.describe()} right={right.describe()}")
    return {"status": "agree",
            "hom_gamma_x_y": left.describe(),
            "hom_x_lambda_y": right.describe(),
            "detail": detail}


def _hom_sum(src_pieces, tgt_pieces):
    acc = {}
    for i, D1 in src_pieces.items():
        for j, D2 in tgt_pieces.items():
            v = derived_hom_value(D1, i, D2, j)
            _add_value(acc, 0, v)
    return acc.get(0, LimitModule.zero())
