"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact; completed values are compared at precision 20,
the default over Z and over Z_5 at 20, unless the criterion's instance
states otherwise.  Bounds (stage bound K, lag) are pinned here, not tuned
at runtime.
"""

import random
from itertools import product

import pytest

from lodua import (ChainComplex, ChainMap, Comodule, FPModule, FPObj,
                   GradedObject, GroupLikeHopfAlgebroid, IdealData,
                   LimitModule, ModuleMap, Rational, Telescope,
                   TelescopeQuotient, adjunction_check, cone,
                   comodule_completion, derived_completion, gamma,
                   gm_ses_check, homology_membership, is_L_complete,
                   is_pro_trivial, is_regular_sequence, iso_check,
                   local_cohomology, local_homology_Ls, make_ring, settings,
                   values_agree, verify_theorems)
from lodua.modules import _same_presentation, quotient_by_ideal_power
from lodua.towers import Tower, completed_module, mult_tower_values

from conftest import koszul_pro_trivial

P = 5
PRECISION = 20


@pytest.fixture(scope="module")
def Z():
    return make_ring({"base": "Z"})


@pytest.fixture(scope="module")
def dZ(Z):
    return IdealData(Z, [P])


@pytest.fixture(scope="module")
def kxy():
    return make_ring({"base": "Q", "vars": ["x", "y"]})


@pytest.fixture(scope="module")
def dxy(kxy):
    return IdealData(kxy, ["x", "y"])


def z_suite(Z):
    """M in {Z, Z/p^3, Z + Z/p^3, Z/p^infty, Z[1/p], Q}."""
    from lodua.modules import direct_sum
    free = FPModule.free(Z, 1)
    m3 = FPModule.cyclic(Z, [P ** 3])
    both, _, _ = direct_sum(free, m3)
    return {
        "Z": FPObj(free),
        "Z/p^3": FPObj(m3),
        "Z+Z/p^3": FPObj(both),
        "Z/p^infty": TelescopeQuotient(free, Z.el(P)),
        "Z[1/p]": Telescope(free, Z.el(P)),
        "Q": Rational(Z, 1),
    }


def report(criterion, ok, detail=""):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def _is_zp(value, rank=1):
    """Exactly Z_p^rank presented over the completion at precision 20."""
    if value.kind != "module":
        return False
    M = value.payload
    return (M.ring.is_completed and M.ring.precision == PRECISION
            and M.ngens == rank and not M.relations)


def test_criterion_1_gm_ses_suite(Z, dZ):
    expected_L = {
        "Z": {0: "Zp"},
        "Z/p^3": {0: "torsion"},
        "Z+Z/p^3": {0: "mixed"},
        "Z/p^infty": {1: "Zp"},
        "Z[1/p]": {},
        "Q": {},
    }
    for name, desc in z_suite(Z).items():
        for s in (0, 1, 2):
            rep = gm_ses_check(dZ, desc, s)
            assert rep["status"] == "exact", (name, s, rep)
            want = expected_L[name].get(s)
            L = rep["L_s"]
            if want is None:
                assert L["kind"] == "zero", (name, s, L)
            elif want == "Zp":
                assert L["kind"] == "module" and L["module"] == {
                    "free_rank": 1, "torsion": []}, (name, s, L)
                assert L["precision"] == PRECISION
            elif want == "torsion":
                assert L["module"] == {"free_rank": 0,
                                       "torsion": [str(P ** 3)]}, (name, s, L)
            elif want == "mixed":
                assert L["module"] == {"free_rank": 1,
                                       "torsion": [str(P ** 3)]}, (name, s, L)
    report(1, True, "GM SES exact on all 18 instances, precision 20")


def _agrees_with_stage_quotients(d, value, M):
    """Lambda M / I^k Lambda M against the stage quotient M / I^k M for
    k <= 3.  The stage is I-power torsion over A, so ``values_agree``
    compares it with the completed value after base-changing its own
    presentation, never through ``completed_module``."""
    for k in (1, 2, 3):
        hat_stage = quotient_by_ideal_power(value.payload, d.gens, k)
        stage = quotient_by_ideal_power(M, d.gens, k)
        ok, why = values_agree(LimitModule.of_module(hat_stage),
                               LimitModule.of_module(stage))
        assert ok, (k, why)


def test_criterion_2_lambda_matches_stage_quotients(Z, dZ, kxy, dxy):
    # Lambda of each suite object: the degree each f.p. piece lands in, with
    # the invariants criterion 1 names for L_0 = Lambda, and every stage
    # quotient of the value equal to the module's own
    free = FPModule.free(Z, 1)
    suite = z_suite(Z)
    pieces = {"Z": {0: (free, (1, []))},
              "Z/p^3": {0: (suite["Z/p^3"].module, (0, [str(P ** 3)]))},
              "Z+Z/p^3": {0: (suite["Z+Z/p^3"].module, (1, [str(P ** 3)]))},
              "Z/p^infty": {1: (free, (1, []))},
              "Z[1/p]": {},
              "Q": {}}
    for name, desc in suite.items():
        lam = derived_completion(dZ, GradedObject(Z, {0: desc}))
        assert set(lam.entries) == set(pieces[name]), name
        for n, (M, invariants) in pieces[name].items():
            value = lam.value(n)
            assert value.kind == "module" and value.precision == PRECISION
            assert value.payload.invariants() == invariants, name
            _agrees_with_stage_quotients(dZ, value, M)
    poly_suite = [FPModule.free(kxy, 1), FPModule.cyclic(kxy, ["x"]),
                  FPModule.cyclic(kxy, ["x", "y"])]
    with settings(K=6, lag=3, precision=6):
        for M in poly_suite:
            lam = derived_completion(dxy, M)
            assert set(lam.entries) == {0}
            _agrees_with_stage_quotients(dxy, lam.value(0), M)
    report(2, True, "Lambda agrees with the stage quotients M/I^kM, k <= 3, "
                    "on the Z suite and on k[x,y] with M in {A, A/(x), k}")


def test_criterion_3_named_values(Z, dZ):
    free = FPModule.free(Z, 1)
    prufer = TelescopeQuotient(free, Z.el(P))
    L0 = local_homology_Ls(dZ, FPObj(free), 0)
    assert _is_zp(L0)
    for s in (1, 2):
        assert local_homology_Ls(dZ, FPObj(free), s).is_zero()
    L1 = local_homology_Ls(dZ, prufer, 1)
    assert _is_zp(L1)
    assert local_homology_Ls(dZ, prufer, 0).is_zero()
    lamQ = derived_completion(dZ, GradedObject(Z, {0: Rational(Z, 1)}))
    assert lamQ.is_zero()
    lam_tel = derived_completion(dZ, GradedObject(Z, {0: Telescope(free, Z.el(P))}))
    assert lam_tel.is_zero()
    report(3, True, "L0(Z) = Z_p, L1(Z/p^infty) = Z_p, higher vanish, "
                    "Lambda(Q) = Lambda(Z[1/p]) = 0")


def _random_fp_module(ring, rng, max_gens=3):
    g = rng.randint(1, max_gens)
    rels = []
    for _ in range(rng.randint(0, 3)):
        if ring.nvars == 0:
            col = tuple(ring.el(rng.randint(-9, 9)) for _ in range(g))
        else:
            col = []
            for _ in range(g):
                terms = []
                for _ in range(rng.randint(0, 2)):
                    a, b = rng.randint(0, 2), rng.randint(0, 2)
                    if a + b <= 2:
                        terms.append((rng.randint(-2, 2), a, b))
                poly = ring.zero()
                for c, a, b in terms:
                    poly = poly + ring.el(c) * ring.var("x") ** a * ring.var("y") ** b
                col.append(poly)
            col = tuple(col)
        rels.append(col)
    return FPModule(ring, g, rels)


def test_criterion_4_finitely_generated_collapse(Z, dZ, kxy, dxy):
    rng = random.Random(20260808)
    for _ in range(25):
        M = _random_fp_module(Z, rng)
        for s in (1, 2):
            assert local_homology_Ls(dZ, FPObj(M), s).is_zero()
        L0 = local_homology_Ls(dZ, FPObj(M), 0)
        hat = completed_module(M, dZ.gens)
        ok, why = values_agree(L0, LimitModule.of_module(hat))
        assert ok, why
    for _ in range(25):
        M = _random_fp_module(kxy, rng)
        desc = FPObj(M)
        with settings(K=4, lag=2, precision=4):
            for s in (1, 2):
                assert local_homology_Ls(dxy, desc, s).is_zero()
            L0 = local_homology_Ls(dxy, desc, 0)
            hat = completed_module(M, dxy.gens)
        ok, why = values_agree(L0, LimitModule.of_module(hat))
        assert ok, why
    report(4, True, "25 random f.p. modules over Z and over k[x,y]: "
                    "L_s = 0 for s > 0 and L_0 = completion, exactly")


def test_criterion_5_ext_completeness(Z, dZ):
    from lodua.modules import direct_sum
    Zp_ring = make_ring({"base": "Z",
                         "completion": {"ideal": [str(P)], "precision": PRECISION}})
    Zp = FPModule.free(Zp_ring, 1)
    complete_cases = [FPObj(Zp), FPObj(FPModule.cyclic(Z, [P])),
                      FPObj(FPModule.cyclic(Z, [P ** 3]))]
    S, _, _ = direct_sum(FPModule.cyclic(Z, [P]), FPModule.cyclic(Z, [P ** 2]))
    complete_cases.append(FPObj(S))
    for desc in complete_cases:
        cert = is_L_complete(desc, dZ)
        assert cert.verdict == "complete", cert.describe()
    free = FPModule.free(Z, 1)
    incomplete = {"Z": FPObj(free), "Q": Rational(Z, 1),
                  "Z/p^infty": TelescopeQuotient(free, Z.el(P)),
                  "Z[1/p]": Telescope(free, Z.el(P))}
    for name, desc in incomplete.items():
        cert = is_L_complete(desc, dZ)
        assert cert.verdict == "not-complete" and cert.witness, name
    # coherence: verdict iff Lambda fixes the object in degree 0
    for desc, expect in [(FPObj(Zp), True), (FPObj(FPModule.cyclic(Z, [P])), True),
                         (FPObj(free), False),
                         (TelescopeQuotient(free, Z.el(P)), False)]:
        d = dZ if not desc.ring.is_completed else IdealData(desc.ring, [P])
        lam = derived_completion(d, GradedObject(desc.ring, {0: desc}))
        if desc.kind == "fp":
            fixed = lam.value(1).is_zero() and values_agree(
                lam.value(0), LimitModule.of_module(desc.module))[0]
        else:
            fixed = lam.value(0).kind == desc.kind and lam.value(1).is_zero()
        assert fixed == expect
    report(5, True, "complete for Z_p, Z/p^k, sums; not-complete with "
                    "witnesses for Z, Q, Z/p^infty, Z[1/p]; functor coherence")


def test_criterion_6_klim_module_level():
    # the module-level statement: over K_0 = Z_p the multiplication-by-p
    # tower has lim^s = 0 for s = 0, 1 because Z_p is p-complete
    Zp_ring = make_ring({"base": "Z",
                         "completion": {"ideal": [str(P)], "precision": PRECISION}})
    K0 = FPModule.free(Zp_ring, 1)
    res = mult_tower_values(FPObj(K0), Zp_ring.el(P))
    assert res.lim.is_zero() and res.lim1.is_zero()
    report(6, True, "lim^s of the multiplication-by-p tower on Z_p is 0 "
                    "for s = 0, 1 (p-completeness), exactly at precision 20")


def test_criterion_7_torsion_side(Z, dZ, kxy, dxy):
    free = FPModule.free(Z, 1)
    assert local_cohomology(dZ, free, 0).is_zero()
    h1 = local_cohomology(dZ, free, 1)
    assert h1.kind == "telescope_quotient" and h1.payload.mult == Z.el(P)
    A = FPModule.free(kxy, 1)
    assert local_cohomology(dxy, A, 0).is_zero()
    assert local_cohomology(dxy, A, 1).is_zero()
    h2 = local_cohomology(dxy, A, 2)
    assert h2.kind == "ind" and not h2.is_zero() and "witness" in h2.payload
    # Gamma is idempotent and smashing by construction on the suite
    prufer = TelescopeQuotient(free, Z.el(P))
    for X in (free, FPModule.cyclic(Z, [P ** 3]), prufer):
        g1 = gamma(dZ, X)
        assert g1.construction[0] == "tensor"
        g2 = gamma(dZ, g1.as_graded_object())
        for n in range(-2, 2):
            ok, _ = values_agree(g1.value(n), g2.value(n))
            assert ok
    # membership verdicts match Gamma-locality on cone(p), Z, Z/p^infty
    X = ChainComplex.single(free, 0)
    cn = cone(ChainMap(X, X, {0: ModuleMap(free, free, [[Z.el(P)]])}))
    assert homology_membership(cn, dZ)["verdict"] is True
    assert homology_membership(ChainComplex.single(free, 0),
                               dZ)["verdict"] is False
    assert homology_membership(GradedObject(Z, {0: prufer}),
                               dZ)["verdict"] is True
    report(7, True, "H^*_I values over Z and k[x,y], Gamma idempotent and "
                    "smashing, torsion membership matches Gamma-locality")


def test_criterion_8_adjunction_and_inverse_equivalences(Z, dZ):
    free = FPModule.free(Z, 1)
    m3 = FPModule.cyclic(Z, [P ** 3])
    for X, Y in [(free, free), (m3, m3), (free, m3), (m3, free)]:
        out = adjunction_check(dZ, X, Y)
        assert out["status"] == "agree"
    # mutually inverse equivalences on homology over the criterion-1 suite
    Zp_ring = make_ring({"base": "Z",
                         "completion": {"ideal": [str(P)], "precision": PRECISION}})
    suite = list(z_suite(Z).items()) + [("Z_p", FPObj(FPModule.free(Zp_ring, 1)))]
    for name, desc in suite:
        ring = desc.ring
        d = dZ if not ring.is_completed else IdealData(ring, [P])
        X = GradedObject(ring, {0: desc})
        gm = gamma(d, X)
        lam = derived_completion(d, X)
        lam_gamma = derived_completion(d, gm.as_graded_object())
        for n in range(-2, 3):
            ok, why = values_agree(lam_gamma.value(n), lam.value(n))
            assert ok, (name, n, why)
        gamma_lam = gamma(d, _as_graded(lam, ring))
        for n in range(-2, 3):
            ok, why = values_agree(gamma_lam.value(n), gm.value(n))
            assert ok, (name, n, why)
    report(8, True, "materialized Hom-group bijections and "
                    "Lambda Gamma = Lambda, Gamma Lambda = Gamma on homology")


def _as_graded(table, ring):
    pieces = {}
    for n, v in table.entries.items():
        if v.kind == "module":
            pieces[n] = FPObj(v.payload)
        elif v.kind in ("telescope", "telescope_quotient", "rational"):
            pieces[n] = v.payload
        else:
            raise AssertionError(v.kind)
    base = next(iter(pieces.values())).ring if pieces else ring
    return GradedObject(base, pieces)


def test_criterion_9_comodule_suite(Z, kxy):
    import time
    t0 = time.time()
    # the C2-swap instance on k[x,y] with I = (x+y, xy)
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    swap = GroupLikeHopfAlgebroid(kxy, ["e", "s"], table,
                                  {"s": {"x": "y", "y": "x"}})
    dI = IdealData(kxy, ["x + y", "x*y"])
    CA = Comodule(swap, FPModule.free(kxy, 1), {"s": [[kxy.el(1)]]})
    for which in ("true-level", "completion-formula", "comodule-gm",
                  "fg-vanishing", "injective-vanishing"):
        with settings(precision=5, K=5, lag=3):
            out = verify_theorems(swap, dI, CA, which)
        assert out.get("verdict") in ("pass", "true-level"), (which, out)
    # kernel vs pullback agreement, witnessed
    with settings(precision=5):
        limK, _ = comodule_completion(CA, dI, method="kernel")
        limP, _ = comodule_completion(CA, dI, method="pullback")
    assert _same_presentation(limK.module, limP.module)
    for g in swap.elements:
        for row_k, row_p in zip(limK.maps[g], limP.maps[g]):
            assert all(a == b for a, b in zip(row_k, row_p))
    # the discrete instance on Z with I = (p)
    discrete = GroupLikeHopfAlgebroid(Z, ["e"], {("e", "e"): "e"}, {})
    dZ5 = IdealData(Z, [P])
    MZ = Comodule(discrete, FPModule.free(Z, 1), {})
    for which in ("true-level", "completion-formula", "comodule-gm",
                  "fg-vanishing", "injective-vanishing"):
        out = verify_theorems(discrete, dZ5, MZ, which)
        assert out.get("verdict") in ("pass", "true-level"), (which, out)
    elapsed = time.time() - t0
    assert elapsed < 60, f"comodule suite took {elapsed:.1f}s"
    report(9, True, f"all verify verbs pass on both instances; kernel and "
                    f"pullback limits share actions ({elapsed:.1f}s)")


def test_criterion_10_weak_proregularity_and_regularity_grid(Z, kxy):
    # the Koszul homology towers are pro-trivial within K = 3-4 and lag 2
    Qxy = make_ring({"base": "Q", "vars": ["x", "y"]})
    for ring, gens, bound in ((Z, [P], 4), (kxy, ["x", "y"], 3),
                              (Qxy, ["x + y", "x*y"], 3)):
        verdicts = koszul_pro_trivial(ring, gens, stage_bound=bound, lag=2)
        assert all(v.status == "pro-trivial" for v in verdicts.values())
    # exhaustive small grid over F_2[x,y]: all length-1 and length-2
    # sequences from the monomials and two-term sums of degree <= 2, plus
    # every length-3 sequence over the six monomials
    F2 = make_ring({"base": "Fp", "p": 2, "vars": ["x", "y"]})
    monos = ["1", "x", "y", "x^2", "x*y", "y^2"]
    pairs = [f"{a} + {b}" for i, a in enumerate(monos)
             for b in monos[i + 1:]]
    grid = monos + pairs
    checked = 0
    for seq in list(product(grid, repeat=1)) + list(product(grid, repeat=2)):
        engine = bool(is_regular_sequence(F2, list(seq)))
        oracle = _brute_regular_f2(F2, list(seq))
        assert engine == oracle, seq
        checked += 1
    for seq in product(monos, repeat=3):
        engine = bool(is_regular_sequence(F2, list(seq)))
        oracle = _brute_regular_f2(F2, list(seq))
        assert engine == oracle, seq
        checked += 1
    report(10, True, f"weak proregularity within lag 2; regular-sequence "
                     f"brute-force equivalence on {checked} grid sequences")


def _brute_regular_f2(ring, seq, degree_cap=4):
    """Truncated F_2 linear algebra oracle, independent of the Groebner path.

    For each stage, computes the full kernel of multiplication on the span
    of all monomials of degree <= cap modulo the (truncated) ideal; a kernel
    vector surviving in the quotient certifies a zerodivisor.  Witnesses are
    arbitrary F_2-combinations, not just monomials.
    """
    from lodua.poly import Poly
    polys = [ring.el(s).num for s in seq]
    if any(p.is_zero() for p in polys):
        return False
    monos = sorted(_monos_f2(degree_cap))
    big = sorted(_monos_f2(degree_cap + 3))
    index = {m: i for i, m in enumerate(big)}

    def to_vec(p):
        vec = [0] * len(big)
        for mm, c in p.terms.items():
            if mm not in index:
                return None
            vec[index[mm]] = c % 2
        return vec

    def span_of(ideal_polys):
        rows = []
        for g in ideal_polys:
            for m in big:
                v = to_vec(g * Poly(g.dom, 2, {m: 1}))
                if v is not None:
                    rows.append(v)
        basis = {}
        for row in rows:
            row = row[:]
            for piv, brow in sorted(basis.items()):
                if row[piv]:
                    row = [(a + b) % 2 for a, b in zip(row, brow)]
            lead = next((i for i, a in enumerate(row) if a), None)
            if lead is not None:
                basis[lead] = row
        return basis

    def reduce(vec, basis):
        vec = vec[:]
        for piv, brow in sorted(basis.items()):
            if vec[piv]:
                vec = [(a + b) % 2 for a, b in zip(vec, brow)]
        return vec

    for i, x in enumerate(polys):
        basis = span_of(polys[:i])
        # columns of the multiplication map on the truncated quotient
        cols = []
        keep = []
        for m in monos:
            v = to_vec(x * Poly(x.dom, 2, {m: 1}))
            if v is None:
                continue
            keep.append(m)
            cols.append(reduce(v, basis))
        # kernel of the stacked column matrix over F_2 (track combinations)
        tracked = [(cols[j][:], [1 if t == j else 0 for t in range(len(cols))])
                   for j in range(len(cols))]
        pivots = {}
        for vec, comb in tracked:
            for piv, (bvec, bcomb) in sorted(pivots.items()):
                if vec[piv]:
                    vec = [(a + b) % 2 for a, b in zip(vec, bvec)]
                    comb = [(a + b) % 2 for a, b in zip(comb, bcomb)]
            lead = next((t for t, a in enumerate(vec) if a), None)
            if lead is None:
                # a kernel combination: does it survive in the quotient?
                wit = [0] * len(big)
                for j, c in enumerate(comb):
                    if c:
                        wit[index[keep[j]]] ^= 1
                if any(reduce(wit, basis)):
                    return False
            else:
                pivots[lead] = (vec, comb)
    basis = span_of(polys)
    one = [0] * len(big)
    one[index[(0, 0)]] = 1
    return bool(any(reduce(one, basis)))


def _monos_f2(cap):
    for a in range(cap + 1):
        for b in range(cap + 1 - a):
            yield (a, b)
