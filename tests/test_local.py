import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lodua

from lodua import (BudgetExceeded, FPModule, FPObj, GradedObject, IdealData,
                   InvalidInput, LimitModule, ModuleMap, Rational, Telescope,
                   TelescopeQuotient, Tower, adic_completion,
                   derived_completion, gamma, gm_ses_check, is_pro_trivial,
                   iso_check, lim_lim1, local_cohomology, local_homology_Ls,
                   make_ring, stable_koszul_complex, values_agree)
from lodua.complexes import ChainMap, induced_on_homology
from lodua.koszul import koszul_chain, koszul_transition
from lodua.modules import kron_identity
from lodua.towers import KoszulTensorStages

from conftest import koszul_pro_trivial, zmod


@pytest.fixture(scope="module")
def prufer(ZZ):
    return TelescopeQuotient(FPModule.free(ZZ, 1), ZZ.el(5))


def test_koszul_complex_with_transitions(d5, QQxy, dxy):
    kz = koszul_chain(d5.ring, d5.gens, 1)
    assert iso_check(kz.homology(0), zmod(d5.ring, 5))
    assert kz.homology(1).is_zero()
    # transitions commute by construction (checked inside ChainMap)
    KoszulTensorStages(FPModule.free(d5.ring, 1), d5.gens).chain_map(2)
    kos = koszul_chain(dxy.ring, dxy.gens, 1)
    assert [kos.module(j).ngens for j in (0, 1, 2)] == [1, 2, 1]
    assert kos.homology(1).is_zero() and kos.homology(2).is_zero()


def test_koszul_non_regular_has_h1():
    Q = make_ring({"base": "Q", "vars": ["x"]})
    d = IdealData(Q, ["x", "x"])
    kos = koszul_chain(d.ring, d.gens, 1)
    assert not kos.homology(1).is_zero()


def test_stable_koszul_over_p(ZZ, d5):
    sk = stable_koszul_complex(d5)
    tq = sk.top_cokernel_descriptor()
    assert tq.kind == "telescope_quotient"
    assert sk.homology(0).is_zero()
    assert sk.homology(-1).kind == "telescope_quotient"
    terms = sk.term_descriptors(1)
    assert terms[0].kind == "telescope"


def test_stable_koszul_unit_ideal_acyclic(ZZ):
    d1 = IdealData(ZZ, [1])
    sk = stable_koszul_complex(d1)
    assert sk.is_acyclic()


def test_local_cohomology_of_z(ZZ, d5):
    Zmod = FPModule.free(ZZ, 1)
    assert local_cohomology(d5, Zmod, 0).is_zero()
    v1 = local_cohomology(d5, Zmod, 1)
    assert v1.kind == "telescope_quotient"
    assert v1.payload.mult == ZZ.el(5)


def test_local_cohomology_of_torsion(ZZ, d5):
    M = zmod(ZZ, 125)
    v0 = local_cohomology(d5, M, 0)
    assert v0.kind == "module" and iso_check(v0.payload, M)
    assert local_cohomology(d5, M, 1).is_zero()


def test_local_cohomology_polynomial(QQxy, dxy):
    A = FPModule.free(QQxy, 1)
    assert local_cohomology(dxy, A, 0).is_zero()
    assert local_cohomology(dxy, A, 1).is_zero()
    v2 = local_cohomology(dxy, A, 2)
    assert v2.kind == "ind" and not v2.is_zero()
    assert "witness" in v2.payload


def test_gamma_tables(ZZ, d5, prufer):
    Zmod = FPModule.free(ZZ, 1)
    g = gamma(d5, Zmod)
    assert g.value(-1).kind == "telescope_quotient"
    assert g.value(0).is_zero()
    # already-torsion input sits in degree 0
    g = gamma(d5, prufer)
    assert g.value(0).kind == "telescope_quotient"
    assert g.value(-1).is_zero()
    # rationals die
    g = gamma(d5, Rational(ZZ, 1))
    assert g.table.is_zero()


def test_gamma_smashing_by_construction(ZZ, d5):
    g = gamma(d5, FPModule.free(ZZ, 1))
    assert g.construction[0] == "tensor"


def test_gamma_idempotent_on_suite(ZZ, d5, prufer):
    Zmod = FPModule.free(ZZ, 1)
    for X in (Zmod, zmod(ZZ, 25), prufer):
        once = gamma(d5, X)
        twice = gamma(d5, once.as_graded_object())
        for n in range(-2, 2):
            ok, _ = values_agree(once.value(n), twice.value(n))
            assert ok, (X, n)


def test_lambda_named_values(ZZ, d5, prufer):
    Zmod = FPModule.free(ZZ, 1)
    lam = derived_completion(d5, Zmod)
    assert lam.value(0).kind == "module"
    assert lam.value(0).payload.ring.is_completed
    assert lam.value(1).is_zero()
    lam = derived_completion(d5, GradedObject(ZZ, {0: prufer}))
    assert lam.value(1).kind == "module" and lam.value(0).is_zero()
    assert derived_completion(d5, GradedObject(ZZ, {0: Rational(ZZ, 1)})).is_zero()
    tel = Telescope(FPModule.free(ZZ, 1), ZZ.el(5))
    assert derived_completion(d5, GradedObject(ZZ, {0: tel})).is_zero()


def test_lambda_polynomial_suite(QQxy, dxy):
    A = FPModule.free(QQxy, 1)
    kk = FPModule.cyclic(QQxy, ["x", "y"])
    Ax = FPModule.cyclic(QQxy, ["x"])
    for M in (A, kk, Ax):
        with lodua.settings(K=6, lag=3, precision=6):
            lam = derived_completion(dxy, M)
        assert lam.value(0).kind == "module"
        assert lam.value(1).is_zero() and lam.value(2).is_zero()


def test_local_homology_values(ZZ, d5, prufer):
    Zmod = FPModule.free(ZZ, 1)
    L0 = local_homology_Ls(d5, Zmod, 0)
    assert L0.kind == "module" and not L0.payload.relations
    for s in (1, 2):
        assert local_homology_Ls(d5, Zmod, s).is_zero()
    assert local_homology_Ls(d5, prufer, 0).is_zero()
    L1 = local_homology_Ls(d5, prufer, 1)
    assert L1.kind == "module" and not L1.payload.relations


def test_gm_ses_suite(ZZ, d5, prufer):
    Zmod = FPModule.free(ZZ, 1)
    for s in (0, 1, 2):
        assert gm_ses_check(d5, Zmod, s)["status"] == "exact"
    assert gm_ses_check(d5, prufer, 1)["status"] == "exact"
    tel = Telescope(FPModule.free(ZZ, 1), ZZ.el(5))
    rep = gm_ses_check(d5, tel, 0)
    assert rep["status"] == "exact"
    assert rep["L_s"]["kind"] == "zero"


def test_adic_completion_presentation(ZZ, d5, QQxy, dxy):
    M = zmod(ZZ, 125)
    Mhat, nat = adic_completion(M, d5)
    assert Mhat.ring.is_completed and Mhat.ring.precision == 20
    assert nat["precision"] == 20
    assert iso_check(Mhat, FPModule.cyclic(Mhat.ring, [125]))
    assert nat["map"] == "generator i -> generator i"
    # base change of a presentation over k[x,y]
    N = FPModule(QQxy, 1, [(QQxy.el("x"),), (QQxy.el("y"),)])
    with lodua.settings(precision=6):
        Nhat, nat = adic_completion(N, dxy)
    assert Nhat.ngens == 1 and len(Nhat.relations) == 2
    assert Nhat.ring.precision == nat["precision"] == 6


def test_route_agreement_is_enforced(ZZ, d5):
    # derived_completion runs both routes; a passing call certifies agreement
    lam = derived_completion(d5, zmod(ZZ, 25))
    assert "routes" in lam.meta


def test_mutually_inverse_on_homology(ZZ, d5, prufer, Z5hat):
    """Lambda(Gamma M) = Lambda M and Gamma(Lambda M) = Gamma M on homology."""
    Zmod = FPModule.free(ZZ, 1)
    Qdesc = Rational(ZZ, 1)
    Zp = FPModule.free(Z5hat, 1)
    suite = [FPObj(Zmod), FPObj(zmod(ZZ, 25)), prufer, Qdesc, FPObj(Zp)]
    d5hat = IdealData(Z5hat, [5])
    for desc in suite:
        ring = desc.ring
        d = d5 if not ring.is_completed else d5hat
        X = GradedObject(ring, {0: desc})
        gm = gamma(d, X)
        lam_direct = derived_completion(d, X)
        lam_of_gamma = derived_completion(d, gm.as_graded_object())
        for n in range(-2, 3):
            ok, why = values_agree(lam_of_gamma.value(n), lam_direct.value(n))
            assert ok, (desc, n, why)
        gm_of_lambda = gamma(d, _table_to_graded(lam_direct, ring))
        for n in range(-2, 3):
            ok, why = values_agree(gm_of_lambda.value(n), gm.value(n))
            assert ok, (desc, n, why)


def _table_to_graded(table, ring):
    pieces = {}
    for n, v in table.entries.items():
        if v.kind == "module":
            pieces[n] = FPObj(v.payload)
        elif v.kind in ("telescope", "telescope_quotient", "rational"):
            pieces[n] = v.payload
        else:
            raise AssertionError(f"unexpected value kind {v.kind}")
    base = next(iter(pieces.values())).ring if pieces else ring
    return GradedObject(base, pieces)


def test_euler_characteristic_consistency(ZZ, d5):
    """For a two-degree complex over Z the completion tables refine the
    homology split: total ranks match degreewise."""
    from lodua import ChainComplex, ModuleMap
    F = FPModule.free(ZZ, 1)
    C = ChainComplex(ZZ, {0: F, 1: F}, {1: ModuleMap(F, F, [[ZZ.el(25)]])})
    lam = derived_completion(d5, C)
    # H_0 = Z/25, H_1 = 0: the table is Z/25 completed in degree 0
    assert lam.value(0).kind == "module"
    assert iso_check(lam.value(0).payload,
                     FPModule.cyclic(lam.value(0).payload.ring, [25]))
    assert lam.value(1).is_zero()


# -- the ideal-power annihilation test -------------------------------------------


def _naive_product(gens, combo):
    p = gens[combo[0]]
    for i in combo[1:]:
        p = p * gens[i]
    return p


def _brute_killing_power(M, gens, bound):
    """The definition: every degree-j product times every generator lies in
    the relations."""
    from itertools import combinations_with_replacement
    for j in range(1, bound + 1):
        products = [_naive_product(gens, c)
                    for c in combinations_with_replacement(range(len(gens)), j)]
        if all(M.contains_in_relations(tuple(f * e for e in M.gen(i)))
               for f in products for i in range(M.ngens)):
            return j
    return None


def test_killing_power_exact_values(ZZ):
    from lodua.local import _ideal_nilpotent_on
    from lodua.modules import _killing_power
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2", "y^3"]})
    # x y^2 survives in degree 3; every degree-4 monomial dies
    assert _killing_power(FPModule.free(R, 1), [R.el("x"), R.el("y")], 24) == 4
    assert _ideal_nilpotent_on(IdealData(R, ["x", "y"]), FPModule.free(R, 1)) == 4
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    assert _killing_power(FPModule.free(Q, 1), [Q.el("x"), Q.el("y")], 24) is None
    assert _killing_power(FPModule.cyclic(ZZ, [125]), [ZZ.el(5)], 24) == 3
    assert _killing_power(FPModule.cyclic(ZZ, [125]), [ZZ.el(5)], 2) is None


# per ring: its spec, candidate ideal generators and relation entries
_KILLING_RINGS = {
    "Z": ({"base": "Z"}, ["2", "5", "10", "25"],
          ["0", "1", "8", "25", "125", "250", "5^9", "2^20"]),
    "Z_5": ({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}},
            ["5", "10", "25"], ["0", "3", "5", "25", "5^8", "5^19"]),
    "Q[x,y]": ({"base": "Q", "vars": ["x", "y"]}, ["x", "y", "x + y", "x*y"],
               ["0", "1", "x^2", "y^3", "x*y", "x^5", "y^9", "x + y"]),
}


@st.composite
def _killing_cases(draw):
    spec, gens, entries = _KILLING_RINGS[draw(st.sampled_from(
        sorted(_KILLING_RINGS)))]
    R = make_ring(spec)
    n = draw(st.integers(1, 2))
    cols = draw(st.lists(st.lists(st.sampled_from(entries), min_size=n,
                                  max_size=n), max_size=3))
    ideal = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2,
                          unique=True))
    return (FPModule(R, n, [tuple(map(R.el, col)) for col in cols]),
            [R.el(g) for g in ideal])


@settings(max_examples=60)
@given(_killing_cases(), st.sampled_from([8, 19, 24]))
def test_killing_power_matches_the_linear_scan(case, bound):
    # the early None (gens[0]^bound does not kill M) is the scan's answer
    from lodua.modules import _killing_power
    M, gens = case
    assert _killing_power(M, gens, bound) == _brute_killing_power(M, gens,
                                                                  bound)


@pytest.mark.parametrize("bound, expected", [(19, None), (20, 20), (24, 20)])
def test_killing_power_near_the_bound(ZZ, bound, expected):
    from lodua.modules import _killing_power
    M = FPModule.cyclic(ZZ, [2 ** 20])
    assert _killing_power(M, [ZZ.el(2)], bound) == expected
    assert _brute_killing_power(M, [ZZ.el(2)], bound) == expected


@pytest.mark.parametrize("N", [2, 3, 5])
def test_killing_power_capped_below_precision(N):
    from lodua.local import _ideal_nilpotent_on
    from lodua.modules import _killing_power
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    Qc = make_ring({"base": "Q", "vars": ["x", "y"],
                    "completion": {"ideal": ["x", "y"], "precision": N}})
    free = FPModule.free(Qc, 1)
    # I^N is zero at precision N, but that vanishing does not count
    assert _killing_power(free, [Qc.el("x"), Qc.el("y")], 24) == N
    assert _ideal_nilpotent_on(IdealData(Q, ["x", "y"]), free) is None
    assert _ideal_nilpotent_on(IdealData(Qc, ["x", "y"]), free) is None
    torsion = FPModule.cyclic(Qc, ["x", "y^2"])
    expected = 2 if N > 2 else None
    assert _ideal_nilpotent_on(IdealData(Q, ["x", "y"]), torsion) == expected


@pytest.mark.parametrize("N", [2, 3, 5])
def test_nilpotent_multiplier_capped_below_precision(N):
    # the multiplication tower asks the same capped question of one element
    from lodua.modules import _capped_killing_power
    Qc = make_ring({"base": "Q", "vars": ["x", "y"],
                    "completion": {"ideal": ["x", "y"], "precision": N}})
    x = Qc.el("x")
    assert _capped_killing_power(FPModule.free(Qc, 2), [x]) is None
    killed = FPModule(Qc, 2, [(Qc.el("x^2"), Qc.zero()), (Qc.zero(), x)])
    assert _capped_killing_power(killed, [x]) == (2 if N > 2 else None)
    Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": N}})
    assert _capped_killing_power(FPModule.free(Z5, 1), [Z5.el(5)]) is None


def test_ideal_nilpotent_on_rejects_a_foreign_ring(ZZ):
    from lodua.local import _ideal_nilpotent_on
    F7 = make_ring({"base": "Fp", "p": 7, "vars": ["x", "y"]})
    with pytest.raises(InvalidInput):
        _ideal_nilpotent_on(IdealData(ZZ, [5]), FPModule.cyclic(F7, ["x"]))


def test_torsion_module_agrees_with_its_completion():
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    Qc = make_ring({"base": "Q", "vars": ["x", "y"],
                    "completion": {"ideal": ["x", "y"], "precision": 5}})
    hat = LimitModule.of_module(FPModule.cyclic(Qc, ["x^2", "x*y", "y^3"]))
    disc = LimitModule.of_module(FPModule.cyclic(Q, ["x^2", "x*y", "y^3"]))
    ok, why = values_agree(hat, disc)
    assert ok and why == "I-power-torsion module compared after completion"
    other = LimitModule.of_module(FPModule.cyclic(Q, ["x^2", "x*y", "y^2"]))
    assert values_agree(hat, other)[0] is False
    free = LimitModule.of_module(FPModule.free(Q, 1))
    assert values_agree(hat, free) == (
        False, "modules over the discrete ring must be I-power torsion to "
               "equal a completed value")


_POLY_RINGS = [make_ring({"base": "Q", "vars": ["x", "y"]}),
               make_ring({"base": "Fp", "p": 7, "vars": ["x", "y"]})]
_IDEALS = [["x", "y"], ["x + y", "x*y"], ["x"], ["y^2", "x - y"]]


@st.composite
def _small_modules(draw):
    ring = draw(st.sampled_from(_POLY_RINGS))
    ngens = draw(st.integers(1, 2))
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    entry = st.dictionaries(mono, st.integers(-2, 2), max_size=2).map(
        lambda terms: "+".join(f"({c})*x^{a}*y^{b}"
                               for (a, b), c in sorted(terms.items())) or "0")
    rels = []
    for i in range(ngens):
        if draw(st.booleans()):  # make coordinate i (x, y)-power torsion
            for v in "xy":
                m = f"{v}^{draw(st.integers(1, 3))}"
                rels.append(tuple(m if k == i else "0" for k in range(ngens)))
    rels += draw(st.lists(st.tuples(*[entry] * ngens), max_size=3))
    gens = draw(st.sampled_from(_IDEALS))
    bound = draw(st.integers(1, 6))
    return FPModule(ring, ngens, rels), [ring.el(g) for g in gens], bound


@settings(max_examples=40)
@given(_small_modules())
def test_killing_power_matches_the_definition(case):
    from lodua.modules import _killing_power
    M, gens, bound = case
    assert _killing_power(M, gens, bound) == _brute_killing_power(M, gens, bound)


def test_killing_power_builds_each_product_once(monkeypatch):
    from lodua.modules import _killing_power
    from lodua.ring import RingElement
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    gens = [Q.el("x + y"), Q.el("x*y")]
    calls = [0]
    mul = RingElement.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    assert _killing_power(FPModule.free(Q, 1), gens, 24) is None
    assert calls[0] <= 2 * 24


def test_power_products_match_the_left_to_right_product():
    from itertools import combinations_with_replacement
    from lodua.ring import power_products
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^3 - y^2"]})
    for gens in ([R.el("x + y"), R.el("x*y - 2"), R.el("y^2")],
                 [R.el("x + y").num, R.el("x*y - 2").num, R.el("y^2").num]):
        for k in range(1, 7):
            naive = [_naive_product(gens, c)
                     for c in combinations_with_replacement(range(3), k)]
            assert power_products(gens, k) == naive



# the cap gens[0]^bound of _killing_power is one ``**`` on the rings of the
# first table, each with a nonzero candidate generator
_POWER_RINGS = {
    "Z": ({"base": "Z"}, ["-3", "5", "10"]),
    "Z_5": ({"base": "Z", "completion": {"ideal": ["5"], "precision": 6}},
            ["3", "5", "10"]),
    "Z_2": ({"base": "Z", "completion": {"ideal": ["2"], "precision": 3}},
            ["3", "2", "6"]),
    "Q": ({"base": "Q"}, ["2", "-3"]),
    "F_7": ({"base": "Fp", "p": 7}, ["3", "6"]),
    "Q[x,y]": ({"base": "Q", "vars": ["x", "y"]}, ["x", "x + y", "x*y - 2"]),
    "F_7[x,y]": ({"base": "Fp", "p": 7, "vars": ["x", "y"]},
                 ["y", "x - 3*y"]),
    "Z[x]": ({"base": "Z", "vars": ["x"]}, ["x", "2*x + 3"]),
}
# ... and the left-to-right product on these, the Z_p[1/u] precision seam
# among them
_PRODUCT_RINGS = {
    "Z_5[1/5]": ({"base": "Z", "invert": "5", "completion": {
        "ideal": ["5"], "precision": 6}}, ["3", "5", "10"]),
    "Z_5[1/10]": ({"base": "Z", "invert": "10", "completion": {
        "ideal": ["5"], "precision": 6}}, ["3", "5", "15"]),
    "Q[x,y]/(x^3 - y^2)": ({"base": "Q", "vars": ["x", "y"],
                            "quotient": ["x^3 - y^2"]}, ["x", "x + y"]),
    "Q[[x,y]]": ({"base": "Q", "vars": ["x", "y"], "completion": {
        "ideal": ["x", "y"], "precision": 4}}, ["x", "1 + y"]),
}


@settings(max_examples=80)
@given(st.sampled_from(sorted(_POWER_RINGS)), st.data(), st.integers(1, 24))
def test_a_power_is_the_left_to_right_product(name, data, k):
    spec, entries = _POWER_RINGS[name]
    R = make_ring(spec)
    e = R.el(data.draw(st.sampled_from(entries)))
    assert e ** k == _naive_product([e], (0,) * k)


@pytest.mark.parametrize("name", sorted(_POWER_RINGS) + sorted(_PRODUCT_RINGS))
def test_the_killing_power_cap_is_one_power_without_a_modulus(name,
                                                               monkeypatch):
    from lodua.modules import _killing_power
    from lodua.ring import RingElement
    spec, entries = {**_POWER_RINGS, **_PRODUCT_RINGS}[name]
    R = make_ring(spec)
    raised = []
    power = RingElement.__pow__

    def counted(e, n):
        raised.append(n)
        return power(e, n)

    monkeypatch.setattr(RingElement, "__pow__", counted)
    for g in entries:
        M, gens = FPModule.free(R, 1), [R.el(g)]
        del raised[:]
        assert _killing_power(M, gens, 24) == _brute_killing_power(M, gens, 24)
        assert raised.count(24) == (name in _POWER_RINGS)

# -- the Ext engine shared by the grid and derived Hom -------------------------


def test_hom_into_rationals_has_rank_times_dimension(ZZ):
    from lodua.local import ext_of_descriptors
    v = ext_of_descriptors(FPObj(FPModule.free(ZZ, 2)), Rational(ZZ, 3), 0)
    assert v.kind == "rational" and v.payload.dim == 6
    # the torsion summand of Z + Z/5 contributes nothing
    M = FPModule(ZZ, 2, [(ZZ.el(0), ZZ.el(5))])
    v = ext_of_descriptors(FPObj(M), Rational(ZZ, 2), 0)
    assert v.kind == "rational" and v.payload.dim == 2
    assert ext_of_descriptors(FPObj(M), Rational(ZZ, 2), 1).is_zero()


def test_ext_out_of_a_telescope_into_rationals(ZZ):
    from lodua.local import ext_of_descriptors
    tel = Telescope(FPModule.free(ZZ, 1), 5)
    v = ext_of_descriptors(tel, Rational(ZZ, 2), 0)
    assert v.kind == "rational" and v.payload.dim == 2


def test_derived_hom_and_the_grid_share_one_rule(ZZ, d5, Z5hat):
    """Ext^q(Z[1/5], t) asked as derived Hom and as the grid cell (1, q)."""
    from lodua.criteria import ext_telescope
    from lodua.local import ext_of_descriptors
    tel = Telescope(FPModule.free(ZZ, 1), 5)
    targets = [FPObj(FPModule.free(ZZ, 1)), FPObj(zmod(ZZ, 25)),
               FPObj(FPModule.free(Z5hat, 1)), Rational(ZZ, 2)]
    for t in targets:
        for q in (0, 1):
            assert ext_of_descriptors(tel, t, q).describe() == \
                ext_telescope(d5, 1, t, q).describe()


def test_adjunction_with_a_telescope_source(ZZ, d5):
    from lodua import adjunction_check
    tel = Telescope(FPModule.free(ZZ, 1), 5)
    for Y in (FPModule.free(ZZ, 1), zmod(ZZ, 125)):
        out = adjunction_check(d5, tel, Y)
        assert out["status"] == "agree"
        # Gamma kills u^-1 Z, and Hom(u^-1 Z, Lambda Y) = 0 for complete Y
        assert out["hom_gamma_x_y"] == {"kind": "zero"}
        assert out["hom_x_lambda_y"]["kind"] == "zero"


def test_derived_hom_refuses_telescope_targets(ZZ, d5):
    """u^-1 N on a u-power-torsion N is zero, but the engine carries it as a
    nonzero telescope, so derived Hom refuses telescope targets rather than
    answer Ext^1(Z/25, Z[1/5]) = 5^-1(Z/25)."""
    from lodua import UnsupportedRing, adjunction_check
    from lodua.local import ext_of_descriptors
    for src in (FPObj(zmod(ZZ, 25)), Telescope(FPModule.free(ZZ, 1), 5)):
        for tgt in (Telescope(FPModule.free(ZZ, 1), 5),
                    TelescopeQuotient(FPModule.free(ZZ, 1), 5)):
            with pytest.raises(UnsupportedRing,
                               match=f"no Ext rule for target {tgt.kind}"):
                ext_of_descriptors(src, tgt, 1)
    # the adjunction check refuses cleanly instead of reporting a mismatch
    X = GradedObject(ZZ, {0: FPObj(zmod(ZZ, 25))})
    for Y in (GradedObject(ZZ, {1: Telescope(FPModule.free(ZZ, 1), 5)}),
              GradedObject(ZZ, {0: Telescope(zmod(ZZ, 25), 5)})):
        with pytest.raises(UnsupportedRing):
            adjunction_check(d5, X, Y)


def test_derived_hom_out_of_a_telescope_quotient(ZZ, d5, prufer):
    """Out of T = Z/5^infty only f.p. targets are answered: End(T) is Z_5,
    not the zero that a Tate-module rule for f.p. targets would give."""
    from lodua import UnsupportedRing, adjunction_check, derived_hom_value
    for q in (0, 1, 2):
        with pytest.raises(UnsupportedRing, match="need an f.p. target"):
            derived_hom_value(prufer, 0, prufer, q)
    with pytest.raises(UnsupportedRing, match="need an f.p. target"):
        adjunction_check(d5, prufer, prufer)
    Z = FPObj(FPModule.free(ZZ, 1))
    assert derived_hom_value(prufer, 0, Z, 0).describe() == {
        "kind": "zero", "basis": "f.p. targets have trivial Tate module"}
    assert derived_hom_value(prufer, 0, Z, 2).describe() == {
        "kind": "zero",
        "basis": "stages have projective dimension one; higher Ext vanish"}
    assert derived_hom_value(Z, 1, Z, 0).describe() == {
        "kind": "zero", "basis": "negative Ext degree"}
    for src, message in (
            (Rational(ZZ, 1), "rational sources are not needed"),
            (TelescopeQuotient(zmod(ZZ, 7), 5),
             "supported on free modules over euclidean rings")):
        with pytest.raises(UnsupportedRing, match=message):
            derived_hom_value(src, 0, Z, 0)


def test_milnor_extension_with_both_terms_nonzero(ZZ):
    """Ext^1(5^-1 (Z + Z/7), Z): lim^1 of Hom is Z_5/Z and lim of Ext^1 is
    Z/7, on which 5 acts invertibly; neither vanishes."""
    from lodua import derived_hom_value
    from lodua.modules import block_sum
    C = block_sum([FPModule.free(ZZ, 1), zmod(ZZ, 7)])
    v = derived_hom_value(Telescope(C, 5), 0, FPObj(FPModule.free(ZZ, 1)), 1)
    assert v.kind == "ind" and v.basis == "Milnor extension, both terms nonzero"
    lim1, lim = v.payload["extension"]
    assert lim1["kind"] == "completion_cokernel"
    assert lim["module"] == {"free_rank": 0, "torsion": ["7"]}


def test_local_layer_refuses_malformed_input(ZZ, QQxy, d5):
    from lodua import CechComplex, ChainComplex, UnsupportedRing
    from lodua.local import ext_out_of_fp, local_cohomology_value
    with pytest.raises(InvalidInput, match="ideal generators must be nonzero"):
        IdealData(ZZ, [5, 0])
    with pytest.raises(InvalidInput, match="multiplier must be nonzero"):
        Telescope(FPModule.free(ZZ, 1), 0)
    with pytest.raises(InvalidInput, match="cannot grade 'x'"):
        GradedObject.of("x")
    with pytest.raises(InvalidInput, match="expected a module or descriptor"):
        local_homology_Ls(d5, "x", 0)
    with pytest.raises(InvalidInput, match="single-generator form only"):
        CechComplex(IdealData(QQxy, ["x", "y"])).top_cokernel_descriptor()
    Qx = FPModule.cyclic(QQxy, ["x"])
    with pytest.raises(InvalidInput, match="lives over a different ring"):
        local_cohomology_value(d5, FPObj(Qx), 0)
    with pytest.raises(UnsupportedRing, match="no Ext rule from"):
        ext_out_of_fp(FPModule.free(ZZ, 1), FPObj(Qx), 0)
    with pytest.raises(InvalidInput, match="expects a single-degree input"):
        local_cohomology(d5, GradedObject(ZZ, {0: FPObj(zmod(ZZ, 5)),
                                               1: FPObj(zmod(ZZ, 5))}), 0)
    # two nonzero homologies over a ring that is not hereditary
    C = ChainComplex(QQxy, {0: Qx, 1: Qx}, {})
    with pytest.raises(UnsupportedRing, match="cannot split a complex"):
        GradedObject.of(C)


def test_local_cohomology_edge_values(ZZ, QQxy, d5):
    from lodua.local import local_cohomology_value
    zero = FPObj(FPModule.zero(ZZ))
    assert local_cohomology_value(d5, zero, 1).describe() == {"kind": "zero"}
    # a unit generator: x acts surjectively, so H^1 of a free module is zero
    assert local_cohomology(IdealData(ZZ, [1]), FPModule.free(ZZ, 1),
                            1).basis == "x acts surjectively"
    # (x, x) is not regular, so the top degree is not recognized
    v = local_cohomology(IdealData(QQxy, ["x", "x"]), FPModule.free(QQxy, 1), 2)
    assert v.describe() == {"kind": "unrecognized",
                            "evidence": "no regularity certificate"}


def test_gamma_sums_unlike_values_symbolically(ZZ, d5):
    from lodua import UnsupportedRing
    # H^0 of Z/5 and H^1 of Z[1] both land in degree 0
    X = GradedObject(ZZ, {0: FPObj(zmod(ZZ, 5)), 1: FPObj(FPModule.free(ZZ, 1))})
    gx = gamma(d5, X)
    v = gx.table.value(0)
    assert v.kind == "ind" and v.basis == "direct sum of values"
    assert [p["kind"] for p in v.payload["sum"]] == ["module",
                                                     "telescope_quotient"]
    with pytest.raises(UnsupportedRing, match="Gamma output in degree 0 is "
                                              "not re-consumable: ind"):
        gx.as_graded_object()


_Z = make_ring({"base": "Z"})
_Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}})
_QXY = make_ring({"base": "Q", "vars": ["x", "y"]})
_F7XY = make_ring({"base": "Fp", "p": 7, "vars": ["x", "y"]})
_X3Y = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^3*y"]})
_QXY_MODULES = [FPModule.free(_QXY, 1), FPModule.cyclic(_QXY, ["x", "y"]),
                FPModule.cyclic(_QXY, ["x"]),
                FPModule.cyclic(_QXY, ["x^2", "x*y"]),
                FPModule(_QXY, 2, [(_QXY.el("x"), _QXY.el("y"))])]


@st.composite
def _z_targets(draw):
    """A small presentation over Z at (5), as itself or, when 5 acts
    injectively on it, as the telescope quotient 5^-1 M / M."""
    ngens = draw(st.integers(1, 2))
    rels = draw(st.lists(st.tuples(*[st.integers(-30, 30)] * ngens),
                         max_size=2))
    M = FPModule(_Z, ngens, [tuple(_Z.el(e) for e in col) for col in rels])
    desc = FPObj(M)
    if draw(st.booleans()):
        try:
            desc = TelescopeQuotient(M, _Z.el(5))
        except InvalidInput:  # 5 kills an element of M
            pass
    return IdealData(_Z, [5]), desc


@st.composite
def _z5_diagonal_targets(draw):
    """A diagonal presentation over Z_5: off the diagonal the Koszul-stage
    route still refuses valid Z_5 modules (ROADMAP item 1)."""
    diag = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=2))
    n = len(diag)
    rels = [tuple(_Z5.el(u * 5 ** a if k == i else 0) for k in range(n))
            for i, (a, u) in enumerate(diag)]
    return IdealData(_Z5, [5]), FPObj(FPModule(_Z5, n, rels))


_QXY_TARGETS = st.sampled_from(_QXY_MODULES).map(
    lambda M: (IdealData(_QXY, ["x", "y"]), FPObj(M)))


@settings(max_examples=60)
@given(st.one_of(_z_targets(), _z5_diagonal_targets(), _QXY_TARGETS))
def test_localhom_agrees_with_the_gm_check(case):
    # gm_ses_check materializes both Tor towers; local_homology_Ls takes
    # lim^1 Tor_(s+1) from Artin-Rees without building its stages
    d, desc = case
    for s in (0, 1, 2):
        assert local_homology_Ls(d, desc, s).describe() == \
            gm_ses_check(d, desc, s)["L_s"]


_POLY_ENTRIES = ["0", "1", "x", "y", "x + y", "x*y", "x^2", "y^2 - x", "2*x"]


@st.composite
def _poly_targets(draw):
    """A small presentation over Q[x,y] or F_7[x,y], at (x, y) or at
    (x + y, xy)."""
    ring = draw(st.sampled_from([_QXY, _F7XY]))
    ngens = draw(st.integers(1, 2))
    rels = draw(st.lists(st.tuples(*[st.sampled_from(_POLY_ENTRIES)] * ngens),
                         max_size=2))
    M = FPModule(ring, ngens, [tuple(ring.el(e) for e in col) for col in rels])
    gens = draw(st.sampled_from([["x", "y"], ["x + y", "x*y"]]))
    return IdealData(ring, gens), FPObj(M)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_z_targets(), _poly_targets()))
def test_local_homology_is_the_homology_of_lambda(case):
    # L_s = H_s(Lambda M) for a weakly proregular sequence (Greenlees-May):
    # the engine reads L_s off the Tor towers alone, and Lambda, with both
    # of its routes, is the reference here
    d, desc = case
    table = derived_completion(d, desc)
    for s in (0, 1, 2):
        ok, detail = values_agree(local_homology_Ls(d, desc, s),
                                  table.value(s))
        assert ok, detail


@st.composite
def _regular_sequences(draw):
    """Regular sequences, as (ring, generators): (p^k) on Z and on Z_5 at
    precision 20 (times a unit there), and (x + a*y, y^b) on Q[x, y]."""
    ring = draw(st.sampled_from([_Z, _Z5, _QXY]))
    if ring is _Z:
        p = draw(st.sampled_from([2, 3, 5, 7]))
        return ring, [p ** draw(st.integers(1, 4))]
    if ring is _Z5:
        unit = draw(st.sampled_from([1, 2, -1, 7]))
        return ring, [unit * 5 ** draw(st.integers(1, 4))]
    a, b = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
    return ring, [f"x + {a}*y", f"y^{b}"]


@settings(max_examples=15)
@given(_regular_sequences())
def test_a_regular_sequence_is_weakly_proregular_by_its_certificate(case):
    """A regular sequence carries its regularity certificate, and the
    Koszul homology towers are pro-trivial at lag 0: the powers of a
    regular sequence are regular, so every Koszul homology stage in
    positive degree is zero."""
    ring, gens = case
    assert IdealData(ring, gens).regular_certificate().regular
    verdicts = koszul_pro_trivial(ring, gens, stage_bound=3, lag=2)
    assert all(v.status == "pro-trivial" and v.lag == 0
               for v in verdicts.values())


@st.composite
def _monomial_quotients(draw):
    """k[x,y]/(x^a y^b) with k = Q or F_7, 1 <= a <= 4 and 1 <= b <= 3, as
    (ring, a)."""
    base = draw(st.sampled_from([{"base": "Q"}, {"base": "Fp", "p": 7}]))
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return make_ring({**base, "vars": ["x", "y"],
                      "quotient": [f"x^{a}*y^{b}"]}), a


@settings(max_examples=12)
@given(_monomial_quotients(), st.sampled_from([[], ["y"], ["x - y"]]))
@example((_X3Y, 3), [])
def test_a_sequence_that_is_not_regular_is_answered(case, rels):
    """(x) on k[x,y]/(x^a y^b) is not a regular sequence: y^b x^(a-1)
    kills x.  It is weakly proregular, as every finite sequence of a
    Noetherian ring is, so Lambda and L_s answer, unstamped, and agree
    (Lambda checks route A against route B inside the engine).  Its
    Koszul homology tower agrees: its composites of lag j, multiplication
    by x^j from the annihilator of x^(k+j) to that of x^k, all vanish
    exactly when j >= a."""
    ring, a = case
    d = IdealData(ring, ["x"])
    assert not d.regular_certificate().regular
    M = FPModule.cyclic(ring, rels) if rels else FPModule.free(ring, 1)
    table = derived_completion(d, M)
    assert set(table.entries) == {0}
    for s in (0, 1):
        value = local_homology_Ls(d, FPObj(M), s)
        assert "outside verified hypotheses" not in (value.basis or "")
        assert value.is_zero() == (s == 1)
        assert values_agree(value, table.value(s))[0]
    verdicts = koszul_pro_trivial(ring, ["x"], stage_bound=a + 2, lag=a)
    assert verdicts[1].describe() == {"status": "pro-trivial", "lag": a}


# -- route B over exact rings ------------------------------------------------------

_ENTRIES = ["0", "1", "x", "y", "x - y", "x^2", "x*y + 1", "y^2 - x"]


@st.composite
def _exact_route_B_cases(draw):
    """A presentation with 1-2 generators and 0-2 relations, over Q[x,y] or
    F_7[x,y] at (x, y) or (x + y, xy), over Q[x,y]/(x^3 y) at (x), or over Z
    at (5)."""
    ring = draw(st.sampled_from([_QXY, _F7XY, _X3Y, _Z]))
    if ring is _Z:
        gens, entry = [5], st.integers(-30, 30)
    elif ring is _X3Y:
        gens, entry = ["x"], st.sampled_from(_ENTRIES)
    else:
        gens = draw(st.sampled_from([["x", "y"], ["x + y", "x*y"]]))
        entry = st.sampled_from(_ENTRIES)
    ngens = draw(st.integers(1, 2))
    rels = draw(st.lists(st.lists(entry, min_size=ngens, max_size=ngens),
                         max_size=2))
    return (IdealData(ring, gens),
            FPModule(ring, ngens, [tuple(ring.el(e) for e in col)
                                   for col in rels]))


def _kos_tensor_tower(M, gens, s, upto):
    """H_s(Kos(x^k) (x) M) for k <= upto as an explicit tower, built from
    ``koszul_chain``, ``tensor_module`` and ``koszul_transition`` (x) id_M."""
    ring = M.ring
    kos = {k: koszul_chain(ring, gens, k) for k in range(1, upto + 1)}
    tensored = {k: C.tensor_module(M) for k, C in kos.items()}
    transitions = []
    for k in range(1, upto):
        f = koszul_transition(ring, gens, k, kos[k + 1], kos[k])
        src, tgt = tensored[k + 1], tensored[k]
        maps = {j: ModuleMap(src.module(j), tgt.module(j),
                             kron_identity(ring, f.map(j).matrix, M.ngens),
                             check=False)
                for j in tgt.degrees()}
        transitions.append(
            induced_on_homology(ChainMap(src, tgt, maps, check=False), s))
    return Tower.explicit([tensored[k].homology(s) for k in kos], transitions)


@settings(max_examples=40)
@given(_exact_route_B_cases())
@example((IdealData(_X3Y, ["x"]), FPModule.free(_X3Y, 1)))
@example((IdealData(_F7XY, ["x", "y"]),
          FPModule(_F7XY, 2, [(_F7XY.el("x^2"), _F7XY.zero()),
                              (_F7XY.one(), _F7XY.el("x^2"))])))
def test_exact_route_B_needs_no_koszul_stage_tower(case):
    """Route B is the limit of the adic tower, on an exact ring as on any:
    the Koszul-stage towers of degrees 1..n are pro-zero, and
    ``is_pro_trivial`` finds them so on six stages built here (the second
    example needs lag 4).  Lambda answers whether or not the sequence is
    regular.  The oracle's Groebner bases run under a budget of 1000
    steps: on a few presentations over Q[x,y] at (x + y, xy) the steps
    grow so costly that the default budget runs for minutes, and such a
    tower is left to the theorem."""
    from lodua.local import _lambda_route_B
    d, M = case
    adic = lim_lim1(Tower.adic(M, d.gens)).lim
    expected = {} if adic.is_zero() else {0: adic.describe()}
    assert {s: v.describe() for s, v in _lambda_route_B(d, M).items()} \
        == expected
    assert set(derived_completion(d, M).entries) == set(expected)
    for s in range(1, d.n + 1):
        try:
            with lodua.settings(budget=1000):
                verdict = is_pro_trivial(_kos_tensor_tower(M, d.gens, s, 6),
                                         lag=5, stage_bound=6)
        except BudgetExceeded:
            continue
        assert verdict.status == "pro-trivial", verdict.describe()


def _probed_kinds(doc, target, monkeypatch):
    """The tower kinds ``towers._probe_lag`` is asked about by one cold
    ``lambda`` on doc."""
    import lodua.cli
    import lodua.towers
    kinds, probe = [], lodua.towers._probe_lag
    monkeypatch.setattr(lodua.towers, "_probe_lag", lambda tower: (
        kinds.append(tower.kind), probe(tower))[1])
    lodua.towers._presented_limits.cache_clear()
    code, _ = lodua.cli.run(doc, "lambda", {"target": target})
    assert code == 0
    return kinds


def test_lambda_on_an_exact_ring_probes_no_koszul_stage_tower(monkeypatch):
    doc = {"version": "1", "ring": {"base": "Q", "vars": ["x", "y"]},
           "ideal": ["x", "y"],
           "modules": {"M": {"generators": 2,
                             "relations": [["x", "y"], ["x^2", "0"]]}}}
    assert "koszul_stage" not in _probed_kinds(doc, "M", monkeypatch)


def test_lambda_on_a_completed_polynomial_ring_probes_no_koszul_stage_tower(
        monkeypatch):
    doc = {"version": "1",
           "ring": {"base": "Q", "vars": ["x", "y"],
                    "completion": {"ideal": ["x", "y"], "precision": 4}},
           "ideal": ["x", "y"],
           "modules": {"M": {"generators": 2,
                             "relations": [["x", "y"], ["x^2", "0"]]}}}
    assert "koszul_stage" not in _probed_kinds(doc, "M", monkeypatch)


def test_lambda_on_a_completed_ring_probes_koszul_stage_towers(monkeypatch):
    import json
    import os
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "fixtures", "zp.json")) as fh:
        doc = json.load(fh)
    assert "koszul_stage" in _probed_kinds(doc, "zp", monkeypatch)
