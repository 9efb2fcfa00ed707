import pytest

from lodua import (ChainComplex, ChainMap, FPModule, FPObj, GradedObject,
                   IdealData, ModuleMap, Rational, Telescope,
                   TelescopeQuotient, cone, ext_telescope, homology_membership,
                   is_L_complete, is_lambda_local, make_ring)

from conftest import zmod


@pytest.fixture(scope="module")
def prufer(ZZ):
    return TelescopeQuotient(FPModule.free(ZZ, 1), ZZ.el(5))


@pytest.fixture(scope="module")
def Zp(Z5hat):
    return FPModule.free(Z5hat, 1)


def test_ext_cells_vanish_for_complete(ZZ, d5, Zp):
    # six-term sequence against Z_p: both cells vanish
    for q in (0, 1):
        assert ext_telescope(d5, 1, FPObj(Zp), q).is_zero()


def test_ext_cell_rational(ZZ, d5):
    v = ext_telescope(d5, 1, Rational(ZZ, 1), 0)
    assert v.kind == "rational" and not v.is_zero()


def test_rational_of_dimension_zero_is_zero(ZZ, d5):
    # Q^0 is the zero module, so it is complete
    cert = is_L_complete(Rational(ZZ, 0), d5)
    assert cert.verdict == "complete"
    assert all(v.kind == "zero" for v in cert.table.values())
    assert not is_L_complete(Rational(ZZ, 2), d5)


def test_telescope_on_torsion_is_zero(ZZ, d5):
    # 5 is nilpotent on Z/25, so 5^-1(Z/25) = 0 and it is complete; 5^-1 Z
    # is not
    from lodua.descriptors import value_of
    from lodua.local import ext_out_of_fp
    from lodua.towers import mult_tower_values
    tel = Telescope(zmod(ZZ, 25), 5)
    assert value_of(tel).is_zero()
    assert mult_tower_values(tel, ZZ.el(5)).lim.is_zero()
    assert is_L_complete(tel, d5).verdict == "complete"
    assert ext_out_of_fp(zmod(ZZ, 25), Telescope(FPModule.free(ZZ, 1), 5),
                         1).is_zero()
    free = Telescope(FPModule.free(ZZ, 1), 5)
    assert value_of(free).kind == "telescope"
    assert is_L_complete(free, d5).verdict == "not-complete"


def test_ext1_of_z_is_completion_quotient(ZZ, d5):
    # Hom(Z[1/p], Z) = 0 and Ext^1 = Z_p/Z, the completion cokernel
    v0 = ext_telescope(d5, 1, FPObj(FPModule.free(ZZ, 1)), 0)
    assert v0.is_zero()
    v1 = ext_telescope(d5, 1, FPObj(FPModule.free(ZZ, 1)), 1)
    assert v1.kind == "completion_cokernel" and not v1.is_zero()
    assert v1.payload.free_rank == 1


def test_ext_grid_truncation(ZZ, d5):
    # q > i vanishes for free: the telescope has projective dimension <= i
    v = ext_telescope(d5, 1, FPObj(FPModule.free(ZZ, 1)), 2)
    assert v.is_zero() and "projective dimension" in v.basis


def test_completeness_verdicts(ZZ, d5, Zp, prufer):
    from lodua.modules import direct_sum
    assert is_L_complete(FPObj(Zp), d5).verdict == "complete"
    assert is_L_complete(FPObj(zmod(ZZ, 25)), d5).verdict == "complete"
    S, _, _ = direct_sum(zmod(ZZ, 5), zmod(ZZ, 125))
    assert is_L_complete(FPObj(S), d5).verdict == "complete"
    c = is_L_complete(FPObj(FPModule.free(ZZ, 1)), d5)
    assert c.verdict == "not-complete" and c.witness["q"] == 1
    c = is_L_complete(Rational(ZZ, 1), d5)
    assert c.verdict == "not-complete" and c.witness["q"] == 0
    c = is_L_complete(prufer, d5)
    assert c.verdict == "not-complete" and c.witness["q"] == 0
    c = is_L_complete(Telescope(FPModule.free(ZZ, 1), ZZ.el(5)), d5)
    assert c.verdict == "not-complete"


def test_grid_needs_regularity(ZZ):
    d0 = IdealData(ZZ, [5])
    d0._regular = None
    bad = IdealData(ZZ, [5])
    from lodua.sequences import RegularityVerdict
    bad._regular = RegularityVerdict(False, stage=1)
    with pytest.raises(Exception):
        is_L_complete(FPObj(FPModule.free(ZZ, 1)), bad)


def test_lambda_local_verdicts(ZZ, d5, Zp, Z5hat):
    r = is_lambda_local(ChainComplex.single(Zp, 0), d5)
    assert r["verdict"] == "local"
    r = is_lambda_local(GradedObject(ZZ, {0: Rational(ZZ, 1)}), d5)
    assert r["verdict"] == "not-local"
    # cone(Z_p -p-> Z_p) = Z/p is local
    X = ChainComplex.single(Zp, 0)
    cm = ChainMap(X, X, {0: ModuleMap(Zp, Zp, [[Z5hat.el(5)]])})
    r = is_lambda_local(cone(cm), d5)
    assert r["verdict"] == "local"
    assert "fixed_point" in r


def test_criterion_functor_coherence(ZZ, d5, Zp, prufer):
    """is_L_complete true iff the completion functor fixes the module."""
    from lodua import derived_completion, values_agree, LimitModule
    cases = [(FPObj(Zp), True), (FPObj(zmod(ZZ, 25)), True),
             (FPObj(FPModule.free(ZZ, 1)), False), (Rational(ZZ, 1), False),
             (prufer, False),
             (Telescope(FPModule.free(ZZ, 1), ZZ.el(5)), False)]
    for desc, expected in cases:
        verdict = is_L_complete(desc, d5).verdict == "complete"
        assert verdict is expected
        d = d5 if not desc.ring.is_completed else IdealData(desc.ring, [5])
        lam = derived_completion(d, GradedObject(desc.ring, {0: desc}))
        if desc.kind == "fp":
            fixed = lam.value(1).is_zero() and values_agree(
                lam.value(0), LimitModule.of_module(desc.module))[0]
        else:
            fixed = False  # non-f.p. descriptors in the suite are not fixed
            if expected:
                raise AssertionError("unexpected complete non-fp descriptor")
        assert fixed is expected, desc


def test_torsion_membership(ZZ, d5, prufer):
    F = FPModule.free(ZZ, 1)
    X = ChainComplex.single(F, 0)
    cm = ChainMap(X, X, {0: ModuleMap(F, F, [[ZZ.el(5)]])})
    r = homology_membership(cone(cm), d5, "torsion")
    assert r["verdict"] is True
    assert "gamma_fixed_point" in r
    r = homology_membership(ChainComplex.single(F, 0), d5, "torsion")
    assert r["verdict"] is False
    r = homology_membership(GradedObject(ZZ, {0: prufer}), d5, "torsion")
    assert r["verdict"] is True


def test_torsion_membership_over_the_completion():
    """A module over A^ is checked against the ideal of A, lifted to A^."""
    A = make_ring({"base": "Q", "vars": ["x", "y"]})
    Ac = make_ring({"base": "Q", "vars": ["x", "y"],
                    "completion": {"ideal": ["x", "y"], "precision": 5}})
    M = FPModule(Ac, 1, [(Ac.el("x"),), (Ac.el("y^2"),)])
    r = homology_membership(GradedObject(Ac, {0: FPObj(M)}),
                            IdealData(A, ["x", "y"]), "torsion")
    assert r["per_degree"]["0"] == {"torsion": True, "killed_by_power": 2}
    assert r["verdict"] is True


def test_complete_membership_two_degrees(ZZ, d5, Zp, Z5hat):
    two = GradedObject(Z5hat, {0: FPObj(Zp), 1: FPObj(zmod(ZZ, 25))})
    r = homology_membership(two, d5, "complete")
    assert r["verdict"] is True


def test_torsion_coherence(ZZ, d5, prufer):
    """Torsion verdict iff the torsion functor fixes the homology."""
    from lodua import gamma, values_agree
    F = FPModule.free(ZZ, 1)
    cases = [(FPObj(zmod(ZZ, 25)), True), (prufer, True), (FPObj(F), False)]
    for desc, expected in cases:
        r = homology_membership(GradedObject(ZZ, {0: desc}), d5, "torsion")
        assert (r["verdict"] is True) == expected
        g = gamma(d5, GradedObject(ZZ, {0: desc}))
        from lodua.descriptors import value_of as _expected_value
        fixed, _ = values_agree(g.value(0), _expected_value(desc))
        fixed = fixed and g.value(-1).is_zero()
        assert fixed == expected


def test_grid_over_completed_polynomial_ring(QQxy, dxy):
    """A free module over the completed ring passes the full (i, q) grid,
    exercising the i = 2 telescope cells over k[[x, y]]."""
    Ahat_ring = make_ring({"base": "Q", "vars": ["x", "y"],
                           "completion": {"ideal": ["x", "y"], "precision": 4}})
    Ahat = FPModule.free(Ahat_ring, 1)
    cert = is_L_complete(FPObj(Ahat), dxy, precision=4)
    assert cert.verdict == "complete"
    assert set(cert.table) == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


def test_unverified_hypotheses_are_stamped():
    """When the weak-proregularity certificate is inconclusive the L_s value
    carries the outside-verified-hypotheses stamp.  (x) in Q[x,y]/(xy) is
    not a regular sequence, so the bounded check is the one consulted."""
    from lodua import local_homology_Ls
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x*y"]})
    d = IdealData(R, ["x"])
    d._wpr[(3, 2)] = {"status": "inconclusive"}
    v = local_homology_Ls(d, FPObj(FPModule.free(R, 1)), 0)
    assert "outside verified hypotheses" in (v.basis or "")


# -- graded polynomial rings: Q[x, y] at (x, y) ---------------------------------


def test_grid_of_the_free_module_over_a_polynomial_ring(QQxy, dxy):
    """No completion rule applies at (x) alone, which is not 0-dimensional,
    so the i = 1 cells are unrecognized and the verdict is inconclusive."""
    cert = is_L_complete(FPObj(FPModule.free(QQxy, 1)), dxy)
    assert cert.verdict == "inconclusive"
    assert not cert.table[(1, 0)].is_recognized()
    assert not cert.table[(1, 1)].is_recognized()
    assert cert.table[(1, 0)].evidence["lim"]["evidence"] == \
        "no divisibility rule applies"
    assert cert.table[(2, 0)].is_zero()


def test_grid_of_a_finite_dimensional_quotient(QQxy, dxy):
    cert = is_L_complete(FPObj(FPModule.cyclic(QQxy, ["x^2", "y"])), dxy)
    assert cert.verdict == "complete"
    assert cert.table[(1, 0)].basis == "x^2 = 0 on M"


def test_grid_refusals_keep_their_wording(ZZ, QQxy, dxy):
    """Q^d is a Z-module: x cannot act on it.  Telescope-quotient targets are
    answered at the first stage only."""
    from lodua import UnsupportedRing
    with pytest.raises(UnsupportedRing, match="cannot act by x on ZZ"):
        is_L_complete(Rational(ZZ, 2), dxy)
    assert ext_telescope(dxy, 2, Rational(ZZ, 2), 0).is_zero()
    tq = TelescopeQuotient(FPModule.free(QQxy, 1), "x")
    with pytest.raises(UnsupportedRing,
                       match="supported at the first stage only"):
        ext_telescope(dxy, 2, tq, 0)


def test_grid_entry_points_take_modules_and_check_indices(ZZ, d5):
    from lodua import InvalidInput
    M = zmod(ZZ, 25)
    assert is_L_complete(M, d5).verdict == "complete"
    assert ext_telescope(d5, 1, M, 0).describe() == \
        ext_telescope(d5, 1, FPObj(M), 0).describe()
    with pytest.raises(InvalidInput, match="index 2 outside 1..1"):
        ext_telescope(d5, 2, M, 0)
    with pytest.raises(InvalidInput, match="unknown membership kind 'sum'"):
        homology_membership(M, d5, "sum")
    out = homology_membership(FPModule.free(ZZ, 1), d5, "complete")
    assert out["verdict"] is False
