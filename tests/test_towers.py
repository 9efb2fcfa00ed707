import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lodua
from lodua import (FPModule, FPObj, LoduaError, Rational, Telescope,
                   TelescopeQuotient, Tower, is_pro_trivial, iso_check,
                   lim_lim1, make_ring, weak_proregularity_check)
from lodua.modules import identity_map, quotient_by_ideal_power
from lodua.towers import (_TOWER_LIMIT, KoszulTensorStages,
                          _presented_limits, mult_tower_values)

from conftest import zmod


def test_adic_tower_stages(ZZ):
    t = Tower.adic(FPModule.free(ZZ, 1), [5])
    assert iso_check(t.stage(2), zmod(ZZ, 25))
    # transitions are the canonical reductions
    f = t.transition(2)
    assert not f.is_zero_map()


def test_adic_limit_is_completion(ZZ):
    t = Tower.adic(FPModule.free(ZZ, 1), [ZZ.el(5)])
    res = lim_lim1(t)
    assert res.lim.kind == "module"
    out = res.lim.payload
    assert out.ring.is_completed and out.ngens == 1 and not out.relations
    assert res.lim1.is_zero()
    # finite-stage consistency: the reported limit reduces to every stage
    for k in (1, 2, 3):
        reduced = quotient_by_ideal_power(out, [out.ring.el(5)], k)
        fa = sorted(x.render() for x in reduced.decomposition()[0])
        fb = sorted(x.render() for x in t.stage(k).decomposition()[0])
        assert fa == fb


def test_mult_tower_of_z(ZZ):
    res = mult_tower_values(FPObj(FPModule.free(ZZ, 1)), ZZ.el(5))
    assert res.lim.is_zero()
    assert not res.lim1.is_zero()
    assert res.lim1.kind == "completion_cokernel"
    assert res.lim1.payload.free_rank == 1


def test_mult_tower_of_completed(Z5hat):
    # intersection of 5^k Z_5 is zero; lim^1 vanishes: Z_5 is complete
    res = mult_tower_values(FPObj(FPModule.free(Z5hat, 1)), Z5hat.el(5))
    assert res.lim.is_zero() and res.lim1.is_zero()


def test_mult_tower_units_and_torsion(ZZ):
    M6 = zmod(ZZ, 6)
    res = mult_tower_values(FPObj(M6), ZZ.el(5))
    assert res.lim.kind == "module" and iso_check(res.lim.payload, M6)
    assert res.lim1.is_zero()
    # divisible part of Z/12 under 2 is the prime-to-2 part Z/3
    res = mult_tower_values(FPObj(zmod(ZZ, 12)), ZZ.el(2))
    assert iso_check(res.lim.payload, zmod(ZZ, 3))
    assert res.lim1.is_zero()


def test_mult_tower_rational(ZZ):
    res = mult_tower_values(Rational(ZZ, 1), ZZ.el(5))
    assert res.lim.kind == "rational" and res.lim1.is_zero()


def test_tor_tower_of_prufer_delegates_to_adic(ZZ):
    prufer = TelescopeQuotient(FPModule.free(ZZ, 1), ZZ.el(5))
    t = Tower.tor(prufer, [ZZ.el(5)], 1)
    assert t.kind == "adic"
    # spec cross-check: the stages are Z/p^k with surjective transitions
    for k in (1, 2, 3):
        assert iso_check(t.stage(k), zmod(ZZ, 5 ** k))
        C, _ = t.transition(k).cokernel()
        assert C.is_zero()
    res = lim_lim1(t)
    assert res.lim.kind == "module" and res.lim1.is_zero()


def test_tor_tower_stagewise_colimit_cross_check(ZZ):
    """Tor_1(Z/p^k, Z/p^infty) computed stage-wise stabilizes to Z/p^k."""
    from lodua.modules import tor
    p = 5
    for k in (1, 2):
        values = [tor(zmod(ZZ, p ** k), zmod(ZZ, p ** j), 1) for j in (k + 1, k + 2)]
        for v in values:
            assert iso_check(v, zmod(ZZ, p ** k))


def test_tor_tower_of_telescope_vanishes(ZZ):
    tel = Telescope(FPModule.free(ZZ, 1), ZZ.el(5))
    for s in (0, 1, 2):
        res = lim_lim1(Tower.tor(tel, [ZZ.el(5)], s))
        assert res.lim.is_zero() and res.lim1.is_zero()


def test_pro_trivial_examples(ZZ):
    # Tor_1(A/p^k, Z/p) has zero transitions beyond lag 1
    t = Tower.tor(FPObj(zmod(ZZ, 5)), [ZZ.el(5)], 1)
    v = is_pro_trivial(t, lag=3, stage_bound=6)
    assert v.status == "pro-trivial" and v.lag == 1
    # constant tower with identity maps is not pro-trivial
    M = zmod(ZZ, 5)
    const = Tower.explicit([M, M], [identity_map(M)], periodic=1)
    v = is_pro_trivial(const, lag=3, stage_bound=5)
    assert v.status == "not-pro-trivial"
    # zero tower: lag 0
    assert is_pro_trivial(Tower.zero_tower(ZZ)).lag == 0


def test_recognition_soundness_unrecognized(ZZ):
    """No value is ever returned for a tower without a recognition rule."""
    M = zmod(ZZ, 5)
    t = Tower.explicit([M, M, M], [identity_map(M), identity_map(M)])
    res = lim_lim1(t)
    assert not res.recognized()


def test_explicit_periodic_isomorphisms(ZZ):
    M = zmod(ZZ, 7)
    t = Tower.explicit([M, M], [identity_map(M)], periodic=1)
    res = lim_lim1(t)
    assert res.lim.kind == "module" and iso_check(res.lim.payload, M)
    assert res.lim1.is_zero()


def test_weak_proregularity(ZZ, QQxy):
    assert weak_proregularity_check(ZZ, [5], stage_bound=4, lag=2)["status"] \
        == "weakly-proregular"
    assert weak_proregularity_check(QQxy, ["x", "y"], stage_bound=3,
                                    lag=2)["status"] == "weakly-proregular"
    assert weak_proregularity_check(QQxy, ["x + y", "x*y"], stage_bound=3,
                                    lag=2)["status"] == "weakly-proregular"


def test_mittag_leffler_surjective_implies_lim1_zero(ZZ):
    # adic towers have surjective transitions: lim^1 = 0 is part of the verdict
    res = lim_lim1(Tower.adic(zmod(ZZ, 125), [ZZ.el(5)]))
    assert res.lim1.is_zero()
    assert iso_check(res.lim.payload, zmod(res.lim.payload.ring, 125))


def test_graded_polynomial_rules(QQxy):
    """Q[x, y]: the divisible part of a homogeneous presentation, and the
    completion cokernel at (x), which is not 0-dimensional, and at (x, y)."""
    from lodua.towers import completion_cokernel, divisible_part
    x, y = QQxy.el("x"), QQxy.el("y")
    free = FPModule.free(QQxy, 1)
    D = divisible_part(free, x)
    assert D.is_zero() and D.basis == "graded: positive-degree multiplier"
    assert completion_cokernel(free, [x]) is None
    c = completion_cokernel(free, [x, y])
    assert not c.is_zero() and "unbounded grading" in c.witness
    c = completion_cokernel(FPModule.cyclic(QQxy, ["x^2", "y"]), [x, y])
    assert c.is_zero()


def test_divisible_part_over_a_completed_ring():
    """y kills A/(x, y) and acts as 1 on A/(y - 1): the image chain of y
    stabilizes at the second summand."""
    from lodua.modules import block_sum
    from lodua.towers import divisible_part
    R = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x"], "precision": 3}})
    M = block_sum([FPModule.cyclic(R, ["x", "y"]), FPModule.cyclic(R, ["y - 1"])])
    D = divisible_part(M, R.el("y"))
    assert D.basis == "image chain stabilized at 2"
    assert iso_check(D.payload, FPModule.cyclic(R, ["y - 1"]),
                     identity_map(D.payload))


def test_mult_towers_on_descriptors_and_unrecognized_shapes(ZZ, QQxy):
    from lodua import InvalidInput, UnsupportedRing
    mult = mult_tower_values
    # an invertible multiplier is a failing stage, not an inconclusive one
    v = is_pro_trivial(Tower.mult(zmod(ZZ, 7), 5))
    assert v.describe() == {"status": "not-pro-trivial", "failing_stage": 1,
                            "note": "multiplier acts invertibly"}
    with pytest.raises(UnsupportedRing, match="materialize fp stages only"):
        is_pro_trivial(Tower.mult(Telescope(FPModule.free(ZZ, 1), 5), 5))
    assert mult(Telescope(FPModule.free(ZZ, 1), 5), 7).basis == "unrecognized"
    zero_tq = mult(TelescopeQuotient(FPModule.zero(ZZ), 5), 5)
    assert zero_tq.lim.is_zero() and zero_tq.basis == "telescope-quotient six-term"
    # rings and multipliers no divisibility or completion rule covers
    Qx = make_ring({"base": "Q", "vars": ["x", "y"],
                    "completion": {"ideal": ["x"], "precision": 3}})
    L = make_ring({"base": "Q", "vars": ["x", "y"], "invert": "x"})
    for M, x in ((FPModule.free(QQxy, 1), "x + y^2"),
                 (FPModule.cyclic(QQxy, ["x - y^2"]), "y"),
                 (FPModule.free(Qx, 1), "y"), (FPModule.free(L, 1), "y")):
        assert mult(FPObj(M), M.ring.el(x)).basis == "unrecognized"
    with pytest.raises(InvalidInput, match="need a nonempty sequence"):
        weak_proregularity_check(ZZ, [], 2, 1)
    # (x, x) has Koszul homology whose composites a lag of 0 cannot kill
    out = weak_proregularity_check(QQxy, ["x", "x"], 2, 0)
    assert out["status"] == "inconclusive" and out["degree"] == 1


def test_explicit_and_zero_towers(ZZ):
    from lodua import InvalidInput
    from lodua.modules import scalar_map, zero_map
    M = zmod(ZZ, 10)
    periodic = Tower.explicit([M], [scalar_map(M, 2)], periodic=1)
    assert periodic.stage(3) is M and periodic.transition(3).matrix == [[2]]
    assert lim_lim1(periodic).basis == "unrecognized"
    killed = Tower.explicit([M], [zero_map(M, M)], periodic=1)
    assert lim_lim1(killed).basis == "periodic pro-trivial"
    finite = Tower.explicit([M], [])
    for ask, what in ((lambda: finite.stage(2), "stage 2"),
                      (lambda: finite.transition(1), "transition 1")):
        with pytest.raises(InvalidInput, match=f"explicit tower has no {what}"):
            ask()
    assert is_pro_trivial(finite, stage_bound=0).describe() == {
        "status": "inconclusive", "note": "no materializable stages"}
    zero = Tower.zero_tower(ZZ)
    assert zero.stage(1).is_zero() and zero.transition(1).source.is_zero()
    bogus = Tower(ZZ, "sum", {})
    for ask in (lambda: bogus.stage(1), lambda: bogus.transition(1),
                lambda: lim_lim1(bogus)):
        with pytest.raises(InvalidInput, match="unknown tower kind sum"):
            ask()


# -- the table of tower limits ----------------------------------------------------

# per ring: the ideal and small presentations (generator count, relation
# columns), several alike in shape so that only the entries tell them apart;
# Z_5 at precision 3 keeps its stages small
_TABLE_RINGS = {
    "Z": (make_ring({"base": "Z"}), ["5"],
          [(1, []), (1, [["25"]]), (1, [["10"]]), (1, [["3"]]),
           (2, [["5", "10"]]), (2, [["4", "0"], ["0", "25"]])]),
    "Z_5": (make_ring({"base": "Z", "completion": {"ideal": ["5"],
                                                    "precision": 3}}), ["5"],
            [(1, []), (1, [["25"]]), (1, [["5"]]), (2, [["5", "50"]])]),
    "Q[x]": (make_ring({"base": "Q", "vars": ["x"]}), ["x"],
             [(1, []), (1, [["x^2"]]), (1, [["x - 1"]]), (1, [["x"]]),
              (2, [["x", "x^2"]])]),
}
_TABLE_TOWERS = [("adic", None, False), ("tor", 1, False), ("tor", 2, False),
                 ("koszul_stage", 0, False), ("koszul_stage", 1, False),
                 ("koszul_stage", 1, True), ("koszul_stage", 2, True)]


def _limits_or_refusal(ring, gens, item):
    """describe() of the limits of a tower built afresh, or the refusal's
    type."""
    (ngens, rels), (kind, s, certified) = item
    M = FPModule(ring, ngens, [tuple(col) for col in rels])
    if kind == "adic":
        tower = Tower.adic(M, gens)
    elif kind == "tor":
        tower = Tower.tor(FPObj(M), gens, s)
    else:
        tower = KoszulTensorStages(M, gens, certified).tower(s)
    try:
        return lim_lim1(tower).describe()
    except LoduaError as ex:
        return type(ex)


@settings(max_examples=60)
@given(st.sampled_from(sorted(_TABLE_RINGS)), st.data())
def test_a_tower_gets_its_cold_limits_after_any_prefix(name, data):
    ring, gens, modules = _TABLE_RINGS[name]
    towers = st.tuples(st.sampled_from(modules), st.sampled_from(_TABLE_TOWERS))
    prefix = data.draw(st.lists(towers, max_size=5))
    # the tower asked last is often one the prefix asked already
    target = data.draw(st.sampled_from(prefix) | towers if prefix else towers)
    _presented_limits.cache_clear()
    for item in prefix:
        _limits_or_refusal(ring, gens, item)
    warm = _limits_or_refusal(ring, gens, target)
    _presented_limits.cache_clear()
    assert _limits_or_refusal(ring, gens, target) == warm


def test_a_change_of_setting_misses_the_table(ZZ):
    def asked():
        before = _presented_limits.cache_info()
        lim_lim1(Tower.adic(FPModule.free(ZZ, 1), [5]))
        after = _presented_limits.cache_info()
        return after.misses - before.misses, after.hits - before.hits

    _presented_limits.cache_clear()
    assert [asked(), asked()] == [(1, 0), (0, 1)]
    for changed in ({"K": 2}, {"lag": 1}, {"precision": 3}, {"budget": 500}):
        with lodua.settings(**changed):
            assert [asked(), asked()] == [(1, 0), (0, 1)], changed
    # the settings are keyed resolved: 20 is the precision an unset one
    # takes over Z, so the default run's entry answers
    with lodua.settings(precision=20):
        assert asked() == (0, 1)


def test_the_table_holds_at_most_its_bound(ZZ):
    _presented_limits.cache_clear()
    for K in range(1, _TOWER_LIMIT + 9):
        with lodua.settings(K=K):
            lim_lim1(Tower.adic(FPModule.free(ZZ, 1), [5]))
    info = _presented_limits.cache_info()
    assert info.misses == _TOWER_LIMIT + 8
    assert info.currsize == _TOWER_LIMIT
