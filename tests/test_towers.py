import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lodua
from lodua import (FPModule, FPObj, LoduaError, Rational, Telescope,
                   TelescopeQuotient, Tower, is_pro_trivial, iso_check,
                   lim_lim1, make_ring)
from lodua.errors import UnrecognizedTower
from lodua.modules import identity_map, quotient_by_ideal_power
from lodua.towers import (_TOWER_LIMIT, KoszulTensorStages,
                          _presented_limits, mult_tower_values)

from conftest import koszul_homology_tower, koszul_pro_trivial, zmod


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


def test_adic_limit_over_a_polynomial_ring_builds_one_stage(QQxy):
    # the stage cross-check compares invariants, which only euclidean rings
    # have; elsewhere only stage 1 is built, to see that M != IM
    t = Tower.adic(FPModule.cyclic(QQxy, ["x^2"]), [QQxy.el("x"),
                                                     QQxy.el("y")])
    _presented_limits.cache_clear()
    assert lim_lim1(t).lim.kind == "module"
    assert list(t._stages) == [1]


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
    assert not (res.lim.is_recognized() and res.lim1.is_recognized())


def test_explicit_periodic_isomorphisms(ZZ):
    M = zmod(ZZ, 7)
    t = Tower.explicit([M, M], [identity_map(M)], periodic=1)
    res = lim_lim1(t)
    assert res.lim.kind == "module" and iso_check(res.lim.payload, M)
    assert res.lim1.is_zero()


def test_explicit_tower_refuses_a_period_its_lists_cannot_hold(ZZ):
    from lodua import InvalidInput
    Z4, Z9 = zmod(ZZ, 4), zmod(ZZ, 9)
    # a period of 3 over two stages and one transition read past the front
    # of the lists, and lim_lim1 ended in a bare IndexError
    for period in (3, 2, 0, -1, True, 1.0, "1"):
        with pytest.raises(InvalidInput, match="period must be an integer "
                                               "from 1 to 1"):
            Tower.explicit([Z4, Z9], [identity_map(Z9)], periodic=period)
    with pytest.raises(InvalidInput, match="from 1 to 0, not 1"):
        Tower.explicit([Z4], [], periodic=1)
    with pytest.raises(InvalidInput, match="needs a stage"):
        Tower.explicit([], [])
    t = Tower.explicit([Z4, Z9], [identity_map(Z9)], periodic=1)
    assert t.stage(3) is Z9 and t.transition(2).source is Z9


def test_weak_proregularity(ZZ, QQxy):
    for ring, gens, bound in ((ZZ, [5], 4), (QQxy, ["x", "y"], 3),
                              (QQxy, ["x + y", "x*y"], 3)):
        verdicts = koszul_pro_trivial(ring, gens, stage_bound=bound, lag=2)
        assert [v.status for v in verdicts.values()] \
            == ["pro-trivial"] * len(gens)


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


@settings(max_examples=200)
@given(st.data())
def test_zp_divisible_part_agrees_with_the_image_chain(data):
    """Over Z_p the divisible part is read off the invariant factors; the
    image chain it replaces is the oracle.  The rule holds for every
    nonzero M and every x of positive valuation, so it is asked of every
    draw, not only where ``mult_tower_values`` reaches it (there x is not
    nilpotent below the precision).  Entries p^a * unit with a up to N + 1
    are sometimes zero at precision N."""
    from lodua.towers import _image_chain_part, divisible_part
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    N = data.draw(st.integers(1, 12), label="N")
    R = make_ring({"base": "Z", "completion": {"ideal": [str(p)],
                                               "precision": N}})

    def padic(low):
        return st.builds(lambda a, u: R.el(p ** a * u), st.integers(low, N + 1),
                         st.integers(1, 4 * p).filter(lambda u: u % p))

    ngens = data.draw(st.integers(1, 3), label="generators")
    rels = data.draw(st.lists(st.tuples(*[padic(0)] * ngens), max_size=3),
                     label="relations")
    x = data.draw(padic(1), label="x")
    M = FPModule(R, ngens, rels)
    if M.is_zero():   # mult_tower_values answers it first
        return
    assert divisible_part(M, x).describe() == \
        _image_chain_part(M, x).describe()
    # and where mult_tower_values asks it, its lim is that value
    out = mult_tower_values(FPObj(M), x)
    if out.basis == "completion comparison model":
        assert out.lim.describe() == _image_chain_part(M, x).describe()


def test_a_cold_zp_lcomplete_check_builds_three_smith_forms(monkeypatch):
    # the divisible part over Z_p reads the Smith form that the nilpotence
    # test built on the same relations; the image chain built one for each
    # of its 21 steps
    import json
    import os
    from lodua import cli, linalg
    built = []
    smith = linalg._smith
    monkeypatch.setattr(linalg, "_smith",
                        lambda ar, D: built.append(D) or smith(ar, D))
    linalg._span.cache_clear()
    cli._parsed.cache_clear()
    _presented_limits.cache_clear()
    path = os.path.join(os.path.dirname(__file__), "fixtures", "zp.json")
    with open(path) as fh:
        code, report = cli.run(json.load(fh), "lcomplete-check")
    assert code == 0
    assert report["result"]["table"]["i=1,q=0"]["basis"] == \
        "image chain stabilized at 21"
    assert len(built) <= 3


@st.composite
def _tor_cases(draw, rings=("Z", "Z_p")):
    """(ring, generator count, relation columns, ideal generators, s, K,
    lag): entries p^a * unit or 0, over Z or over Z_p at precision N <= 8;
    over Z the units of the draw carry other primes, so an ideal of two
    generators such as (10, 25) has a gcd that neither generator is."""
    p = draw(st.sampled_from([2, 3, 5, 7]), label="p")
    if draw(st.sampled_from(rings), label="ring") == "Z":
        R, top = make_ring({"base": "Z"}), 4
    else:
        N = draw(st.integers(1, 8), label="N")
        R, top = make_ring({"base": "Z", "completion": {
            "ideal": [str(p)], "precision": N}}), N + 1

    def padic(low):
        return st.builds(
            lambda a, u: p ** a * u, st.integers(low, top),
            st.sampled_from([u for u in range(-3 * p, 3 * p) if u % p]))

    # up to 4 generators and relations: enough that the counted bound on
    # the stages often exceeds the probe gate
    ngens = draw(st.integers(1, 4), label="generators")
    # mostly in the maximal ideal at p, where the lags are not all 0
    entry = st.just(0) | padic(0) | padic(1) | padic(1) | padic(1)
    rels = draw(st.lists(st.tuples(*[entry] * ngens), max_size=4),
                label="relations")
    gens = draw(st.lists(entry, min_size=1, max_size=2), label="ideal")
    return (R, ngens, rels, gens,
            draw(st.sampled_from([1, 1, 2, 3]), label="s"),
            draw(st.integers(1, 6), label="K"),
            draw(st.integers(0, 4), label="lag"))


def _tor_tower(case):
    R, ngens, rels, gens, s, _, _ = case
    return Tower.tor(FPObj(FPModule(R, ngens, rels)), gens, s)


_Z = make_ring({"base": "Z"})
_Z2_AT_4 = make_ring({"base": "Z", "completion": {"ideal": ["2"],
                                                   "precision": 4}})


@settings(max_examples=300)
@given(_tor_cases())
# Z_2/(8) at precision 4 and I = (4): x^2 = 16 = 0, so stage 2 is zero and
# the lag is 1, although 8 does not divide x
@example((_Z2_AT_4, 1, [(8,)], [4], 1, 2, 2))
# past the count and the gate: I = (14, 45) is the unit ideal, so every
# stage is zero, yet stage 4 is presented on 9 generators
@example((_Z, 3, [(-14, -14, 11), (0, 0, -14), (0, -11, -14)], [-14, -45],
          1, 4, 0))
def test_a_pid_tor_lag_is_the_materialized_probes(case):
    """Over Z and Z_p every Tor tower gets its lag from the invariant
    factors, never from the materialized probe: without a stage built where
    the count shows the stages pass the probe gate, after the gate's stages
    are built past the count.  ``_stages_small`` and ``is_pro_trivial`` on a
    fresh tower are the oracle."""
    from unittest import mock

    from lodua.towers import (_probe_lag, _stages_small, _tor_stages_fit,
                              is_pro_trivial)
    _, _, _, _, _, K, lag = case
    with lodua.settings(K=K, lag=lag):
        bound, lag = min(K, 4), min(lag, 3)
        tower = _tor_tower(case)
        if tower.kind != "tor":
            return
        fits = _tor_stages_fit(tower, bound)
        with mock.patch("lodua.towers.is_pro_trivial",
                        side_effect=AssertionError("materialized")):
            found = _probe_lag(tower)
        if fits:
            assert not tower._stages
        oracle = _tor_tower(case)
        if not _stages_small(oracle, bound):
            assert not fits
            assert found == (None, "stage presentations exceed the probe gate")
            return
        verdict = is_pro_trivial(oracle, lag=lag, stage_bound=bound)
    if verdict.status == "pro-trivial":
        assert found == (verdict.lag, None)
    else:
        assert found == (None, verdict.describe())


@settings(max_examples=60)
@given(_tor_cases(rings=("Z",)))
def test_a_printed_tor_lag_holds_at_every_stage(case):
    """The lag a Tor tower over Z prints holds beyond the probe's stages:
    every composite of that lag vanishes on stages 1..8."""
    from lodua.towers import _probe_lag
    _, _, _, _, _, K, lag = case
    tower = _tor_tower(case)
    if tower.kind != "tor":
        return
    with lodua.settings(K=K, lag=lag):
        found, _ = _probe_lag(tower)
    if found is None:
        return
    for k in range(1, 9):
        if found == 0:
            assert tower.stage(k).is_zero()
        else:
            assert tower.composite(k, found).is_zero_map()


@st.composite
def _radical_cases(draw):
    """Z or Z_p (p in {2, 3, 5, 7}, precision N <= 8), one to three ideal
    generators and a multiplier, each 0, a unit or p^a * unit."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.one_of(st.none(), st.integers(1, 8)))
    R = make_ring({"base": "Z"} if N is None else {
        "base": "Z", "completion": {"ideal": [str(p)], "precision": N}})
    units = [u for u in range(-13, 14) if u % p]
    value = st.one_of(st.just(0), st.sampled_from(units), st.builds(
        lambda a, u: p ** a * u, st.integers(1, 9), st.sampled_from(units)))
    gens = draw(st.lists(value, min_size=1, max_size=3))
    return R, [R.el(g) for g in gens], R.el(draw(value))


@settings(max_examples=300)
@given(_radical_cases())
# over Z: only u^m = 0 puts u^m in the zero ideal; m = 3 is neither 1 nor 8
@example((_Z, [_Z.el(0)], _Z.el(0)))
@example((_Z, [_Z.el(250)], _Z.el(-10)))
def test_radical_membership_over_the_integers_is_the_killing_power(case):
    """Over Z and Z_p the radical power is read on the integers; the
    killing power of u on A/I, with its refusal, is the oracle."""
    from lodua.modules import _killing_power
    from lodua.towers import _require_radical_membership
    R, gens, u = case
    expected = _killing_power(FPModule.cyclic(R, gens), [u], 8)
    if expected is None:
        with pytest.raises(UnrecognizedTower) as refused:
            _require_radical_membership(R, u, gens)
        assert str(refused.value) == (
            f"multiplier {u.render()} is not visibly in the radical of the "
            f"ideal")
    else:
        assert _require_radical_membership(R, u, gens) == expected


# mostly nonunits, where Tor_1 is not zero
_POLY_ENTRIES = ["0", "1", "x", "y", "x^2", "x*y", "y^2", "x + y", "x - 2*y",
                 "x^2 + y", "x*y - y^2", "x^2 - y^2"]
_POLY_IDEALS = [["x", "y"], ["x + y", "x*y"], ["x"]]
# (ring, relation entries, ideals); Z and Z_p read their lags off invariant
# factors, so the ring without variables here is u^-1 Z
_CYCLE_RINGS = [
    (make_ring({"base": "Q", "vars": ["x", "y"]}), _POLY_ENTRIES, _POLY_IDEALS),
    (make_ring({"base": "Fp", "p": 7, "vars": ["x", "y"]}), _POLY_ENTRIES,
     _POLY_IDEALS),
    (make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x*y"]}),
     _POLY_ENTRIES, _POLY_IDEALS),
    (make_ring({"base": "Q", "vars": ["x", "y"], "completion": {
        "ideal": ["x", "y"], "precision": 4}}), _POLY_ENTRIES, _POLY_IDEALS),
    (make_ring({"base": "Z", "invert": "2"}),
     ["0", "1", "2", "3", "5", "6", "10", "25"], [["5"], ["10", "25"], ["3"]]),
]


@st.composite
def _cycle_cases(draw):
    """(ring, generator count, relation columns, ideal generators, s, K,
    lag): at most 2 generators and 2 relations of degree at most 2."""
    R, entries, ideals = draw(st.sampled_from(_CYCLE_RINGS), label="ring")
    ngens = draw(st.integers(1, 2), label="generators")
    rels = draw(st.lists(st.tuples(*[st.sampled_from(entries)] * ngens),
                         min_size=1, max_size=2), label="relations")
    return (R, ngens, rels, draw(st.sampled_from(ideals), label="ideal"),
            draw(st.integers(1, 2), label="s"),
            draw(st.integers(1, 5), label="K"),
            draw(st.integers(0, 3), label="lag"))


@settings(max_examples=120)
@given(_cycle_cases())
def test_a_cycle_tor_lag_is_the_materialized_probes(case):
    """Past the gate, a Tor tower over a ring whose spans compute exactly
    (u^-1 Z, fields, polynomial rings and their completions) decides its
    lag by membership of representative cycles, and one without F_s builds
    no stage; ``_stages_small`` and ``is_pro_trivial`` on a fresh tower are
    the oracle."""
    from lodua.towers import _probe_lag, _stages_small
    _, _, _, _, _, K, lag = case
    with lodua.settings(K=K, lag=lag):
        bound, lag = min(K, 4), min(lag, 3)
        found = _probe_lag(_tor_tower(case))
        oracle = _tor_tower(case)
        if not _stages_small(oracle, bound):
            assert found == (None, "stage presentations exceed the probe gate")
            return
        verdict = is_pro_trivial(oracle, lag=lag, stage_bound=bound)
    if verdict.status == "pro-trivial":
        assert found == (verdict.lag, None)
    else:
        assert found == (None, verdict.describe())


def test_a_tor_lag_refuses_a_carried_cycle_outside_the_cycles(QQxy):
    """Stage 1 of a Tor_1 tower of A/(x^2) replaced by C_1 -> A/(x), d = 1:
    its cycles are (x), and stage 2's cycle 1 does not lie in them.  The
    cycle path refuses it as ``induced_on_homology`` does."""
    from lodua import InvalidInput
    from lodua.complexes import ChainComplex
    from lodua.modules import ModuleMap
    from lodua.towers import TorStages, _probe_lag

    def tower():
        stages = TorStages(FPModule.cyclic(QQxy, ["x^2"]), ["x", "y"], 2)
        C1, C0 = FPModule.free(QQxy, 1), FPModule.cyclic(QQxy, ["x"])
        stages._complexes[1] = ChainComplex(
            QQxy, {0: C0, 1: C1}, {1: ModuleMap(C1, C0, [[1]], check=False)},
            check=False)
        return stages.tower(1)

    with lodua.settings(K=2, lag=1):
        with pytest.raises(InvalidInput, match="does not preserve cycles"):
            _probe_lag(tower())
        with pytest.raises(InvalidInput, match="does not preserve cycles"):
            is_pro_trivial(tower(), lag=1, stage_bound=2)


def test_mult_towers_on_descriptors_and_unrecognized_shapes(ZZ, QQxy):
    from lodua import UnsupportedRing
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
    # (x, x) has Koszul homology whose composites a lag of 0 cannot kill
    verdict = koszul_pro_trivial(QQxy, ["x", "x"], 2, 0)[1]
    assert verdict.status == "inconclusive"


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
_TABLE_TOWERS = [("adic", None), ("tor", 1), ("tor", 2), ("koszul_stage", 0),
                 ("koszul_stage", 1), ("koszul_stage", 2)]


def _limits_or_refusal(ring, gens, item):
    """describe() of the limits of a tower built afresh, or the refusal's
    type."""
    (ngens, rels), (kind, s) = item
    M = FPModule(ring, ngens, [tuple(col) for col in rels])
    if kind == "adic":
        tower = Tower.adic(M, gens)
    elif kind == "tor":
        tower = Tower.tor(FPObj(M), gens, s)
    else:
        tower = KoszulTensorStages(M, gens).tower(s)
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


_TOR_RINGS = {
    "Z": ({"base": "Z"}, ["5"], "5"),
    "Z_5": ({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}},
            ["5"], "5"),
    "Q[x,y]": ({"base": "Q", "vars": ["x", "y"]}, ["x", "y"], "x"),
}


def _tor_descriptor(kind, ring, gens, mult):
    if kind == "fp":  # torsion and a free summand
        return FPObj(FPModule(ring, 2, [(gens[0], 0)]))
    if kind == "telescope":
        return Telescope(FPModule.free(ring, 1), mult)
    if kind == "telescope_quotient":
        return TelescopeQuotient(FPModule.free(ring, 1), mult)
    return Rational(ring, 1)


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("ring_name, kind", [
    (r, k) for r in _TOR_RINGS
    for k in ("fp", "telescope", "telescope_quotient", "rational")
    if k != "rational" or r != "Q[x,y]"])   # Q^d lives over Z
def test_tor_towers_have_no_lim1(ring_name, kind, s):
    # zero towers by definition, adic towers by M = IM or Mittag-Leffler,
    # Tor towers by Artin-Rees: the right-term-vanishes case of
    # local.gm_ses_check cannot arise
    doc, gens, mult = _TOR_RINGS[ring_name]
    ring = make_ring(doc)
    gens = [ring.el(g) for g in gens]
    desc = _tor_descriptor(kind, ring, gens, ring.el(mult))
    assert lim_lim1(Tower.tor(desc, gens, s)).lim1.is_zero()


def test_koszul_homology_towers_are_pro_zero_by_weak_proregularity(QQxy):
    out = lim_lim1(koszul_homology_tower(QQxy, ["x", "y"], 1))
    assert out.lim.is_zero() and out.lim1.is_zero()
    assert out.basis == "wpr theorem"
