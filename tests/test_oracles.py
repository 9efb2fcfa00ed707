"""Independent finite-model oracles for the recognition engine.

These re-derive engine answers by brute enumeration in small finite
quotients, with no shared code path: compatible-sequence counting for
inverse limits, cardinality growth for colimit descriptors, and truncated
linear algebra for regularity at degrees up to four.
"""

from itertools import product

from lodua import (FPModule, FPObj, IdealData, TelescopeQuotient, Tower,
                   derived_hom_value, is_regular_sequence, iso_check,
                   lim_lim1, make_ring)

from conftest import zmod


def test_adic_limit_counts_compatible_sequences(ZZ):
    """lim Z/2^k has exactly 2^K elements at every finite truncation: count
    the compatible tuples directly and compare with the recognized value."""
    p, K = 2, 4
    tower = Tower.adic(FPModule.free(ZZ, 1), [ZZ.el(p)])
    compatible = 0
    for tup in product(*[range(p ** k) for k in range(1, K + 1)]):
        if all(tup[k + 1] % (p ** (k + 1)) == tup[k] for k in range(K - 1)):
            compatible += 1
    assert compatible == p ** K
    res = lim_lim1(tower)
    out = res.lim.payload
    # the recognized limit reduced mod p^K is one cyclic group of that order
    from lodua.modules import quotient_by_ideal_power
    reduced = quotient_by_ideal_power(out, [out.ring.el(p)], K)
    factors, rank = reduced.decomposition()
    assert rank == 0 and [str(f) for f in factors] == [str(p ** K)]


def test_mult_tower_lim_is_empty_of_compatible_sequences(ZZ):
    """lim(Z <-2- Z <-2- ...) = 0: a compatible sequence in any finite
    window forces divisibility by arbitrarily high powers of 2."""
    # brute check in the window |m| <= 64: m_0 = 2^4 m_4 forces |m_0| >= 16|m_4|
    found = [m0 for m0 in range(-64, 65) if m0 and m0 % 16 == 0
             and abs(m0) // 16 <= 4]
    # any survivor would need a chain extending forever; the window shows
    # the only candidate values collapse toward 0
    assert all(abs(m) >= 16 for m in found)
    from lodua.towers import mult_tower_values
    res = mult_tower_values(FPObj(FPModule.free(ZZ, 1)), ZZ.el(2))
    assert res.lim.is_zero()


def test_prufer_descriptor_stage_cardinalities(ZZ):
    """The stages of the colimit descriptor for H^1_(p)(Z) are Z/p^k with
    injective transition maps: verified by enumeration at p = 2."""
    tq = TelescopeQuotient(FPModule.free(ZZ, 1), ZZ.el(2))
    for k in (1, 2, 3):
        stage = tq.stage(k)
        assert iso_check(stage, zmod(ZZ, 2 ** k))
        f = tq.stage_map(k)
        K, _ = f.kernel()
        assert K.is_zero()   # multiplication by 2 embeds Z/2^k in Z/2^(k+1)
        # enumeration: the map m -> 2m mod 2^(k+1) on {0..2^k-1} is injective
        images = {(2 * m) % 2 ** (k + 1) for m in range(2 ** k)}
        assert len(images) == 2 ** k


def test_adjunction_hom_groups_expected_values(ZZ, d5):
    """[Gamma Z, Z/p^2] = Ext^1(Z/p^infty, Z/p^2) = Z/p^2 = [Z, Lambda Z/p^2]."""
    p = 5
    prufer = TelescopeQuotient(FPModule.free(ZZ, 1), ZZ.el(p))
    v = derived_hom_value(prufer, -1, FPObj(zmod(ZZ, p ** 2)), 0)
    assert v.kind == "module"
    factors, rank = v.payload.decomposition()
    assert rank == 0 and [str(f) for f in factors] == [str(p ** 2)]


def test_regularity_at_higher_degrees(F2xy):
    """Engine verdicts match the truncated oracle on degree-3/4 sequences."""
    import sys, os
    sys.path.insert(0, os.path.dirname(__file__))
    from test_acceptance import _brute_regular_f2
    cases = [
        ["x^3", "y^4"],                  # powers of a regular pair: regular
        ["x^2*y + y^3", "x^2"],
        ["x^4 + x*y^3", "y^2"],
        ["x^3", "x^2*y"],                # shares the factor x: not regular
        ["x^2 + y^2", "x*y"],            # (x+y)^2, xy: regular (xy is a
                                         # nonzerodivisor mod the square)
        ["x^3 + y^3", "x + y"],          # x+y divides x^3+y^3: not regular
    ]
    for seq in cases:
        engine = bool(is_regular_sequence(F2xy, seq))
        oracle = _brute_regular_f2(F2xy, seq, degree_cap=5)
        assert engine == oracle, (seq, engine, oracle)


def test_comodule_suite_over_f3():
    """The group-like machinery is characteristic-independent: run the
    completion formula over F_3[x,y] with the swap."""
    from lodua import (Comodule, GroupLikeHopfAlgebroid, settings,
                       verify_theorems)
    F3 = make_ring({"base": "Fp", "p": 3, "vars": ["x", "y"]})
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    swap = GroupLikeHopfAlgebroid(F3, ["e", "s"], table,
                                  {"s": {"x": "y", "y": "x"}})
    CA = Comodule(swap, FPModule.free(F3, 1), {"s": [[F3.el(1)]]})
    d = IdealData(F3, ["x + y", "x*y"])
    with settings(precision=4, K=4, lag=2):
        assert verify_theorems(swap, d, CA,
                               "completion-formula")["verdict"] == "pass"
        assert verify_theorems(swap, d, CA, "comodule-gm")["verdict"] == "pass"
