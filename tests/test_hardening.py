"""Property-style checks pinning determinism and edge behavior."""

import itertools
import random

import pytest

from lodua import (FPModule, FPObj, GradedObject, IdealData, Tower,
                   TelescopeQuotient, ext, gamma, groebner_basis,
                   is_pro_trivial, iso_check, make_ring, smith_normal_form,
                   stable_koszul_complex)
from lodua.modules import direct_sum, identity_map

from conftest import zmod


def test_reduced_basis_is_permutation_invariant(QQxy):
    gens = ["x^2 - y", "y^2 - x", "x*y - 1"]
    seen = set()
    for perm in itertools.permutations(gens):
        basis = groebner_basis(QQxy, list(perm))
        seen.add(tuple(b.render() for b in basis))
    assert len(seen) == 1  # the reduced basis is unique


def test_normal_form_idempotent_across_ring_classes():
    rings = [
        make_ring({"base": "Z"}),
        make_ring({"base": "Fp", "p": 7, "vars": ["x"]}),
        make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y"]}),
        make_ring({"base": "Z", "invert": "3"}),
        make_ring({"base": "Z", "completion": {"ideal": ["7"], "precision": 4}}),
        make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x", "y"], "precision": 3}}),
    ]
    rng = random.Random(11)
    for ring in rings:
        for _ in range(12):
            if ring.nvars == 0:
                raw = str(rng.randint(-400, 400))
            else:
                raw = f"{rng.randint(-5, 5)} + {rng.randint(-5, 5)}*x^{rng.randint(0, 3)}"
                if ring.nvars > 1:
                    raw += f" + {rng.randint(-5, 5)}*y^{rng.randint(0, 2)}*x"
            once = ring.el(raw)
            again = ring._normal(once.num, once.dexp)
            assert once == again, (ring, raw)


def test_smith_form_univariate_random():
    R = make_ring({"base": "Q", "vars": ["t"]})
    rng = random.Random(5)
    from lodua.linalg import mat_mul
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        A = [[R.el(f"{rng.randint(-3, 3)} + {rng.randint(-3, 3)}*t")
              for _ in range(m)] for _ in range(n)]
        U, D, V, Uinv, Vinv = smith_normal_form(R, A)
        UAV = mat_mul(R, mat_mul(R, U, A), V)
        for i in range(n):
            for j in range(m):
                assert UAV[i][j] == D[i][j]
        for i in range(min(n, m) - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if not a.is_zero() and not b.is_zero():
                _, r = R.divmod_el(b, a)
                assert r.is_zero()


def test_stable_koszul_four_terms(QQxy, dxy):
    sk = stable_koszul_complex(dxy)
    counts = [len(sk.term_descriptors(j)) for j in (0, 1, 2)]
    assert counts == [1, 2, 1]
    kinds = [t.kind for t in sk.term_descriptors(1)]
    assert kinds == ["telescope", "telescope"]
    # materialized stages are the Koszul cochain complexes on x^k, y^k
    stage = sk.stage(2)
    assert [stage.module(-j).ngens for j in (0, 1, 2)] == [1, 2, 1]


def test_ext_beyond_resolution_length(QQxy):
    kk = FPModule.cyclic(QQxy, ["x", "y"])
    assert ext(kk, FPModule.free(QQxy, 1), 3).is_zero()
    assert ext(kk, kk, 4).is_zero()


def test_gamma_of_mixed_sum(ZZ, d5):
    free = FPModule.free(ZZ, 1)
    S, _, _ = direct_sum(free, zmod(ZZ, 125))
    g = gamma(d5, S)
    v0 = g.value(0)
    assert v0.kind == "module" and iso_check(v0.payload, zmod(ZZ, 125))
    v1 = g.value(-1)
    assert v1.kind == "telescope_quotient"


def test_explicit_tower_without_stages_is_inconclusive(ZZ):
    M = zmod(ZZ, 5)
    t = Tower.explicit([M, M], [identity_map(M)])
    v = is_pro_trivial(t)
    assert v.status == "inconclusive"


def test_unit_torsion_interaction(ZZ):
    """Gamma at (p) ignores prime-to-p torsion entirely."""
    from lodua import local_cohomology
    d = IdealData(ZZ, [5])
    M = zmod(ZZ, 6)       # no 5-torsion
    assert local_cohomology(d, M, 0).is_zero()
    assert local_cohomology(d, M, 1).is_zero()
    M = zmod(ZZ, 10)      # Z/10 = Z/2 + Z/5
    v = local_cohomology(d, M, 0)
    assert v.kind == "module" and iso_check(v.payload, zmod(ZZ, 5))


def test_lambda_of_prime_to_p_torsion(ZZ, d5):
    from lodua import derived_completion
    lam = derived_completion(d5, zmod(ZZ, 6))
    assert lam.is_zero()   # completion of Z/6 at (5) vanishes


def test_precision_comparison_rules():
    from lodua.descriptors import LimitModule, values_agree, change_precision
    Z20 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}})
    Z8 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 8}})
    a = LimitModule.of_module(FPModule.free(Z20, 1))
    b = LimitModule.of_module(FPModule.free(Z8, 1))
    ok, why = values_agree(a, b)
    assert ok and "precision 8" in why
    M = FPModule.cyclic(Z20, [25])
    down = change_precision(M, 8)
    assert down.ring.precision == 8
    import pytest
    with pytest.raises(Exception):
        change_precision(down, 20)  # refinement is refused


def _values_agree_cases():
    from lodua import (CompletionCokernel, LimitModule, Rational, Telescope,
                       TelescopeQuotient)
    from lodua.descriptors import value_of
    Z = make_ring({"base": "Z"})
    Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"],
                                                "precision": 20}})
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})

    def Qhat(n):
        return make_ring({"base": "Q", "vars": ["x", "y"],
                          "completion": {"ideal": ["x", "y"], "precision": n}})

    def fp(ring, *ann):
        return LimitModule.of_module(FPModule.cyclic(ring, list(ann)))

    def free(ring):
        return FPModule.free(ring, 1)

    def tq(ring, u):
        return value_of(TelescopeQuotient(free(ring), u))

    def coker():
        return LimitModule("completion_cokernel",
                           CompletionCokernel(free(Z), [Z.el(5)], 1))

    return [
        (fp(Z, 5), value_of(Rational(Z, 1)),
         False, "kinds differ: module vs rational"),
        (fp(Qhat(4), "x"), fp(Qhat(3), "x"), True, "compared at precision 3"),
        (fp(Z, 5), fp(Q, "x"), False, "rings differ: ZZ vs QQ[x,y]"),
        (value_of(Rational(Z, 1)), value_of(Rational(Z, 2)),
         False, "rational dimension"),
        (value_of(Telescope(free(Z), 5)), value_of(Telescope(free(Z), 25)),
         False, "multipliers differ"),
        (value_of(Telescope(FPModule.cyclic(Q, ["x"]), "y")),
         value_of(Telescope(FPModule.cyclic(Q, ["x"]), "y")),
         True, "descriptor presentations"),
        (tq(Z, 5), tq(Z5, 25), False, "stages differ at k=1"),
        (tq(Q, "x"), tq(Qhat(4), "x*y"), False, "stages differ at k=1"),
        (tq(Q, "x"), tq(Qhat(4), "x"), True, "stage systems agree through k=3"),
        (value_of(Telescope(free(Z), 5)), value_of(Telescope(free(Q), "x")),
         False, "rings differ"),
        (coker(), coker(), True, "cokernel descriptor"),
        (LimitModule("ind", {"a": 1}), LimitModule("ind", {"a": 1}),
         True, "symbolic descriptor comparison"),
        (LimitModule.unrecognized("e"), LimitModule.unrecognized("e"),
         False, "unrecognized values never compare equal"),
        # the ideal (x, y) listed as (y, x) gives the same completion
        (fp(Qhat(3), "x"), fp(make_ring({"base": "Q", "vars": ["x", "y"],
                                         "completion": {"ideal": ["y", "x"],
                                                        "precision": 3}}),
                              "x"),
         True, "compared at precision 3"),
    ]


@pytest.mark.parametrize("a, b, same, detail", _values_agree_cases())
def test_values_agree_answer_and_detail(a, b, same, detail):
    """Report bodies print the detail, so each branch is pinned as is."""
    from lodua import values_agree
    assert values_agree(a, b) == (same, detail)


def test_sum_tower_limits(ZZ, d5):
    from lodua.towers import lim_lim1
    free = FPModule.free(ZZ, 1)
    S, _, _ = direct_sum(free, zmod(ZZ, 125))
    t = Tower.tor(FPObj(S), [ZZ.el(5)], 0)
    res = lim_lim1(t)
    assert res.lim.kind == "module"
    factors, rank = res.lim.payload.decomposition()
    assert rank == 1 and [str(f) for f in factors] == ["125"]
