import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lodua.hopf
from lodua import (Comodule, ComoduleTower, CompleteComodule, FPModule,
                   IdealData, InternalInconsistency, InvalidInput,
                   comodule_completion, comodule_limit,
                   extended_adjunction, extended_comodule, iota, iso_check,
                   make_group_like, make_ring, verify_theorems)
from lodua.modules import _same_presentation
from lodua.hopf import (_base_change_comodule, _completed_hopf,
                        extended_module, tor_stage_action, true_level_probe)
from lodua.linalg import mat_mul, mat_vec

from conftest import zmod

C2_TABLE = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}


@pytest.fixture(scope="module")
def swap(QQxy):
    return make_group_like(QQxy, ["e", "s"], C2_TABLE,
                           {"s": {"x": "y", "y": "x"}})


@pytest.fixture(scope="module")
def dI(QQxy):
    return IdealData(QQxy, ["x + y", "x*y"])


@pytest.fixture(scope="module")
def unit_comodule(QQxy, swap):
    return Comodule(swap, FPModule.free(QQxy, 1), {"s": [[QQxy.el(1)]]})


@pytest.fixture(scope="module")
def discrete(ZZ):
    return make_group_like(ZZ, ["e"], {("e", "e"): "e"}, {})


def test_trivial_group_is_discrete(ZZ, discrete):
    assert discrete.is_discrete()
    Comodule(discrete, zmod(ZZ, 5), {})


def test_swap_is_valid(swap):
    assert swap.order == 2
    assert swap.inverse["s"] == "s"


def test_non_automorphism_rejected(QQxy):
    # s^2 sends y to y + 1, so this "swap" is not an involution
    with pytest.raises(InvalidInput):
        make_group_like(QQxy, ["e", "s"], C2_TABLE,
                        {"s": {"x": "y", "y": "x + 1"}})


def test_non_associative_table_rejected(QQxy):
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "s"}
    with pytest.raises(InvalidInput):
        make_group_like(QQxy, ["e", "s"], table, {"s": {"x": "y", "y": "x"}})


def test_comodule_validation(QQxy, swap):
    # A/I for I = (x+y, xy): G-fixed generators, the action descends
    MI = FPModule.cyclic(QQxy, ["x + y", "x*y"])
    Comodule(swap, MI, {"s": [[QQxy.el(1)]]})
    # A/(x) is moved by the swap: rejected
    with pytest.raises(InvalidInput):
        Comodule(swap, FPModule.cyclic(QQxy, ["x"]), {"s": [[QQxy.el(1)]]})


def test_identity_action_must_be_semilinear(QQxy, swap):
    # phi_s = id on a rank-2 module with an x-relation in slot one only
    M = FPModule(QQxy, 2, [(QQxy.el("x"), QQxy.el(0))])
    ident = [[QQxy.el(1), QQxy.el(0)], [QQxy.el(0), QQxy.el(1)]]
    with pytest.raises(InvalidInput):
        Comodule(swap, M, {"s": ident})


def test_coaction_counital_coassociative(QQxy, swap, unit_comodule):
    co = unit_comodule.coaction()
    eps = unit_comodule.extended_counit()
    from lodua.modules import identity_map
    assert eps.compose(co).equals(identity_map(unit_comodule.module))
    # coassociativity is checked inside the constructor; reconstruct to assert
    Comodule(swap, unit_comodule.module, unit_comodule.maps)


def test_extended_comodule_rank(QQxy, swap):
    E = extended_comodule(swap, FPModule.free(QQxy, 1))
    assert E.module.ngens == 2
    Ez = extended_comodule(swap, FPModule.cyclic(QQxy, ["x + y"]))
    # the twisted block of A/(x+y) is again A/(x+y)
    assert Ez.module.ngens == 2 and len(Ez.module.relations) == 2


def test_extended_comodule_discrete_is_identity(ZZ, discrete):
    N = zmod(ZZ, 5)
    E = extended_comodule(discrete, N)
    assert _same_presentation(E.module, N)


def test_adjunction_bijection(QQxy, swap, unit_comodule):
    fwd, bwd, checks = extended_adjunction(swap, unit_comodule,
                                           FPModule.free(QQxy, 1))
    assert checks
    # Hom_Psi(A, Psi (x) A) = Hom_A(A, A) = A: transport the identity
    from lodua.modules import identity_map
    alpha = identity_map(FPModule.free(QQxy, 1))
    back = bwd(alpha)
    assert fwd(back).equals(alpha)


def test_comodule_limit_methods_agree(QQxy, swap, dI, unit_comodule):
    tower = ComoduleTower(swap, unit_comodule, dI.gens)
    limK, certK = comodule_limit(tower, method="kernel", precision=5)
    limP, certP = comodule_limit(tower, method="pullback", precision=5)
    assert _same_presentation(limK.module, limP.module)
    for g in swap.elements:
        assert len(limK.maps[g]) == len(limP.maps[g])
        for row_k, row_p in zip(limK.maps[g], limP.maps[g]):
            assert len(row_k) == len(row_p)
            assert all(a == b for a, b in zip(row_k, row_p))
    assert limK.module.ring.is_completed
    assert "stage_exactness" in certK and "monomorphisms" in certP


def test_limit_of_constant_tower_is_module(ZZ, discrete, d5):
    # an already complete torsion module is its own completion
    M = Comodule(discrete, zmod(ZZ, 25), {})
    lim, cert = comodule_completion(M, d5, precision=20)
    assert iso_check(lim.module, zmod(lim.module.ring, 25))


def test_extended_psilim_identity(QQxy, swap, dI, unit_comodule):
    """lim_Psi(Psi (x) N_k) = Psi (x) lim N_k on the adic tower."""
    from lodua.towers import completed_module
    E = extended_comodule(swap, unit_comodule.module)
    tower = ComoduleTower(swap, E, dI.gens)
    lim, _ = comodule_limit(tower, precision=5)
    rhs = completed_module(extended_module(swap, unit_comodule.module)[0],
                           dI.gens, 5)
    assert _same_presentation(lim.module, rhs)


def test_non_invariant_ideal_rejected(QQxy, swap, unit_comodule):
    with pytest.raises(InvalidInput):
        ComoduleTower(swap, unit_comodule, [QQxy.el("x")])


def test_iota_on_complete_comodule(QQxy, swap, dI, unit_comodule):
    h_hat = _completed_hopf(swap, dI.gens, 5)
    chat = _base_change_comodule(h_hat, unit_comodule)
    res, cert = iota(CompleteComodule(h_hat, chat, 5))
    assert _same_presentation(res.module, chat.module)
    assert "injective" in cert


def test_iota_discrete_is_identity(ZZ, discrete, d5):
    h_hat = _completed_hopf(discrete, d5.gens, 20)
    M = _base_change_comodule(h_hat, Comodule(discrete, zmod(ZZ, 25), {}))
    res, cert = iota(CompleteComodule(h_hat, M, 20))
    assert _same_presentation(res.module, M.module)


def test_true_level(QQxy, swap, dI):
    out = true_level_probe(swap, dI, precision=5)
    assert out["verdict"] == "true-level"


def test_completion_formula(QQxy, swap, dI, unit_comodule):
    out = verify_theorems(swap, dI, unit_comodule, "completion-formula",
                          precision=5)
    assert out["verdict"] == "pass"
    assert out["equivariance"]


def test_comodule_gm(QQxy, swap, dI, unit_comodule, ZZ, discrete, d5):
    out = verify_theorems(swap, dI, unit_comodule, "comodule-gm", precision=5,
                          stage_bound=5, lag=3)
    assert out["verdict"] == "pass"
    # discrete instance reduces to the module-level sequence
    M = Comodule(discrete, FPModule.free(ZZ, 1), {})
    out = verify_theorems(discrete, d5, M, "comodule-gm")
    assert out["verdict"] == "pass"


def test_fg_vanishing(QQxy, swap, dI, unit_comodule, ZZ, discrete, d5):
    out = verify_theorems(swap, dI, unit_comodule, "fg-vanishing", precision=5,
                          stage_bound=5, lag=3)
    assert out["verdict"] == "pass"
    M3 = Comodule(discrete, zmod(ZZ, 125), {})
    out = verify_theorems(discrete, d5, M3, "fg-vanishing")
    assert out["verdict"] == "pass"


def test_injective_vanishing(QQxy, swap, dI, ZZ, discrete, d5, unit_comodule):
    out = verify_theorems(swap, dI, unit_comodule, "injective-vanishing")
    assert out["verdict"] == "pass"
    M = Comodule(discrete, FPModule.free(ZZ, 1), {})
    out = verify_theorems(discrete, d5, M, "injective-vanishing")
    assert out["verdict"] == "pass"


def test_tor_stage_actions_are_comodules(QQxy, swap, dI, unit_comodule):
    for s in (0, 1):
        for k in (1, 2):
            H, mat = tor_stage_action(swap, "s", unit_comodule, dI, s, k)
            maps = {g: tor_stage_action(swap, g, unit_comodule, dI, s, k)[1]
                    for g in swap.elements}
            Comodule(swap, H, maps, check=True)


def test_forgetful_exactness_tau(QQxy, swap, dI, unit_comodule):
    """tau: the underlying module of the comodule limit is the module limit."""
    from lodua.towers import Tower, lim_lim1
    tower = ComoduleTower(swap, unit_comodule, dI.gens)
    lim, cert = comodule_limit(tower, precision=5)
    module_side = lim_lim1(Tower.adic(unit_comodule.module, dI.gens),
                           precision=5)
    assert _same_presentation(lim.module, module_side.lim.payload)
    assert "tau" in cert


def test_gm_transition_equivariance_on_nonzero_stages(QQxy, swap, dI):
    """Tor_1 stages of A/I are nonzero, so the transition-commutes-with-
    the-action check genuinely fires."""
    MI = Comodule(swap, FPModule.cyclic(QQxy, ["x + y", "x*y"]),
                  {"s": [[QQxy.el(1)]]})
    out = verify_theorems(swap, dI, MI, "comodule-gm", precision=5,
                          stage_bound=5, lag=3, stage_checks=2, s_range=(1,))
    assert out["verdict"] == "pass"
    lines = out["1"]["equivariance"]
    assert any("commutes with every phi_g" in line for line in lines)


def _gm_report(case):
    """The comodule-gm report, as JSON, of one of two comodules over Q[x,y]
    with the swap: A/(x + y) with the trivial action, or A^2/(x, y) with
    the action exchanging the generators."""
    import json
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    h = make_group_like(Q, ["e", "s"], C2_TABLE, {"s": {"x": "y", "y": "x"}})
    if case == 0:
        M = FPModule(Q, 1, [(Q.el("x + y"),)])
        action = [[Q.el(1)]]
    else:
        M = FPModule(Q, 2, [(Q.el("x"), Q.el("y"))])
        action = [[Q.el(0), Q.el(1)], [Q.el(1), Q.el(0)]]
    out = verify_theorems(h, IdealData(Q, ["x + y", "x*y"]),
                          Comodule(h, M, {"s": action}), "comodule-gm",
                          precision=4, stage_bound=4, lag=2)
    return json.dumps(out, sort_keys=True)


def test_comodule_gm_runs_share_no_state():
    import os
    import subprocess
    import sys
    from lodua import hopf
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(here), "src"), here]))
    fresh = [subprocess.run(
        [sys.executable, "-c",
         f"from test_hopf import _gm_report; print(_gm_report({case}))"],
        capture_output=True, text=True, env=env, check=True,
        timeout=300).stdout.strip() for case in (0, 1)]
    assert fresh[0] != fresh[1]
    assert [_gm_report(0), _gm_report(1)] == fresh
    assert [_gm_report(1), _gm_report(0)] == fresh[::-1]
    # the resolutions lived in each call's own dict, not on the function
    assert hopf.tor_stage_action.__defaults__ == (None,)
    assert not vars(hopf.tor_stage_action)


def test_true_level_probe_compares_both_sides(QQxy, swap, dI, monkeypatch):
    # completing Psi (x) N over A gives one relation too many: the probe
    # must see that Psi^ (x)^ N over the completed ring differs
    complete = lodua.hopf.completed_module

    def skewed(M, gens, precision=None):
        C = complete(M, gens, precision)
        extra = (C.ring.el("x"),) + (C.ring.zero(),) * (C.ngens - 1)
        return FPModule(C.ring, C.ngens, C.relations + [extra])

    monkeypatch.setattr(lodua.hopf, "completed_module", skewed)
    with pytest.raises(InternalInconsistency):
        true_level_probe(swap, dI, precision=5)



def test_completion_formula_compares_two_constructions(QQxy, swap, dI,
                                                       monkeypatch):
    # P_s = [[1, x - y], [0, 1]] is a valid action on the free module of
    # rank 2, and so is the identity: a comodule limit that trades one for
    # the other must disagree with iota of the coaction built over A
    one, zero = QQxy.one(), QQxy.zero()
    M = Comodule(swap, FPModule.free(QQxy, 2),
                 {"s": [[one, QQxy.el("x - y")], [zero, one]]})
    out = verify_theorems(swap, dI, M, "completion-formula", precision=4)
    assert out["verdict"] == "pass"
    base_change = lodua.hopf._base_change_comodule

    def trivialized(h_hat, comod):
        ident = [[one if i == j else zero for j in range(2)] for i in range(2)]
        return base_change(h_hat, Comodule(comod.hopf, comod.module,
                                           {"s": ident}))

    monkeypatch.setattr(lodua.hopf, "_base_change_comodule", trivialized)
    with pytest.raises(InternalInconsistency, match="not equivariant"):
        verify_theorems(swap, dI, M, "completion-formula", precision=4)


def test_true_level_probe_compares_relations(QQxy, swap, dI, monkeypatch):
    # completing Psi (x) N over A loses one relation, generator counts kept:
    # only the probe on A/I, whose relations are not empty, can see that
    complete = lodua.hopf.completed_module

    def dropped(M, gens, precision=None):
        C = complete(M, gens, precision)
        return FPModule(C.ring, C.ngens, C.relations[:-1])

    monkeypatch.setattr(lodua.hopf, "completed_module", dropped)
    with pytest.raises(InternalInconsistency):
        true_level_probe(swap, dI, precision=5)


# -- the coaction check against the group-element conditions ------------------

_Q = make_ring({"base": "Q", "vars": ["x", "y"]})
_F3 = make_ring({"base": "Fp", "p": 3, "vars": ["x", "y", "z"]})
_GROUPS = {
    "c2": make_group_like(_Q, ["e", "s"], C2_TABLE,
                          {"s": {"x": "y", "y": "x"}}),
    "c3": make_group_like(
        _F3, ["e", "r", "rr"],
        {("e", "e"): "e", ("e", "r"): "r", ("e", "rr"): "rr",
         ("r", "e"): "r", ("r", "r"): "rr", ("r", "rr"): "e",
         ("rr", "e"): "rr", ("rr", "r"): "e", ("rr", "rr"): "r"},
        {"r": {"x": "y", "y": "z", "z": "x"},
         "rr": {"x": "z", "y": "x", "z": "y"}}),
}
_RELATIONS = {"c2": ["0", "x + y", "x*y", "x", "x - y"],
              "c3": ["0", "x + y + z", "x*y*z", "x", "x - y"]}
_ENTRIES = ["0", "1", "-1", "x"]
# matrices of order 1, 2 or 3, so that valid actions are drawn often
_ORDERED = {1: [[["1"]], [["-1"]]],
            2: [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]],
                [["0", "-1"], ["1", "-1"]]]}


@st.composite
def _modules(draw):
    """(group, module): a rank <= 2 module with <= 2 relations."""
    name = draw(st.sampled_from(sorted(_GROUPS)))
    h = _GROUPS[name]
    n = draw(st.integers(1, 2))
    rels = draw(st.lists(st.tuples(*[st.sampled_from(_RELATIONS[name])] * n),
                         max_size=2))
    return h, FPModule(h.ring, n, [tuple(h.ring.el(e) for e in col)
                                   for col in rels])


@st.composite
def _candidates(draw):
    """(group, module, action): a module from `_modules` and matrices P_g
    of small order or with small entries; P_e is often left out (the
    identity), and P_rr is often derived from P_r by the group law."""
    h, M = draw(_modules())
    ring, n = h.ring, M.ngens
    entries = st.lists(st.lists(st.sampled_from(_ENTRIES), min_size=n,
                                max_size=n), min_size=n, max_size=n)
    matrix = st.one_of(st.sampled_from(_ORDERED[n]), entries).map(
        lambda rows: [[ring.el(e) for e in row] for row in rows])
    action = {}
    for g in h.elements:
        if g == h.identity:
            if draw(st.booleans()):
                continue
            action[g] = draw(matrix)
        elif g == "rr" and draw(st.booleans()):
            P = action["r"]
            action[g] = mat_mul(ring, P, h.apply_matrix("r", P))
        else:
            action[g] = draw(matrix)
    return h, M, action


def _group_element_conditions(h, M, action):
    """phi_e = id, each phi_g semilinear on the relations, and the group law
    P_g g(P_k) = P_gk, all modulo the relations of M."""
    ring = M.ring
    ident = [[ring.one() if i == j else ring.zero() for j in range(M.ngens)]
             for i in range(M.ngens)]
    P = {g: action.get(g, ident) for g in h.elements}

    def same(A, B):
        return all(M.contains_in_relations(
            tuple(A[i][j] - B[i][j] for i in range(M.ngens)))
            for j in range(M.ngens))

    return (same(P[h.identity], ident)
            and all(M.contains_in_relations(mat_vec(ring, P[g],
                                                    h.apply_vec(g, col)))
                    for g in h.elements for col in M.relations)
            and all(same(mat_mul(ring, P[g], h.apply_matrix(g, P[k])),
                         P[h.mul(g, k)])
                    for g in h.elements for k in h.elements))


def test_coaction_check_is_the_group_element_conditions():
    seen = set()

    @settings(max_examples=120)
    @given(_candidates())
    def check(candidate):
        h, M, action = candidate
        try:
            Comodule(h, M, action, check=True)
            accepted = True
        except InvalidInput:
            accepted = False
        assert accepted == _group_element_conditions(h, M, action)
        seen.add((h.order, accepted))

    check()
    assert seen == {(2, True), (2, False), (3, True), (3, False)}


def test_base_change_of_a_comodule_is_a_comodule():
    # _base_change_comodule builds its result unchecked; every axiom must
    # hold over the completion at the ideal of all variables
    hats = {h.order: _completed_hopf(h, h.ring.names, 3)
            for h in _GROUPS.values()}
    seen = set()

    @settings(max_examples=60)
    @given(_candidates())
    def check(candidate):
        h, M, action = candidate
        try:
            comod = Comodule(h, M, action, check=True)
        except InvalidInput:
            return
        chat = _base_change_comodule(hats[h.order], comod)
        Comodule(chat.hopf, chat.module, chat.maps, check=True)
        seen.add(h.order)

    check()
    assert seen == {2, 3}


@settings(max_examples=30)
@given(_modules())
def test_extended_comodule_is_a_comodule(candidate):
    # extended_comodule builds Psi (x) N unchecked; every axiom must hold
    h, N = candidate
    E = extended_comodule(h, N)
    Comodule(h, E.module, E.maps, check=True)
