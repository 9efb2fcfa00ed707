import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lodua
import lodua.hopf
from lodua import (Comodule, FPModule, GroupLikeHopfAlgebroid, IdealData,
                   InternalInconsistency, InvalidInput, comodule_completion,
                   extended_adjunction, extended_comodule, iota, iso_check,
                   make_ring, verify_theorems)
from lodua.modules import _same_presentation
from lodua.hopf import (TorStageComodules, _base_change_comodule,
                        extended_module, true_level_probe)
from lodua.linalg import mat_mul, mat_vec
from lodua.poly import Poly
from lodua.towers import completed_ring

from conftest import zmod

C2_TABLE = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}


@pytest.fixture(scope="module")
def swap(QQxy):
    return GroupLikeHopfAlgebroid(QQxy, ["e", "s"], C2_TABLE,
                                  {"s": {"x": "y", "y": "x"}})


@pytest.fixture(scope="module")
def dI(QQxy):
    return IdealData(QQxy, ["x + y", "x*y"])


@pytest.fixture(scope="module")
def unit_comodule(QQxy, swap):
    return Comodule(swap, FPModule.free(QQxy, 1), {"s": [[QQxy.el(1)]]})


@pytest.fixture(scope="module")
def discrete(ZZ):
    return GroupLikeHopfAlgebroid(ZZ, ["e"], {("e", "e"): "e"}, {})


def test_trivial_group_is_discrete(ZZ, discrete):
    assert discrete.is_discrete()
    Comodule(discrete, zmod(ZZ, 5), {})


def test_swap_is_valid(swap):
    assert swap.order == 2
    assert swap.inverse["s"] == "s"


def test_non_automorphism_rejected(QQxy):
    # s^2 sends y to y + 1, so this "swap" is not an involution
    with pytest.raises(InvalidInput):
        GroupLikeHopfAlgebroid(QQxy, ["e", "s"], C2_TABLE,
                               {"s": {"x": "y", "y": "x + 1"}})


def test_non_associative_table_rejected(QQxy):
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "s"}
    with pytest.raises(InvalidInput):
        GroupLikeHopfAlgebroid(QQxy, ["e", "s"], table,
                               {"s": {"x": "y", "y": "x"}})


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
    from lodua.hopf import _extended_counit
    from lodua.modules import identity_map
    eps = _extended_counit(swap, unit_comodule.module)
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
    with lodua.settings(precision=5):
        limK, certK = comodule_completion(unit_comodule, dI, method="kernel")
        limP, certP = comodule_completion(unit_comodule, dI,
                                          method="pullback")
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
    lim, cert = comodule_completion(M, d5)
    assert iso_check(lim.module, zmod(lim.module.ring, 25))
    assert cert["precision"] == lim.module.ring.precision == 20


def test_extended_psilim_identity(QQxy, swap, dI, unit_comodule):
    """lim_Psi(Psi (x) N_k) = Psi (x) lim N_k on the adic tower."""
    from lodua.towers import completed_module
    E = extended_comodule(swap, unit_comodule.module)
    with lodua.settings(precision=5):
        lim, _ = comodule_completion(E, dI)
        rhs = completed_module(extended_module(swap, unit_comodule.module),
                               dI.gens)
    assert _same_presentation(lim.module, rhs)


def test_non_invariant_ideal_rejected(QQxy, swap, unit_comodule):
    with pytest.raises(InvalidInput, match="moved by s"):
        comodule_completion(unit_comodule, IdealData(QQxy, ["x"]))


def test_iota_on_complete_comodule(QQxy, swap, dI, unit_comodule):
    with lodua.settings(precision=5):
        ring = swap.completed_ring(dI.gens)
    assert ring.precision == 5
    chat = _base_change_comodule(unit_comodule, ring)
    assert chat.hopf is swap
    res, cert = iota(chat)
    assert _same_presentation(res.module, chat.module)
    assert "injective" in cert


def test_iota_discrete_is_identity(ZZ, discrete, d5):
    M = _base_change_comodule(Comodule(discrete, zmod(ZZ, 25), {}),
                              discrete.completed_ring(d5.gens))
    res, cert = iota(M)
    assert _same_presentation(res.module, M.module)


def test_true_level(QQxy, swap, dI):
    with lodua.settings(precision=5):
        out = true_level_probe(swap, dI)
    assert out["verdict"] == "true-level"


def test_completion_formula(QQxy, swap, dI, unit_comodule):
    with lodua.settings(precision=5):
        out = verify_theorems(swap, dI, unit_comodule, "completion-formula")
    assert out["verdict"] == "pass" and out["precision"] == 5
    assert out["equivariance"]


@pytest.mark.parametrize("verb, args", [
    ("verify", {"which": "completion-formula", "comodule": "CA"}),
    ("comodule-complete", {"comodule": "CA"}),
    ("iota", {"comodule": "CA"}),
    ("verify", {"which": "true-level"}),
])
def test_a_completing_verb_builds_no_algebroid_but_the_documents(
        verb, args, monkeypatch):
    # the document's algebroid acts over A^ too: no second one is built
    from lodua import cli
    built = []
    init = GroupLikeHopfAlgebroid.__init__

    def counted(self, *a):
        built.append(self)
        init(self, *a)

    monkeypatch.setattr(GroupLikeHopfAlgebroid, "__init__", counted)
    cli._parsed.cache_clear()
    code, _ = cli.run(_c2_swap_doc(), verb, args)
    assert code == 0 and len(built) == 1


def test_comodule_gm(QQxy, swap, dI, unit_comodule, ZZ, discrete, d5):
    with lodua.settings(precision=5, K=5, lag=3):
        out = verify_theorems(swap, dI, unit_comodule, "comodule-gm")
    assert out["verdict"] == "pass"
    # discrete instance reduces to the module-level sequence
    M = Comodule(discrete, FPModule.free(ZZ, 1), {})
    out = verify_theorems(discrete, d5, M, "comodule-gm")
    assert out["verdict"] == "pass"


def test_fg_vanishing(QQxy, swap, dI, unit_comodule, ZZ, discrete, d5):
    with lodua.settings(precision=5, K=5, lag=3):
        out = verify_theorems(swap, dI, unit_comodule, "fg-vanishing")
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
        tor = TorStageComodules(unit_comodule, dI.gens, s)
        for k in (1, 2):
            C = tor.comodule(k)
            assert C is tor.comodule(k)
            Comodule(swap, C.module, C.maps, check=True)


def test_forgetful_exactness_tau(QQxy, swap, dI, unit_comodule):
    """tau: the underlying module of the comodule limit is the module limit."""
    from lodua.towers import Tower, lim_lim1
    with lodua.settings(precision=5):
        lim, cert = comodule_completion(unit_comodule, dI)
        module_side = lim_lim1(Tower.adic(unit_comodule.module, dI.gens))
    assert _same_presentation(lim.module, module_side.lim.payload)
    assert "tau" in cert


def test_gm_transition_equivariance_on_nonzero_stages(QQxy, swap, dI):
    """Tor_1 stages of A/I are nonzero, so the transition-commutes-with-
    the-action check genuinely fires."""
    MI = Comodule(swap, FPModule.cyclic(QQxy, ["x + y", "x*y"]),
                  {"s": [[QQxy.el(1)]]})
    with lodua.settings(precision=5, K=5, lag=3):
        out = lodua.hopf.comodule_gm_check(swap, dI, MI)
    assert out["verdict"] == "pass"
    lines = out["1"]["equivariance"]
    assert any("commutes with every phi_g" in line for line in lines)


def _gm_report(case):
    """The comodule-gm report, as JSON, of one of two comodules over Q[x,y]
    with the swap: A/(x + y) with the trivial action, or A^2/(x, y) with
    the action exchanging the generators."""
    import json
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    h = GroupLikeHopfAlgebroid(Q, ["e", "s"], C2_TABLE,
                               {"s": {"x": "y", "y": "x"}})
    if case == 0:
        M = FPModule(Q, 1, [(Q.el("x + y"),)])
        action = [[Q.el(1)]]
    else:
        M = FPModule(Q, 2, [(Q.el("x"), Q.el("y"))])
        action = [[Q.el(0), Q.el(1)], [Q.el(1), Q.el(0)]]
    with lodua.settings(precision=4, K=4, lag=2):
        out = verify_theorems(h, IdealData(Q, ["x + y", "x*y"]),
                              Comodule(h, M, {"s": action}), "comodule-gm")
    return json.dumps(out, sort_keys=True)


def test_comodule_gm_runs_share_no_state():
    import os
    import subprocess
    import sys
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


def test_true_level_probe_compares_both_sides(QQxy, swap, dI, monkeypatch):
    # completing Psi (x) N over A gives one relation too many: the probe
    # must see that Psi^ (x)^ N over the completed ring differs
    complete = lodua.hopf.completed_module

    def skewed(M, gens):
        C = complete(M, gens)
        extra = (C.ring.el("x"),) + (C.ring.zero(),) * (C.ngens - 1)
        return FPModule(C.ring, C.ngens, C.relations + [extra])

    monkeypatch.setattr(lodua.hopf, "completed_module", skewed)
    with pytest.raises(InternalInconsistency), lodua.settings(precision=5):
        true_level_probe(swap, dI)



def test_completion_formula_compares_two_constructions(QQxy, swap, dI,
                                                       monkeypatch):
    # P_s = [[1, x - y], [0, 1]] is a valid action on the free module of
    # rank 2, and so is the identity: a comodule limit that trades one for
    # the other must disagree with iota of the coaction built over A
    one, zero = QQxy.one(), QQxy.zero()
    M = Comodule(swap, FPModule.free(QQxy, 2),
                 {"s": [[one, QQxy.el("x - y")], [zero, one]]})
    with lodua.settings(precision=4):
        out = verify_theorems(swap, dI, M, "completion-formula")
    assert out["verdict"] == "pass"
    base_change = lodua.hopf._base_change_comodule

    def trivialized(comod, ring):
        ident = [[one if i == j else zero for j in range(2)] for i in range(2)]
        return base_change(Comodule(comod.hopf, comod.module, {"s": ident}),
                           ring)

    monkeypatch.setattr(lodua.hopf, "_base_change_comodule", trivialized)
    with pytest.raises(InternalInconsistency, match="not equivariant"), \
            lodua.settings(precision=4):
        verify_theorems(swap, dI, M, "completion-formula")


def test_true_level_probe_compares_relations(QQxy, swap, dI, monkeypatch):
    # completing Psi (x) N over A loses one relation, generator counts kept:
    # only the probe on A/I, whose relations are not empty, can see that
    complete = lodua.hopf.completed_module

    def dropped(M, gens):
        C = complete(M, gens)
        return FPModule(C.ring, C.ngens, C.relations[:-1])

    monkeypatch.setattr(lodua.hopf, "completed_module", dropped)
    with pytest.raises(InternalInconsistency), lodua.settings(precision=5):
        true_level_probe(swap, dI)


# -- the coaction check against the group-element conditions ------------------

_Q = make_ring({"base": "Q", "vars": ["x", "y"]})
_F3 = make_ring({"base": "Fp", "p": 3, "vars": ["x", "y", "z"]})
_GROUPS = {
    "c2": GroupLikeHopfAlgebroid(_Q, ["e", "s"], C2_TABLE,
                                 {"s": {"x": "y", "y": "x"}}),
    "c3": GroupLikeHopfAlgebroid(
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
    with lodua.settings(precision=3):
        rings = {h.order: h.completed_ring(h.ring.names)
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
        chat = _base_change_comodule(comod, rings[h.order])
        assert chat.hopf is h and chat.ring is rings[h.order]
        Comodule(h, chat.module, chat.maps, check=True)
        seen.add(h.order)

    check()
    assert seen == {2, 3}


def _completed_copy(h, ideal_gens):
    """A second algebroid over the completed ring, built from h's variable
    images and validated there afresh: the construction that reading h over
    the completion replaces, kept as the reference."""
    ring = h.ring
    action = {g: dict(zip(ring.names, h.action[g]))
              for g in h.elements if g != h.identity}
    return GroupLikeHopfAlgebroid(completed_ring(ring, ideal_gens),
                                  h.elements, h.table, action)


_C3_TABLE = _GROUPS["c3"].table
# the swap, and the rotation of _GROUPS["c3"] on the plane x + y + z = 0
_ORACLE_ACTIONS = {
    "c2": (["e", "s"], C2_TABLE, {"s": {"x": "y", "y": "x"}}),
    "c3": (["e", "r", "rr"], _C3_TABLE, {"r": {"x": "y", "y": "-x - y"},
                                         "rr": {"x": "-x - y", "y": "x"}}),
}
_ORACLE_BASES = {"Q": {"base": "Q"}, "F_7": {"base": "Fp", "p": 7}}
_ORACLE_IDEALS = (("x + y", "x*y"), ("x", "y"))
_ORACLE = {}


def _oracle_pair(base, group, ideal, precision):
    """(the algebroid over A, A^, the reference copy over A^), each None
    where it is refused, kept across examples."""
    key = (base, group, ideal, precision)
    if key not in _ORACLE:
        A = make_ring({**_ORACLE_BASES[base], "vars": ["x", "y"]})
        h = GroupLikeHopfAlgebroid(A, *_ORACLE_ACTIONS[group])
        with lodua.settings(precision=precision):
            try:
                ring = h.completed_ring(ideal)
            except InvalidInput:
                ring = None
            try:
                copy = _completed_copy(h, ideal)
            except InvalidInput:
                copy = None
        _ORACLE[key] = (h, ring, copy)
    return _ORACLE[key]


def test_the_action_over_a_completion_is_the_completed_copys():
    seen = set()

    @settings(max_examples=150)
    @given(st.sampled_from(sorted(_ORACLE_BASES)),
           st.sampled_from(sorted(_ORACLE_ACTIONS)),
           st.sampled_from(_ORACLE_IDEALS), st.integers(1, 5), st.data())
    def check(base, group, ideal, precision, data):
        h, ring, copy = _oracle_pair(base, group, ideal, precision)
        # every condition but the completion ideal holds by base change, so
        # the copy is refused exactly where A^ is
        assert (ring is None) == (copy is None)
        seen.add((group, ring is not None))
        if ring is None:
            return
        terms = data.draw(st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.integers(-3, 3), max_size=5))
        e = ring.el(Poly(ring.dom, 2, terms))
        g = data.draw(st.sampled_from(h.elements))
        want = copy.apply(g, e)
        assert h.apply(g, e) == want
        assert h.apply(g, e) == want   # kept now
        assert h.apply(g, e).ring is ring

    check()
    assert seen == {("c2", True), ("c3", True), ("c3", False)}


def test_a_completed_ring_completed_again_is_checked_there():
    # x -> -x + xy, y -> -y is an involution modulo (x, y)^3 only: s^2
    # sends x to x - xy^2, so completing again at precision 5 is refused
    A = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x", "y"], "precision": 3}})
    h = GroupLikeHopfAlgebroid(A, ["e", "s"], C2_TABLE,
                               {"s": {"x": "-x + x*y", "y": "-y"}})
    with lodua.settings(precision=3):
        assert h.completed_ring(["x", "y"]).precision == 3
    with pytest.raises(InvalidInput, match="not a homomorphism"), \
            lodua.settings(precision=5):
        h.completed_ring(["x", "y"])


@settings(max_examples=30)
@given(_modules())
def test_extended_comodule_is_a_comodule(candidate):
    # extended_comodule builds Psi (x) N unchecked; every axiom must hold
    h, N = candidate
    E = extended_comodule(h, N)
    Comodule(h, E.module, E.maps, check=True)


def test_group_like_refuses_malformed_input(QQxy):
    swap = {"s": {"x": "y", "y": "x"}}
    Z3ish = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a",
             ("e", "b"): "b", ("b", "e"): "b", ("a", "a"): "a",
             ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "e"}
    refusals = [
        (QQxy, ["e", "e"], C2_TABLE, swap, "duplicate group element labels"),
        (QQxy, ["e", "s"], {("e", "e"): "e"}, swap,
         "multiplication table misses \\(e,s\\)"),
        (QQxy, ["e", "s"], {k: "e" for k in C2_TABLE}, swap,
         "the table has no unique identity"),
        (QQxy, ["e", "a", "b"], Z3ish, {}, "non-associative table"),
        (QQxy, ["e", "s"], C2_TABLE, {}, "no action supplied for s"),
        (QQxy, ["e", "s"], C2_TABLE, {"s": {"x": "y"}}, "action of s misses y"),
        (make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2"]}),
         ["e", "s"], C2_TABLE, swap, "does not preserve the quotient ideal"),
        (make_ring({"base": "Q", "vars": ["x", "y"],
                    "completion": {"ideal": ["x"], "precision": 3}}),
         ["e", "s"], C2_TABLE, swap, "does not preserve the completion ideal"),
        (make_ring({"base": "Q", "vars": ["x", "y"], "invert": "x"}),
         ["e", "s"], C2_TABLE, swap, "s does not fix the inverted element x"),
        # phi_e = phi_s = 0 passes the homomorphism check
        (QQxy, ["e", "s"], C2_TABLE, {g: {"x": "0", "y": "0"} for g in "es"},
         "the identity e does not fix x"),
    ]
    for ring, elements, table, action, message in refusals:
        with pytest.raises(InvalidInput, match=message):
            GroupLikeHopfAlgebroid(ring, elements, table, action)


def test_an_identity_entry_is_compared_in_the_ring():
    # x = y in Q[x,y]/(x - y), so x -> y, y -> x is the identity there
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x - y"]})
    h = GroupLikeHopfAlgebroid(R, ["e", "s"], C2_TABLE,
                               {g: {"x": "y", "y": "x"} for g in "es"})
    assert h.apply("e", R.el("x + 1")) == R.el("x + 1")


def test_adjunction_skips_samples_that_are_not_maps(ZZ, discrete):
    M = Comodule(discrete, zmod(ZZ, 5), {})
    # Z/5 -> Z and Z/5 -> 0 have no elementary sample to transport
    for N in (FPModule.free(ZZ, 1), FPModule.zero(ZZ)):
        assert extended_adjunction(discrete, M, N)[2] == []


def test_unknown_method_and_theorem_tag_are_refused(QQxy, swap, dI,
                                                    unit_comodule):
    with pytest.raises(InvalidInput, match="unknown method 'sum'"):
        comodule_completion(unit_comodule, dI, "sum")
    with pytest.raises(InvalidInput, match="unknown theorem tag 'sum'"):
        verify_theorems(swap, dI, unit_comodule, "sum")


# -- the memo of action images ------------------------------------------------

_MEMO_RINGS = {
    "Q[x,y]": {"base": "Q", "vars": ["x", "y"]},
    "F_7[x,y]": {"base": "Fp", "p": 7, "vars": ["x", "y"]},
    "Q[x,y]/(xy)": {"base": "Q", "vars": ["x", "y"], "quotient": ["x*y"]},
    "Q[x,y][1/(xy)]": {"base": "Q", "vars": ["x", "y"], "invert": "x*y"},
    "Q[x,y] completed at (x + y, xy)": {
        "base": "Q", "vars": ["x", "y"],
        "completion": {"ideal": ["x + y", "x*y"], "precision": 3}},
}
# two actions of C2 that preserve every ring above, its quotient ideal,
# its completion ideal and its inverted element
_MEMO_ACTIONS = {"swap": {"s": {"x": "y", "y": "x"}},
                 "negation": {"s": {"x": "-x", "y": "-y"}}}
_WARM = {}


def _warm_algebroid(ring_name, action_name):
    """One algebroid per (ring, action), kept across examples so that its
    images are warm."""
    key = (ring_name, action_name)
    if key not in _WARM:
        _WARM[key] = GroupLikeHopfAlgebroid(
            make_ring(_MEMO_RINGS[ring_name]), ["e", "s"], C2_TABLE,
            _MEMO_ACTIONS[action_name])
    return _WARM[key]


@st.composite
def _memo_cases(draw):
    """(ring name, action name, g, element): a numerator of up to four
    terms of degree at most 3, with a denominator over the localization."""
    ring_name = draw(st.sampled_from(sorted(_MEMO_RINGS)))
    ring = make_ring(_MEMO_RINGS[ring_name])
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-3, 3), max_size=4))
    dexp = draw(st.integers(0, 2)) if ring.inverted is not None else 0
    e = ring.el(Poly(ring.dom, 2, terms), dexp)
    return (ring_name, draw(st.sampled_from(sorted(_MEMO_ACTIONS))),
            draw(st.sampled_from(["e", "s"])), e)


def test_a_kept_image_is_the_definition():
    seen = set()

    @settings(max_examples=80)
    @given(_memo_cases())
    def check(case):
        # the definition is computed on a fresh algebroid, whose memo is empty
        ring_name, action_name, g, e = case
        warm = _warm_algebroid(ring_name, action_name)
        ring = warm.ring
        fresh = GroupLikeHopfAlgebroid(ring, ["e", "s"], C2_TABLE,
                                       _MEMO_ACTIONS[action_name])
        want = ring._normal(e.num.substitute(fresh.action[g]), e.dexp)
        assert warm.apply(g, e) == want
        assert warm.apply(g, e) == want  # warm now, whatever it was before
        assert fresh.apply(g, e) == want
        seen.add((ring_name, e.dexp > 0))

    check()
    assert {name for name, _ in seen} == set(_MEMO_RINGS)
    assert ("Q[x,y][1/(xy)]", True) in seen


def test_algebroids_with_different_actions_share_no_image(QQxy):
    swap, neg = (GroupLikeHopfAlgebroid(QQxy, ["e", "s"], C2_TABLE, action)
                 for action in (_MEMO_ACTIONS["swap"],
                                _MEMO_ACTIONS["negation"]))
    x = QQxy.el("x")
    for _ in range(2):
        assert swap.apply("s", x) == QQxy.el("y")
        assert neg.apply("s", x) == QQxy.el("-x")
    assert swap._images is not neg._images


def test_answers_are_unchanged_after_the_memo_is_cleared(QQxy, monkeypatch):
    elements = [QQxy.el(f"x^{a}*y^{b} + {a}*x - y") for a in range(4)
                for b in range(3)]
    want = [GroupLikeHopfAlgebroid(
        QQxy, ["e", "s"], C2_TABLE, _MEMO_ACTIONS["swap"]).apply("s", e)
        for e in elements]
    monkeypatch.setattr(lodua.hopf, "_IMAGE_LIMIT", 5)
    h = GroupLikeHopfAlgebroid(QQxy, ["e", "s"], C2_TABLE,
                               _MEMO_ACTIONS["swap"])
    sizes = []
    for _ in range(2):
        for e, img in zip(elements, want):
            assert h.apply("s", e) == img
            sizes.append(len(h._images))
    assert max(sizes) == 5 and 1 in sizes   # filled to the limit, cleared


def _c2_swap_doc():
    import json
    import os
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "c2-swap.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("verb, args, most", [
    ("verify", {"which": "completion-formula", "comodule": "CA"}, 30),
    ("comodule-complete", {"comodule": "CA"}, 26),
])
def test_a_hopf_verb_substitutes_into_each_image_once(verb, args, most,
                                                      monkeypatch):
    # the verb, on a freshly read document, applies 16 distinct (g, element)
    # pairs with the document's algebroid, over A and A^; it substituted 300
    # and 290 times when every application was computed afresh
    from lodua import cli
    doc = _c2_swap_doc()
    given, cmd = cli._settings(doc, args)
    calls = []
    substitute = Poly.substitute

    def counted(p, images):
        calls.append(p)
        return substitute(p, images)

    with lodua.settings(**given):
        problem = cli.Problem(doc)
        monkeypatch.setattr(Poly, "substitute", counted)
        code, _ = cli._run(problem, verb, cmd)
    assert code == 0 and 0 < len(calls) <= most


def test_concurrent_hopf_verbs_get_identical_answers(monkeypatch):
    # four threads run poly-sweep's three Hopf verbs on one document, so
    # they share its algebroid; with a limit of 8 images the memo is cleared
    # while other threads read and fill it
    import json

    from lodua import cli
    from test_linalg import _assert_threads_agree
    monkeypatch.setattr(lodua.hopf, "_IMAGE_LIMIT", 8)
    doc = _c2_swap_doc()
    doc["options"]["precision"] = 3
    ops = [("verify", {"which": "completion-formula", "comodule": "CA"}),
           ("comodule-complete", {"comodule": "CA"}),
           ("iota", {"comodule": "CA"})]

    def bodies():
        return [json.dumps(cli.run(doc, verb, args), sort_keys=True)
                for verb, args in ops]

    _assert_threads_agree(bodies)
