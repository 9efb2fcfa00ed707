"""The complexes behind the Tor and Koszul-stage towers, and the Koszul
homology towers H_s(Kos(x^k)), the Koszul-stage towers of A^1.

The pins hold the rendered stage presentations (stages 1-3) and transition
matrices (transitions 1-2) of each tower family, so no change to how the
towers materialize can move a stage or a transition unnoticed.
"""

import pytest

import lodua.local
from lodua import (Comodule, FPModule, FPObj, GroupLikeHopfAlgebroid,
                   IdealData, Tower, make_ring, verify_theorems)
from lodua.complexes import ChainComplex, ChainMap
from lodua.towers import KoszulTensorStages, TorStages, lim_lim1

from conftest import koszul_homology_tower

ZERO = ([(0, [])] * 3, [[], []])

PINNED = {
    "tor_1": (
        [(1, [["1/3*x^2"], ["-x - y"], ["-1/3*x^2 - 1/3*x*y"]]),
         (2, [["1/3*x^2", "0"], ["-y^3", "1/3*y^2"], ["-x - y", "0"],
              ["-1/3*x^2 - 1/3*x*y", "0"],
              ["-x^2 + 3*x*y + 3*y^2", "-x - y"],
              ["-1/3*x^3 - x*y^2 - y^3", "1/3*x*y + 1/3*y^2"]]),
         (3, [["1/3*x^2", "0", "0"], ["-y^3", "1/3*y^2", "0"],
              ["1/3*x^2*y^2 + 2/3*x*y^3", "-y^3", "1/3*y^2"],
              ["-x - y", "0", "0"], ["-1/3*x^2 - 1/3*x*y", "0", "0"],
              ["-x^2 + 3*x*y + 3*y^2", "-x - y", "0"],
              ["-1/3*x^3 - x*y^2 - y^3", "1/3*x*y + 1/3*y^2", "0"],
              ["x^3 + x^2*y + 11*x*y^2 + 6*y^3", "-6*x*y - 5*y^2",
               "x + y"],
              ["-x^3*y - x^2*y^2 - 11/3*x*y^3 - 2*y^4",
               "2*x*y^2 + 5/3*y^3", "-1/3*x*y - 1/3*y^2"]])],
        [[["x + y", "-x^2 + 3*x*y + 3*y^2"]],
         [["x + y", "-x^2 + 3*x*y + 3*y^2", "-6*x^2*y + 7*x*y^2 + 12*y^3"],
          ["0", "0", "-y^2"]]]),
    "tor_2": ZERO,
    "tor_z5": (
        [(1, [["5"]]), (1, [["5"]]), (1, [["19073486328130"]])],
        [[["5"]], [["5"]]]),
    "koszul_xy_1": ZERO,
    "koszul_xy_2": ZERO,
    "koszul_sum_product_1": ZERO,
    "koszul_sum_product_2": ZERO,
    "koszul_nonregular_1": (
        [(1, [["-x"]]), (1, [["-x^2"]]), (1, [["-x^3"]])],
        [[["x^2*y"]], [["x^2*y"]]]),
    "stage_module_1": (
        [(1, [["-x + y"], ["x"]]), (1, [["x - y"], ["-x^2"]]),
         (1, [["x - y"], ["-x^3"]])],
        [[["-y"]], [["y"]]]),
}


def _ext(Q):
    """The poly-sweep extension of two lines over Q[x,y]."""
    return FPModule(Q, 2, [(Q.el("-2*x - 3*y"), Q.el(-3)),
                           (Q.el(0), Q.el("-x - 2*y"))])


def _towers():
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    Z5 = make_ring({"base": "Z",
                    "completion": {"ideal": ["5"], "precision": 20}})
    z5 = FPModule(Z5, 2, [(Z5.el(5), Z5.el(50))])
    line = FPModule.cyclic(Q, ["x - y"])
    xy, sum_product = ["x", "y"], ["x + y", "x*y"]
    return {
        "tor_1": Tower.tor(FPObj(_ext(Q)), sum_product, 1),
        "tor_2": Tower.tor(FPObj(_ext(Q)), sum_product, 2),
        "tor_z5": Tower.tor(FPObj(z5), [5], 1),
        "koszul_xy_1": koszul_homology_tower(Q, xy, 1),
        "koszul_xy_2": koszul_homology_tower(Q, xy, 2),
        "koszul_sum_product_1": koszul_homology_tower(Q, sum_product, 1),
        "koszul_sum_product_2": koszul_homology_tower(Q, sum_product, 2),
        "koszul_nonregular_1": koszul_homology_tower(Q, ["x^2", "x*y"], 1),
        "stage_module_1": KoszulTensorStages(line, xy).tower(1),
    }


def _materialized(tower):
    stages = [(tower.stage(k).ngens, _rendered(tower.stage(k).relations))
              for k in (1, 2, 3)]
    return stages, [_rendered(tower.transition(k).matrix) for k in (1, 2)]


def _rendered(rows):
    return [[e.render() for e in row] for row in rows]


@pytest.mark.parametrize("name", list(PINNED))
def test_stages_and_transitions_are_pinned(name):
    assert _materialized(_towers()[name]) == PINNED[name]


@pytest.mark.parametrize("family", ["tor", "koszul_homology",
                                    "koszul_stage"])
def test_towers_of_one_stage_object_share_its_complexes(family):
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    gens = ["x + y", "x*y"]
    one = {"tor": TorStages(_ext(Q), gens, 3),
           "koszul_homology":
               koszul_homology_tower(Q, gens, 1).params["complexes"],
           "koszul_stage": KoszulTensorStages(_ext(Q), gens)}[family]
    low, high = one.tower(1), one.tower(2)
    assert low.kind == high.kind == ("tor" if family == "tor"
                                     else "koszul_stage")
    assert low.params["complexes"] is high.params["complexes"] is one


def test_koszul_towers_share_one_stage_object():
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    low = koszul_homology_tower(Q, ["x^2", "x*y"], 1)
    stages = low.params["complexes"]
    high = stages.tower(2)
    assert _materialized(low) == PINNED["koszul_nonregular_1"]
    high.stage(2)
    assert stages.chain_map(1).source is stages.complex(2)
    assert stages.complex(2)._hcache.keys() == {1, 2}


def _count(monkeypatch, module, name, seen):
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        seen.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("doc", [
    {"ring": {"base": "Z"}, "ideal": ["5"],
     "modules": {"M": {"generators": 2, "relations": [["25", "0"]]}}},
    {"ring": {"base": "Q", "vars": ["x", "y"]}, "ideal": ["x + y", "x*y"],
     "modules": {"M": {"generators": 2, "relations": [
         ["-2*x - 3*y", "-3"], ["0", "-x - 2*y"]]}},
     "options": {"precision": 4, "K": 4, "lag": 2}},
], ids=["Z", "Qxy"])
def test_gm_check_limits_two_distinct_tor_towers_once(doc, monkeypatch):
    import lodua.cli
    limits = []
    _count(monkeypatch, lodua.local, "lim_lim1", limits)
    code, report = lodua.cli.run(doc, "gm-check", {"target": "M", "s": 1})
    assert code == 0, report
    tor = [args[0] for args in limits if args[0].kind == "tor"]
    assert len(tor) == 2 and tor[0] is not tor[1]


@pytest.mark.parametrize("regular", [False, True])
def test_koszul_stage_tower_cites_weak_proregularity_when_certified(regular):
    # the theorem carries the verdict, whatever lag the probe locates (at
    # lag 0, none on the nonzero degree-1 stages): every finite sequence of
    # a Noetherian ring is weakly proregular, so the non-regular sequence
    # (xy, x) is certified as much as the regular (x, y)
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    gens = ["x", "y"] if regular else ["x*y", "x"]
    stages = KoszulTensorStages(FPModule.cyclic(Q, ["x - y"]), gens)
    with lodua.settings(lag=0):
        out = lim_lim1(stages.tower(1))
    assert out.basis == "wpr theorem"
    assert out.lim.is_zero() and out.lim1.is_zero()


def _comodule_gm(order, monkeypatch):
    """(computed homology modules, their distinct (complex, degree) pairs)
    of a comodule-gm run of Q[x,y]^2/((x, y)) under a group of that order."""
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    if order == 1:
        h = GroupLikeHopfAlgebroid(Q, ["e"], {("e", "e"): "e"}, {})
        action = {}
    else:
        h = GroupLikeHopfAlgebroid(Q, ["e", "s"],
                                   {("e", "e"): "e", ("e", "s"): "s",
                                    ("s", "e"): "s", ("s", "s"): "e"},
                                   {"s": {"x": "y", "y": "x"}})
        action = {"s": [[Q.el(0), Q.el(1)], [Q.el(1), Q.el(0)]]}
    M = FPModule(Q, 2, [(Q.el("x"), Q.el("y"))])
    seen = []
    orig = ChainComplex._homology_data

    def counted(cx, n):
        seen.append((cx, n))   # holding cx keeps its id unique
        return orig(cx, n)

    monkeypatch.setattr(ChainComplex, "_homology_data", counted)
    lodua.towers._presented_limits.cache_clear()
    with lodua.settings(precision=4, K=4, lag=2):
        out = verify_theorems(h, IdealData(Q, ["x + y", "x*y"]),
                              Comodule(h, M, action), "comodule-gm")
    monkeypatch.undo()
    assert out["verdict"] == "pass"
    return len(seen), len({(id(cx), n) for cx, n in seen})


def test_comodule_gm_builds_each_stage_homology_once(monkeypatch):
    counts = [_comodule_gm(order, monkeypatch) for order in (1, 2)]
    # each homology is computed once, and the group's order adds none
    assert all(calls == distinct for calls, distinct in counts)
    assert counts[0] == counts[1]


def _kron_identity(T, m):
    """T (x) I_m, entry by entry."""
    return [[T[a][b] if i == j else 0 for b in range(len(T[0]))
             for j in range(m)] for a in range(len(T)) for i in range(m)]


def _koszul_tensor_cases():
    Z = make_ring({"base": "Z"})
    Z5 = make_ring({"base": "Z",
                    "completion": {"ideal": ["5"], "precision": 20}})
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    return [
        (FPModule(Z, 2, [(Z.el(25), Z.el(0))]), [5]),
        (FPModule(Z5, 2, [(Z5.el(5), Z5.el(50))]), [5]),
        (FPModule.free(Z5, 1), [5]),
        (FPModule.cyclic(Q, ["x - y"]), ["x", "y"]),
        (_ext(Q), ["x + y", "x*y"]),
        (FPModule.zero(Q), ["x", "y"]),
    ]


@pytest.mark.parametrize("case", range(6))
def test_koszul_tensor_stages_are_kos_tensor_the_module(case):
    # the reference: Kos(x^k) (x) M as a tensor product of complexes, and
    # koszul_transition (x) id_M written out entry by entry
    from lodua.koszul import koszul_chain, koszul_transition
    M, gens = _koszul_tensor_cases()[case]
    ring = M.ring
    stages = KoszulTensorStages(M, tuple(ring.el(g) for g in gens))
    ref = {k: koszul_chain(ring, gens, k).tensor_complex(
        ChainComplex.single(M, 0)) for k in (1, 2, 3)}
    for k in (1, 2, 3):
        C = stages.complex(k)
        assert sorted(C.modules) == sorted(ref[k].modules)
        for n in ref[k].modules:
            assert C.module(n).ngens == ref[k].module(n).ngens
            assert _rendered(C.module(n).relations) == \
                _rendered(ref[k].module(n).relations)
            assert _rendered(C.diff(n).matrix) == \
                _rendered(ref[k].diff(n).matrix)
    for k in (1, 2):
        f = stages.chain_map(k)
        T = koszul_transition(ring, gens, k, koszul_chain(ring, gens, k + 1),
                              koszul_chain(ring, gens, k))
        for n in ref[k].modules:
            want = _kron_identity(T.map(n).matrix, M.ngens)
            assert _rendered(f.map(n).matrix) == \
                _rendered([[ring.el(e) for e in row] for row in want])
        ChainMap(ref[k + 1], ref[k], f.maps, check=True)   # raises if not
