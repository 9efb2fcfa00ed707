"""Block layouts of the presentations and matrices the functors build.

Each pin holds rendered relations and matrices recorded before the block
builders of ``lodua.modules`` (block sums, Kronecker maps, scalar maps,
base change) replaced the hand-written copies in the other layers, so no
relation order and no matrix entry can move unnoticed.
"""

import pytest

from lodua import (Comodule, FPModule, FPObj, GroupLikeHopfAlgebroid,
                   IdealData, TelescopeQuotient, make_ring)
from lodua.complexes import ChainComplex
from lodua.hopf import extended_module
from lodua.local import _power_torsion_gens, ext_of_descriptors
from lodua.modules import HomModule, ModuleMap, ext, tensor, tensor_map

C2_TABLE = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}


def _vecs(vecs):
    return [[e.render() for e in v] for v in vecs]


def _module(M):
    return [M.ngens, _vecs(M.relations)]


def _map(f):
    return [f.source.ngens, f.target.ngens, _vecs(f.matrix)]


def _complex(C):
    return [[n, _module(C.modules[n])] for n in sorted(C.modules)] + \
        [[n, _map(C.diffs[n])] for n in sorted(C.diffs)]


def _cases():
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    Z = make_ring({"base": "Z"})
    el = Q.el
    M = FPModule(Q, 2, [(el("x"), el("y")), (el(0), el("x*y"))])
    N = FPModule(Q, 3, [(el("y"), el(0), el("x + 1")),
                        (el(0), el("x^2"), el(0))])
    F2 = FPModule.free(Q, 2)
    f = ModuleMap(F2, M, [[el("y"), el(0)], [el(1), el("x")]])
    A = FPModule.free(Q, 1)
    two_term = ChainComplex(Q, {0: A, 1: F2},
                            {1: ModuleMap(F2, A, [[el("x"), el("y")]])})
    other = ChainComplex(Q, {0: FPModule.cyclic(Q, ["y"]), 1: A},
                         {1: ModuleMap(A, FPModule.cyclic(Q, ["y"]),
                                       [[el("x - 1")]])})
    module = ChainComplex.single(M, 0)
    hm, hm_free = HomModule(M, N), HomModule(F2, N)
    swap = GroupLikeHopfAlgebroid(Q, ["e", "s"], C2_TABLE,
                                  {"s": {"x": "y", "y": "x"}})
    comod = Comodule(swap, FPModule(Q, 2, [(el("x"), el("y")),
                                           (el("x*y"), el("x*y"))]),
                     {"s": [[el(0), el(1)], [el(1), el(0)]]})
    T = FPModule(Q, 2, [(el("x^2"), el(0)), (el("x*y"), el("y^2"))])
    dxy = IdealData(Q, ["x", "y"])
    tq = TelescopeQuotient(FPModule.free(Z, 2), 5)
    return {
        "tensor": _module(tensor(M, N)),
        "tensor_map": _map(tensor_map(f, N)),
        "tensor_complex": _complex(two_term.tensor_complex(module)),
        "tensor_complex_right": _complex(module.tensor_complex(two_term)),
        "tensor_complex_both": _complex(two_term.tensor_complex(other)),
        "hom_module": [_module(hm.module), _vecs(hm.gens_as_vecs)],
        "hom_module_free": [_module(hm_free.module),
                            _vecs(hm_free.gens_as_vecs)],
        "ext_0": _module(ext(M, N, 0)),
        "ext_1": _module(ext(M, N, 1)),
        "extended_module": _module(extended_module(swap, comod.module)),
        "coaction": _map(comod.coaction()),
        "power_torsion_1": _vecs(_power_torsion_gens(dxy, T, 1)),
        "power_torsion_2": _vecs(_power_torsion_gens(dxy, T, 2)),
        "ext_telescope_quotient": _module(ext_of_descriptors(
            tq, FPObj(FPModule.cyclic(Z, [50])), 1).payload),
    }


PINNED = {"coaction": [2, 4, [["1", "0"], ["0", "1"], ["0", "1"], ["1", "0"]]],
          "ext_0": [2, [["x", "0"], ["-y", "-x"]]],
          "ext_1": [6,
                    [["-y", "0", "-x - 1", "0", "0", "0"],
                     ["0", "-x^2", "0", "0", "0", "0"],
                     ["0", "0", "0", "-y", "0", "-x - 1"],
                     ["0", "0", "0", "0", "-x^2", "0"],
                     ["x", "0", "0", "0", "0", "0"],
                     ["0", "x", "0", "0", "0", "0"],
                     ["0", "0", "x", "0", "0", "0"],
                     ["y", "0", "0", "x*y", "0", "0"],
                     ["0", "y", "0", "0", "x*y", "0"],
                     ["0", "0", "y", "0", "0", "x*y"]]],
          "ext_telescope_quotient": [2, [["50", "0"], ["0", "50"]]],
          "extended_module": [4,
                              [["x", "y", "0", "0"],
                               ["x*y", "x*y", "0", "0"],
                               ["0", "0", "y", "x"],
                               ["0", "0", "x*y", "x*y"]]],
          "hom_module": [[4,
                          [["0", "-1", "0", "0"],
                           ["x", "0", "0", "0"],
                           ["0", "0", "0", "1"],
                           ["-y", "0", "-x", "0"]]],
                         [["0", "-x", "0", "0", "0", "0"],
                          ["y", "0", "x + 1", "0", "0", "0"],
                          ["0", "y", "0", "0", "-x", "0"],
                          ["0", "0", "0", "-y", "0", "-x - 1"]]],
          "hom_module_free": [[6,
                               [["y", "0", "x + 1", "0", "0", "0"],
                                ["0", "x^2", "0", "0", "0", "0"],
                                ["0", "0", "0", "y", "0", "x + 1"],
                                ["0", "0", "0", "0", "x^2", "0"]]],
                              [["1", "0", "0", "0", "0", "0"],
                               ["0", "1", "0", "0", "0", "0"],
                               ["0", "0", "1", "0", "0", "0"],
                               ["0", "0", "0", "1", "0", "0"],
                               ["0", "0", "0", "0", "1", "0"],
                               ["0", "0", "0", "0", "0", "1"]]],
          "power_torsion_1": [["x*y", "y^2"], ["x^2", "0"]],
          "power_torsion_2": [["-x^2", "0"], ["x*y", "y^2"]],
          "tensor": [6,
                     [["x", "0", "0", "y", "0", "0"],
                      ["0", "x", "0", "0", "y", "0"],
                      ["0", "0", "x", "0", "0", "y"],
                      ["0", "0", "0", "x*y", "0", "0"],
                      ["0", "0", "0", "0", "x*y", "0"],
                      ["0", "0", "0", "0", "0", "x*y"],
                      ["y", "0", "x + 1", "0", "0", "0"],
                      ["0", "0", "0", "y", "0", "x + 1"],
                      ["0", "x^2", "0", "0", "0", "0"],
                      ["0", "0", "0", "0", "x^2", "0"]]],
          "tensor_complex": [[0, [2, [["x", "y"], ["0", "x*y"]]]],
                             [1,
                              [4,
                               [["x", "y", "0", "0"],
                                ["0", "0", "x", "y"],
                                ["0", "x*y", "0", "0"],
                                ["0", "0", "0", "x*y"]]]],
                             [1,
                              [4,
                               2,
                               [["x", "0", "y", "0"], ["0", "x", "0", "y"]]]]],
          "tensor_complex_both": [[0, [1, [["y"]]]],
                                  [1, [3, [["0", "y", "0"], ["0", "0", "y"]]]],
                                  [2, [2, []]],
                                  [1, [3, 1, [["x - 1", "x", "y"]]]],
                                  [2,
                                   [2,
                                    3,
                                    [["x", "y"],
                                     ["-x + 1", "0"],
                                     ["0", "-x + 1"]]]]],
          "tensor_complex_right": [[0, [2, [["x", "y"], ["0", "x*y"]]]],
                                   [1,
                                    [4,
                                     [["x", "0", "y", "0"],
                                      ["0", "x", "0", "y"],
                                      ["0", "0", "x*y", "0"],
                                      ["0", "0", "0", "x*y"]]]],
                                   [1,
                                    [4,
                                     2,
                                     [["x", "y", "0", "0"],
                                      ["0", "0", "x", "y"]]]]],
          "tensor_map": [6,
                         6,
                         [["y", "0", "0", "0", "0", "0"],
                          ["0", "y", "0", "0", "0", "0"],
                          ["0", "0", "y", "0", "0", "0"],
                          ["1", "0", "0", "x", "0", "0"],
                          ["0", "1", "0", "0", "x", "0"],
                          ["0", "0", "1", "0", "0", "x"]]]}


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_layout_is_pinned(cases, name):
    assert cases[name] == PINNED[name]


def test_every_case_is_pinned(cases):
    assert sorted(cases) == sorted(PINNED)
