"""Direct property checks for the internal machinery everything rests on."""

import random

from lodua import (ChainComplex, ChainMap, FPModule, ModuleMap, iso_check,
                   make_ring)
from lodua.complexes import induced_on_homology
from lodua.koszul import koszul_chain, koszul_cochain
from lodua.modules import (HomModule, identity_map, minimize_presentation,
                           tensor_map)

from conftest import zmod


def random_module(ring, rng, max_gens=4):
    g = rng.randint(1, max_gens)
    rels = []
    for _ in range(rng.randint(0, 4)):
        if ring.nvars == 0:
            rels.append(tuple(ring.el(rng.randint(-9, 9)) for _ in range(g)))
        else:
            col = []
            for _ in range(g):
                c = rng.randint(-3, 3)
                a, b = rng.randint(0, 2), rng.randint(0, 1)
                col.append(ring.el(c) * ring.var("x") ** a * ring.var("y") ** b)
            rels.append(tuple(col))
    return FPModule(ring, g, rels)


def test_minimization_is_an_isomorphism(ZZ, QQxy):
    rng = random.Random(21)
    for ring in (ZZ, QQxy):
        for _ in range(15):
            M = random_module(ring, rng)
            Mmin, fwd, bwd = minimize_presentation(M)
            # check=True validates that relations map to relations
            ModuleMap(M, Mmin, fwd.matrix, check=True)
            ModuleMap(Mmin, M, bwd.matrix, check=True)
            assert fwd.compose(bwd).equals(identity_map(Mmin))
            assert bwd.compose(fwd).equals(identity_map(M))
            if ring.is_euclidean:
                assert iso_check(M, Mmin)


def test_minimization_removes_unit_entries(QQxy):
    M = FPModule(QQxy, 2, [
        (QQxy.el("0"), QQxy.el("-2*x*y - 1")),
        (QQxy.el("2"), QQxy.el("2*y^2")),
        (QQxy.el("-x^2 + x"), QQxy.el("0")),
    ])
    Mmin, fwd, bwd = minimize_presentation(M)
    assert Mmin.ngens < M.ngens
    for col in Mmin.relations:
        assert not any(e.is_unit() for e in col if not e.is_zero())


def test_induced_on_homology_is_functorial(ZZ):
    """H_n(g . f) = H_n(g) . H_n(f) on two-term complexes."""
    rng = random.Random(8)
    F = FPModule.free(ZZ, 1)
    for _ in range(10):
        a, b, c = (rng.randint(2, 30) for _ in range(3))
        # complexes Z -a-> Z etc.; maps between them multiply by suitable
        # scalars making the squares commute: (u, v) with v a = b u
        X = ChainComplex(ZZ, {0: F, 1: F}, {1: ModuleMap(F, F, [[ZZ.el(a)]])})
        Y = ChainComplex(ZZ, {0: F, 1: F},
                         {1: ModuleMap(F, F, [[ZZ.el(a * b)]])})
        Zc = ChainComplex(ZZ, {0: F, 1: F},
                          {1: ModuleMap(F, F, [[ZZ.el(a * b * c)]])})
        f = ChainMap(X, Y, {0: ModuleMap(F, F, [[ZZ.el(b)]]),
                            1: identity_map(F)})
        g = ChainMap(Y, Zc, {0: ModuleMap(F, F, [[ZZ.el(c)]]),
                             1: identity_map(F)})
        gf = ChainMap(X, Zc, {0: ModuleMap(F, F, [[ZZ.el(b * c)]]),
                              1: identity_map(F)})
        for n in (0, 1):
            left = induced_on_homology(gf, n)
            right = induced_on_homology(g, n).compose(induced_on_homology(f, n))
            assert left.equals(right), (a, b, c, n)


def test_hom_module_roundtrip(ZZ):
    """coords(interp(v)) = v modulo the Hom module's relations."""
    M, N = zmod(ZZ, 12), zmod(ZZ, 18)
    hm = HomModule(M, N)
    H = hm.module
    assert not H.is_zero()
    for t in range(H.ngens):
        v = H.gen(t)
        f = hm.interp(v)
        back = hm.coords(f)
        assert back is not None
        diff = tuple(a - b for a, b in zip(back, v))
        assert H.contains_in_relations(diff)


def test_koszul_self_duality(QQxy, ZZ):
    """H^s of the cochain complex matches H_(n-s) of the chain complex."""
    for ring, gens in ((ZZ, [ZZ.el(4), ZZ.el(6)]),
                       (QQxy, [QQxy.el("x"), QQxy.el("y")])):
        n = len(gens)
        chain = koszul_chain(ring, gens, 1)
        cochain = koszul_cochain(ring, gens, 1)
        for s in range(n + 1):
            hc = cochain.homology(-s)      # H^s
            hh = chain.homology(n - s)
            if ring.is_euclidean:
                assert iso_check(hc, hh), (ring, s)
            else:
                assert hc.is_zero() == hh.is_zero(), (ring, s)


def test_semilinear_chain_lift_commutes(QQxy):
    from lodua import Comodule, GroupLikeHopfAlgebroid, IdealData
    from lodua.hopf import _semilinear_chain_lift
    from lodua.linalg import mat_mul
    from lodua.modules import free_resolution
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    swap = GroupLikeHopfAlgebroid(QQxy, ["e", "s"], table,
                                  {"s": {"x": "y", "y": "x"}})
    MI = Comodule(swap, FPModule.cyclic(QQxy, ["x + y", "x*y"]),
                  {"s": [[QQxy.el(1)]]})
    res = free_resolution(MI.module, 3)
    X = _semilinear_chain_lift(swap, "s", MI, res, 2)
    for j in (1, 2):
        d = res.diffs.get(j)
        if d is None or d.source.ngens == 0 or j not in X:
            continue
        left = mat_mul(QQxy, d.matrix, X[j])
        right = mat_mul(QQxy, X[j - 1], swap.apply_matrix("s", d.matrix))
        for i in range(len(left)):
            for t in range(len(left[0]) if left else 0):
                assert left[i][t] == right[i][t], (j, i, t)


def test_tensor_map_functorial(ZZ):
    M, N = zmod(ZZ, 6), zmod(ZZ, 4)
    f = ModuleMap(M, M, [[ZZ.el(2)]])
    g = ModuleMap(M, M, [[ZZ.el(3)]])
    left = tensor_map(f.compose(g), N)
    right = tensor_map(f, N).compose(tensor_map(g, N))
    assert left.equals(right)


def test_tensor_complex_kunneth_over_field():
    """Over a field homology dimensions multiply degreewise."""
    F5 = make_ring({"base": "Fp", "p": 5, "vars": []})
    V = FPModule.free(F5, 2)
    W = FPModule.free(F5, 1)
    C = ChainComplex(F5, {0: V, 1: W},
                     {1: ModuleMap(W, V, [[F5.el(1)], [F5.el(0)]])})
    # H_0(C) = F5 (one surviving generator), H_1(C) = 0
    assert C.homology(0).ngens - len(C.homology(0).relations) >= 0
    D = ChainComplex(F5, {0: W, 1: W}, {1: ModuleMap(W, W, [[F5.el(0)]])})
    # H_0(D) = H_1(D) = F5
    T = C.tensor_complex(D)
    dims = {}
    for n in range(0, 3):
        H = T.homology(n)
        dims[n] = H.ngens  # over a field the minimized module is free
        assert not H.relations
    hC = {0: 1, 1: 0}
    hD = {0: 1, 1: 1}
    for n in range(0, 3):
        want = sum(hC.get(p, 0) * hD.get(n - p, 0) for p in (0, 1))
        assert dims[n] == want, (n, dims, want)


def test_canonical_presentation_change_of_basis(ZZ):
    M = FPModule(ZZ, 2, [(ZZ.el(2), ZZ.el(4)), (ZZ.el(6), ZZ.el(8))])
    can, fwd, bwd = M.canonical_presentation()
    ModuleMap(M, can, fwd.matrix, check=True)
    ModuleMap(can, M, bwd.matrix, check=True)
    assert fwd.compose(bwd).equals(identity_map(can))
    assert bwd.compose(fwd).equals(identity_map(M))
    assert iso_check(M, can)
