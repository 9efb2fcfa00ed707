import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lodua import (FPModule, InvalidInput, ModuleMap, ext, free_resolution,
                   iso_check, make_ring, subquotient, tensor, tor)
from lodua.modules import (HomModule, base_change, block_sum, direct_sum,
                           identity_kron, identity_map, kron_identity,
                           minimize_presentation, power, scalar_map)

from conftest import zmod


def test_relations_must_map_to_relations(ZZ):
    M4, M3 = zmod(ZZ, 4), zmod(ZZ, 3)
    with pytest.raises(InvalidInput):
        ModuleMap(M4, M3, [[ZZ.el(1)]])
    ModuleMap(M4, zmod(ZZ, 2), [[ZZ.el(1)]])  # 4 = 0 in Z/2: fine


def test_cokernel_of_multiplication(ZZ):
    f = ModuleMap(FPModule.free(ZZ, 1), FPModule.free(ZZ, 1), [[ZZ.el(4)]])
    C, proj = subquotient(f, "cokernel")
    assert iso_check(C, zmod(ZZ, 4))


def test_kernel_in_z6(ZZ):
    # elements of Z/6 killed by 2 are {0, 3}
    M6 = zmod(ZZ, 6)
    f = ModuleMap(M6, M6, [[ZZ.el(2)]])
    K, incl = subquotient(f, "kernel")
    assert iso_check(K, zmod(ZZ, 2))
    img = incl.col(0)
    assert M6.el_eq(img, (ZZ.el(3),)) or M6.el_eq(img, (ZZ.el(-3),))


def test_image_of_multiplication(QQxy):
    F = FPModule.free(QQxy, 1)
    f = ModuleMap(F, F, [[QQxy.el("x")]])
    I, incl = subquotient(f, "image")
    # the ideal (x) is free of rank one
    assert not I.is_zero()
    K, _ = ModuleMap(I, I, identity_map(I).matrix).kernel()
    assert K.is_zero()


def test_tensor_of_cyclics(ZZ):
    assert iso_check(tensor(zmod(ZZ, 4), zmod(ZZ, 6)), zmod(ZZ, 2))


def test_tensor_with_ring_is_identity(ZZ):
    for M in (zmod(ZZ, 9), FPModule.free(ZZ, 2)):
        assert iso_check(tensor(FPModule.free(ZZ, 1), M), M)


def test_hom_basics(ZZ):
    assert iso_check(HomModule(FPModule.free(ZZ, 1), zmod(ZZ, 12)).module,
                     zmod(ZZ, 12))
    assert HomModule(zmod(ZZ, 5), FPModule.free(ZZ, 1)).module.is_zero()


def test_free_resolution_shapes(ZZ, QQxy):
    res = free_resolution(zmod(ZZ, 5), 1)
    assert [res.module(i).ngens for i in (0, 1)] == [1, 1]
    kk = zmod(QQxy, 0)
    kk = FPModule.cyclic(QQxy, ["x", "y"])
    res = free_resolution(kk, 2)
    assert [res.module(i).ngens for i in (0, 1, 2)] == [1, 2, 1]
    res = free_resolution(FPModule.free(ZZ, 2), 2)
    assert res.module(1).ngens == 0


def test_resolution_exact_in_middle(QQxy):
    kk = FPModule.cyclic(QQxy, ["x", "y"])
    res = free_resolution(kk, 3)
    for i in (1, 2):
        assert res.homology(i).is_zero()


def test_tor_values(ZZ, QQxy):
    assert iso_check(tor(zmod(ZZ, 4), zmod(ZZ, 6), 1), zmod(ZZ, 2))
    assert iso_check(tor(zmod(ZZ, 4), zmod(ZZ, 6), 0),
                     tensor(zmod(ZZ, 4), zmod(ZZ, 6)))
    kk = FPModule.cyclic(QQxy, ["x", "y"])
    t = tor(kk, kk, 1)
    assert _kdim(t) == 2  # Koszul resolution ranks


def test_tor_symmetric_over_euclidean(ZZ):
    rng = random.Random(3)
    for _ in range(6):
        m, n = rng.randint(2, 24), rng.randint(2, 24)
        M, N = zmod(ZZ, m), zmod(ZZ, n)
        for s in (0, 1):
            assert iso_check(tor(M, N, s), tor(N, M, s))


def test_ext_values(ZZ, QQxy):
    assert iso_check(ext(zmod(ZZ, 5), FPModule.free(ZZ, 1), 1), zmod(ZZ, 5))
    assert iso_check(ext(FPModule.free(ZZ, 1), zmod(ZZ, 7), 0), zmod(ZZ, 7))
    kk = FPModule.cyclic(QQxy, ["x", "y"])
    e2 = ext(kk, FPModule.free(QQxy, 1), 2)
    assert _kdim(e2) == 1  # Koszul self-duality
    assert ext(kk, FPModule.free(QQxy, 1), 1).is_zero()


def test_iso_check_verdicts(ZZ, QQxy):
    S, _, _ = direct_sum(zmod(ZZ, 2), zmod(ZZ, 3))
    assert iso_check(S, zmod(ZZ, 6))
    S2, _, _ = direct_sum(zmod(ZZ, 2), zmod(ZZ, 2))
    assert not iso_check(S2, zmod(ZZ, 4))
    # witness-based over polynomial rings: coker(x, y) = k via augmentation
    kk = FPModule.cyclic(QQxy, ["x", "y"])
    same = FPModule.cyclic(QQxy, ["y", "x"])
    w = ModuleMap(kk, same, [[QQxy.el(1)]])
    assert iso_check(kk, same, witness=w)
    with pytest.raises(InvalidInput):
        iso_check(kk, same)  # witness required


def test_six_term_tor_sequence(ZZ):
    """0 -> Tor_1(Z/p, N) -> N -p-> N -> N/p -> 0 is exact for tested N."""
    p = 5
    for n in (10, 7, 25):
        N = zmod(ZZ, n)
        t1 = tor(zmod(ZZ, p), N, 1)
        mul = ModuleMap(N, N, [[ZZ.el(p)]])
        K, _ = mul.kernel()
        C, _ = mul.cokernel()
        assert iso_check(t1, K)
        assert iso_check(tor(zmod(ZZ, p), N, 0), C)


def _kdim(M):
    # dimension over the base field of a module killed by the variables
    from fractions import Fraction
    cols = [[Fraction(e.num.constant()) for e in col] for col in M.relations]
    used = [False] * M.ngens
    rank = 0
    for c in cols:
        piv = next((i for i, v in enumerate(c) if v != 0 and not used[i]), None)
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        for c2 in cols:
            if c2 is not c and c2[piv] != 0:
                f = c2[piv] / c[piv]
                for i in range(M.ngens):
                    c2[i] -= f * c[i]
    return M.ngens - rank


def test_minimize_presentation_asks_each_nonunit_once(monkeypatch):
    from lodua import make_ring
    from lodua.modules import minimize_presentation
    from lodua.ring import Ring
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2"]})
    M = FPModule(R, 3, [("x", "y", "0"), ("0", "x", "1")])
    asked = []
    unit_inverse = Ring.unit_inverse

    def counted(ring, e):
        asked.append(ring.el(e).num)
        return unit_inverse(ring, e)

    monkeypatch.setattr(Ring, "unit_inverse", counted)
    Mmin, fwd, bwd = minimize_presentation(M)
    # x and y once each, then the unit 1, which eliminates generator 3;
    # the rescan of the first relation asks nothing again
    assert [p.render(R.names) for p in asked] == ["x", "y", "1"]
    assert Mmin.ngens == 2 and Mmin.relations == [(R.el("x"), R.el("y"))]


_SPARSE_RINGS = {
    "Z": make_ring({"base": "Z"}),
    "Z_5": make_ring({"base": "Z", "completion": {"ideal": ["5"],
                                                  "precision": 6}}),
    "Q": make_ring({"base": "Q"}),
    "Z[1/2]": make_ring({"base": "Z", "invert": "2"}),
    "Z_5[1/5]": make_ring({"base": "Z", "invert": "5",
                           "completion": {"ideal": ["5"], "precision": 6}}),
    "Q[x,y]": make_ring({"base": "Q", "vars": ["x", "y"]}),
    "F_7[x,y]": make_ring({"base": "Fp", "p": 7, "vars": ["x", "y"]}),
    "Q[x,y]/(x^3 - y^2)": make_ring({"base": "Q", "vars": ["x", "y"],
                                     "quotient": ["x^3 - y^2"]}),
    "Q[[x,y]]": make_ring({"base": "Q", "vars": ["x", "y"],
                           "completion": {"ideal": ["x", "y"],
                                          "precision": 3}}),
    "Q[x,y] at (x + y, xy)": make_ring({
        "base": "Q", "vars": ["x", "y"],
        "completion": {"ideal": ["x + y", "x*y"], "precision": 3}}),
    "Q[x,y][1/x]": make_ring({"base": "Q", "vars": ["x", "y"],
                              "invert": "x"}),
}
# units and nonunits of each ring
_SPARSE_ENTRIES = {
    "Z": ["1", "-1", "2", "-3", "6"],
    "Z_5": ["1", "2", "-3", "5", "10", "25"],
    "Q": ["1", "-2", "3", "7"],
    "Z[1/2]": ["1", "2", "-4", "3", "6"],
    "Z_5[1/5]": ["1", "2", "5", "10", "25"],
    "Q[x,y]": ["1", "-2", "x", "y", "x*y - 1", "x^2"],
    "F_7[x,y]": ["1", "3", "x", "y", "x*y - 1", "x^2"],
    "Q[x,y]/(x^3 - y^2)": ["1", "-2", "x", "y", "x*y - 1", "y^2"],
    "Q[[x,y]]": ["1", "1 + x", "2 - y", "x", "y", "x*y"],
    "Q[x,y] at (x + y, xy)": ["1", "1 + x", "2 - y", "x + y", "x*y", "x"],
    "Q[x,y][1/x]": ["1", "x", "-2", "y", "x*y", "x - y"],
}


@st.composite
def _sparse_presentations(draw):
    """20 to 24 generators; at most 2 nonzero entries in each relation, so
    at least 90% of the entries are zero."""
    name = draw(st.sampled_from(sorted(_SPARSE_RINGS)))
    ring = _SPARSE_RINGS[name]
    ngens = draw(st.integers(20, 24))
    entry = st.sampled_from(_SPARSE_ENTRIES[name])
    placed = st.dictionaries(st.integers(0, ngens - 1), entry,
                             min_size=1, max_size=ngens // 10)
    cols = [tuple(ring.el(nonzero.get(g, 0)) for g in range(ngens))
            for nonzero in draw(st.lists(placed, min_size=1, max_size=8))]
    return FPModule(ring, ngens, cols)


@settings(max_examples=45)
@given(_sparse_presentations())
def test_minimize_presentation_on_long_sparse_relations(M):
    Mmin, fwd, bwd = minimize_presentation(M)
    # check=True validates that relations map to relations
    ModuleMap(M, Mmin, fwd.matrix, check=True)
    ModuleMap(Mmin, M, bwd.matrix, check=True)
    assert fwd.compose(bwd).equals(identity_map(Mmin))
    assert bwd.compose(fwd).equals(identity_map(M))
    again, _, _ = minimize_presentation(Mmin)
    assert again.ngens == Mmin.ngens and again.relations == Mmin.relations


def _reference_minimization(M):
    """The elimination as it was before entries were updated by one fused
    multiply-add and the projection was replayed on read: the oracle of
    the test below, kept as it was written."""
    ring = M.ring
    zero = ring.zero()
    rels = [{g: e for g, e in enumerate(col) if not e.is_zero()}
            for col in M.relations]
    expr = [{g: ring.one()} for g in range(M.ngens)]
    nonunits = set()
    gens = list(range(M.ngens))
    while True:
        pivot = _reference_unit_entry(ring, rels, nonunits)
        if pivot is None:
            break
        ci, g, inv = pivot
        col = rels.pop(ci)
        gens.remove(g)
        # g = -inv * sum_{h != g} col_h * h
        subst = {h: zero - inv * c for h, c in col.items() if h != g}
        for vec in rels + expr:
            c = vec.pop(g, None)
            if c is not None:
                for h, s in subst.items():
                    e = vec.get(h, zero) + c * s
                    if e.is_zero():
                        vec.pop(h, None)
                    else:
                        vec[h] = e
    new_index = {g: i for i, g in enumerate(gens)}
    Mmin = FPModule(ring, len(gens), [tuple(col.get(g, zero) for g in gens)
                                      for col in rels if col])
    fwd_mat = [[zero] * M.ngens for _ in gens]
    for src, e_map in enumerate(expr):
        for h, c in e_map.items():
            fwd_mat[new_index[h]][src] = c
    bwd_mat = [[ring.one() if i == g else zero for g in gens]
               for i in range(M.ngens)]
    fwd = ModuleMap(M, Mmin, fwd_mat, check=False)
    bwd = ModuleMap(Mmin, M, bwd_mat, check=False)
    return Mmin, fwd, bwd


def _reference_unit_entry(ring, rels, nonunits):
    for ci, col in enumerate(rels):
        for g in sorted(col):
            e = col[g]
            if e not in nonunits:
                inv = ring.unit_inverse(e)  # one question: unit and inverse
                if inv is not None:
                    return ci, g, inv
                nonunits.add(e)
    return None


@settings(max_examples=120)
@given(_sparse_presentations())
# the first relation is unit-free until the second's pivot, g0 = -g1,
# turns its 3 into 3 - 2 = 1
@example(FPModule(_SPARSE_RINGS["Z"], 3, [(2, 3, 0), (1, 1, 0), (0, 2, 6)]))
def test_minimize_presentation_matches_the_reference_elimination(M):
    Mmin, fwd, bwd = minimize_presentation(M)
    ref, ref_fwd, ref_bwd = _reference_minimization(M)
    assert Mmin.ngens == ref.ngens and Mmin.relations == ref.relations
    assert fwd.matrix == ref_fwd.matrix
    assert bwd.matrix == ref_bwd.matrix


# -- the zero test over euclidean rings ----------------------------------------

# every euclidean ring class: Z, Z_5, Z[1/u], Z_5[1/u] with u a power of 5
# (Q_5) and with another prime in u, a field of each characteristic and k[t]
_ZERO_TEST_RINGS = {
    "Z": make_ring({"base": "Z"}),
    "Z_5": make_ring({"base": "Z", "completion": {"ideal": ["5"],
                                                  "precision": 6}}),
    "Z[1/10]": make_ring({"base": "Z", "invert": "10"}),
    "Z_5[1/5]": make_ring({"base": "Z", "invert": "5", "completion": {
        "ideal": ["5"], "precision": 6}}),
    "Z_5[1/10]": make_ring({"base": "Z", "invert": "10", "completion": {
        "ideal": ["5"], "precision": 6}}),
    "Q": make_ring({"base": "Q"}),
    "F_7": make_ring({"base": "Fp", "p": 7}),
    "Q[t]": make_ring({"base": "Q", "vars": ["t"]}),
}
_ZERO_TEST_NUMS = ["0", "1", "-1", "2", "3", "5", "6", "-10", "25", "125",
                   "3125", "15625"]


@st.composite
def _euclidean_presentations(draw, ring):
    """1 to 3 generators and 0 to 4 relations, with units often enough
    that a quarter or more of the modules are zero."""
    if ring.nvars:
        entry = st.builds(ring.el, st.sampled_from(
            ["0", "1", "-2", "t", "t + 1", "t^2", "2*t - 1"]))
    elif ring.inverted is not None:   # n/u^d
        entry = st.builds(lambda n, d: ring.el(int(n), d),
                          st.sampled_from(_ZERO_TEST_NUMS), st.integers(0, 1))
    else:
        entry = st.builds(ring.el, st.sampled_from(_ZERO_TEST_NUMS))
    ngens = draw(st.integers(1, 3))
    cols = draw(st.lists(st.tuples(*[entry] * ngens), max_size=4))
    return FPModule(ring, ngens, cols)


def _outcome(ask):
    try:
        return ask()
    except ZeroDivisionError:   # the precision seam of Z_p[1/u]
        return ZeroDivisionError


@pytest.mark.parametrize("name", sorted(_ZERO_TEST_RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_euclidean_zero_test_is_the_membership_loop(name, data):
    ring = _ZERO_TEST_RINGS[name]
    assert ring.is_euclidean
    M = data.draw(_euclidean_presentations(ring))
    got = _outcome(M.is_zero)
    want = _outcome(lambda: all(M.contains_in_relations(M.gen(i))
                                for i in range(M.ngens)))
    assert got == want
    if got is ZeroDivisionError:
        return
    assert M.is_zero() == got   # asked again, off the memo
    rank, torsion = M.invariants()
    assert torsion == sorted(f.render() for f in M.decomposition()[0])
    torsion.append("0")
    assert M.invariants() == (rank, sorted(
        f.render() for f in M.decomposition()[0]))


# -- block builders -----------------------------------------------------------


def _rendered(mat):
    return [[e.render() for e in row] for row in mat]


def test_block_sums(ZZ):
    M, N = zmod(ZZ, 4), FPModule(ZZ, 2, [(ZZ.el(2), ZZ.el(6))])
    assert block_sum([M]) is M
    S = block_sum([M, N, M])
    assert S.ngens == 4
    assert [[e.render() for e in col] for col in S.relations] == [
        ["4", "0", "0", "0"], ["0", "2", "6", "0"], ["0", "0", "0", "4"]]
    assert S.relations == direct_sum(direct_sum(M, N)[0], M)[0].relations
    assert power(N, 1) is N
    assert power(N, 0).ngens == 0
    assert power(N, 2).relations == block_sum([N, N]).relations


def test_kronecker_layouts(ZZ):
    A = [[ZZ.el(1), ZZ.el(2)]]
    assert _rendered(kron_identity(ZZ, A, 2)) == [
        ["1", "0", "2", "0"], ["0", "1", "0", "2"]]
    assert _rendered(identity_kron(ZZ, 2, A)) == [
        ["1", "2", "0", "0"], ["0", "0", "1", "2"]]
    assert kron_identity(ZZ, [], 3) == [] and identity_kron(ZZ, 3, []) == []


def test_scalar_map_and_base_change(ZZ, Z5hat):
    M = FPModule(ZZ, 2, [(ZZ.el(3), ZZ.el(10))])
    assert _rendered(scalar_map(M, ZZ.el(7)).matrix) == [["7", "0"],
                                                          ["0", "7"]]
    assert identity_map(M).matrix == scalar_map(M, ZZ.el(1)).matrix
    Mhat = base_change(M, Z5hat)
    assert Mhat.ring is Z5hat and Mhat.ngens == 2
    assert [[e.render() for e in col] for col in Mhat.relations] == [
        ["3", "10"]]


def test_module_layer_refuses_malformed_input(ZZ, QQxy):
    from lodua import UnsupportedRing
    Z1, Z2, Q1 = (FPModule.free(ZZ, 1), FPModule.free(ZZ, 2),
                  FPModule.free(QQxy, 1))
    refusals = [
        (lambda: FPModule(ZZ, 2, [(ZZ.el(1),)]),
         "relation column length != generator count"),
        (lambda: ModuleMap(Z1, Q1, [[1]]),
         "source and target live over different rings"),
        (lambda: ModuleMap(Z2, Z1, [[1]]), "wrong number of columns"),
        (lambda: ModuleMap(Z2, Z1, [[1, 0], [0, 1]]), "wrong number of rows"),
        (lambda: identity_map(Z1).compose(identity_map(Z2)),
         "composition mismatch"),
        (lambda: subquotient(identity_map(Z1), "sum"),
         "unknown subquotient kind 'sum'"),
        (lambda: tensor(Z1, Q1), "tensor needs a common ring"),
        (lambda: HomModule(Z1, Q1), "hom needs a common ring"),
        (lambda: tor(Z1, Z1, -1), "Tor degree must be >= 0"),
        (lambda: ext(Z1, Z1, -1), "Ext degree must be >= 0"),
        (lambda: iso_check(Q1, Q1), "witness required over non-euclidean"),
    ]
    for call, message in refusals:
        with pytest.raises(InvalidInput, match=message):
            call()
    with pytest.raises(UnsupportedRing, match="need a euclidean ring"):
        Q1.decomposition()


def test_maps_out_of_and_into_the_zero_module(ZZ):
    zero, Z2 = FPModule.zero(ZZ), FPModule.free(ZZ, 2)
    into, out = ModuleMap(zero, Z2, [[], []]), ModuleMap(Z2, zero, [])
    assert into.apply(()) == (ZZ.zero(), ZZ.zero())
    assert out.apply(Z2.gen(0)) == ()
    assert out.lift_element(()) == (ZZ.zero(), ZZ.zero())
    assert into.lift_element(Z2.gen(0)) is None


def test_iso_check_reasons(ZZ, QQxy):
    Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"],
                                                "precision": 20}})
    assert iso_check(FPModule.free(ZZ, 1),
                     FPModule.free(Z5, 1)).reason == "different rings"
    zero = FPModule.zero(QQxy)
    assert iso_check(zero, zero).reason == "both zero"
    A, kx = FPModule.free(QQxy, 1), FPModule.cyclic(QQxy, ["x"])
    x = ModuleMap(A, A, [[QQxy.el("x")]])
    assert iso_check(A, A, x).reason == "witness has nonzero cokernel"
    proj = ModuleMap(A, kx, [[1]])
    assert iso_check(A, kx, proj).reason == "witness has nonzero kernel"
    # a witness given between equal presentations is rebuilt on M and N
    verdict = iso_check(kx, FPModule.cyclic(QQxy, ["x"]), identity_map(kx))
    assert verdict and verdict.witness.source is kx


def test_small_module_helpers(ZZ, QQxy):
    from lodua.modules import _same_presentation
    Z2 = FPModule.free(ZZ, 2)
    can, fwd, _ = Z2.canonical_presentation()
    assert can is Z2 and fwd.equals(identity_map(Z2))
    hm = HomModule(Z2, FPModule.free(ZZ, 1))
    assert hm.interp(hm.module.gen(1)).matrix == [[ZZ.zero(), ZZ.one()]]
    bad = ModuleMap(FPModule.free(ZZ, 1), zmod(ZZ, 3), [[1]])
    assert HomModule(zmod(ZZ, 4), zmod(ZZ, 3)).coords(bad) is None
    assert identity_map(Z2).factor_through(
        ModuleMap(Z2, Z2, [[2, 0], [0, 1]])) is None
    assert tensor(Z2, Z2).ngens == 4
    assert not _same_presentation(FPModule.free(QQxy, 1),
                                  FPModule.free(QQxy, 2))


def test_kernel_of_a_map_out_of_zero_asks_no_syzygies(QQxy, monkeypatch):
    # a source without generators is its own kernel, the zero submodule
    from lodua import linalg, modules
    from lodua.modules import zero_map

    def refused(*args):
        raise AssertionError("syzygies asked")

    monkeypatch.setattr(linalg, "syzygies", refused)
    monkeypatch.setattr(modules, "syzygies", refused)
    zero = FPModule.zero(QQxy)
    K, incl = zero_map(zero, FPModule.cyclic(QQxy, ["x", "y^2"])).kernel()
    assert (K.ngens, K.relations) == (0, [])
    assert (incl.source, incl.target) == (K, zero)
