import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodua import UnsupportedRing, make_ring, smith_normal_form
from lodua.linalg import (invariant_factors, lift_through, mat_mul, mat_vec,
                          syzygies)


def as_mat(ring, rows):
    return [[ring.el(e) for e in row] for row in rows]


def check_smith(ring, A):
    U, D, V, Uinv, Vinv = smith_normal_form(ring, A)
    n, m = len(A), len(A[0])
    UAV = mat_mul(ring, mat_mul(ring, U, A), V)
    for i in range(n):
        for j in range(m):
            assert UAV[i][j] == D[i][j]
            if i != j:
                assert D[i][j].is_zero()
    for i in range(min(n, m) - 1):
        a, b = D[i][i], D[i + 1][i + 1]
        if not a.is_zero() and not b.is_zero():
            _, r = ring.divmod_el(b, a)
            assert r.is_zero()
    for M, Minv, size in ((U, Uinv, n), (V, Vinv, m)):
        I = mat_mul(ring, M, Minv)
        for i in range(size):
            for j in range(size):
                assert I[i][j] == (ring.one() if i == j else ring.zero())
    return D


def test_smith_spec_example(ZZ):
    # gcd of entries is 2; gcd of the 2x2 minors is 16-24 = -8; 8/2 = 4
    D = check_smith(ZZ, as_mat(ZZ, [[2, 4], [6, 8]]))
    assert D[0][0] == ZZ.el(2) and D[1][1] == ZZ.el(4)


def test_smith_identity_and_zero(ZZ):
    D = check_smith(ZZ, as_mat(ZZ, [[1, 0], [0, 1]]))
    assert D[0][0] == ZZ.el(1) and D[1][1] == ZZ.el(1)
    D = check_smith(ZZ, as_mat(ZZ, [[0]]))
    assert D[0][0].is_zero()


def test_smith_random_integer_matrices(ZZ):
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = [[ZZ.el(rng.randint(-9, 9)) for _ in range(m)] for _ in range(n)]
        check_smith(ZZ, A)


def test_smith_univariate_polynomials():
    R = make_ring({"base": "Q", "vars": ["t"]})
    A = as_mat(R, [["t", "t^2"], ["0", "t - 1"]])
    D = check_smith(R, A)
    assert not D[0][0].is_zero()


def test_smith_rejects_multivariate(QQxy):
    with pytest.raises(UnsupportedRing):
        smith_normal_form(QQxy, as_mat(QQxy, [["x", "y"]]))


def test_smith_completed_z(Z5hat):
    # diag entries become powers of 5 at the stated precision
    A = as_mat(Z5hat, [[10, 5], [25, 50]])
    D = check_smith(Z5hat, A)
    assert D[0][0] == Z5hat.el(5)


def test_syzygies_and_lift_over_z(ZZ):
    cols = [(ZZ.el(2),), (ZZ.el(4),)]
    syz = syzygies(ZZ, cols, 1)
    assert len(syz) == 1
    a, b = syz[0]
    assert (ZZ.el(2) * a + ZZ.el(4) * b).is_zero()
    lift = lift_through(ZZ, cols, (ZZ.el(6),), 1)
    assert (ZZ.el(2) * lift[0] + ZZ.el(4) * lift[1]) == ZZ.el(6)
    assert lift_through(ZZ, cols, (ZZ.el(3),), 1) is None


def test_koszul_syzygy_over_polynomials(QQxy):
    syz = syzygies(QQxy, [(QQxy.el("x"),), (QQxy.el("y"),)], 1)
    assert len(syz) == 1
    a, b = syz[0]
    assert (QQxy.el("x") * a + QQxy.el("y") * b).is_zero()


def test_lift_in_quotient_ring():
    Q = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y"]})
    lift = lift_through(Q, [(Q.el("x*y"),)], (Q.el("x^3"),), 1)
    assert lift is not None
    assert (Q.el("x*y") * lift[0]) == Q.el("x^3")


def test_lift_needs_denominators_in_localization():
    Zl = make_ring({"base": "Z", "invert": "5"})
    lift = lift_through(Zl, [(Zl.el(5),)], (Zl.el(1),), 1)
    assert lift is not None and (Zl.el(5) * lift[0]) == Zl.el(1)


def test_rabinowitsch_localized_polynomials():
    Qx = make_ring({"base": "Q", "vars": ["x", "y"], "invert": "x"})
    lift = lift_through(Qx, [(Qx.el("x"),)], (Qx.el(1),), 1)
    assert lift is not None and (Qx.el("x") * lift[0]) == Qx.el(1)
    syz = syzygies(Qx, [(Qx.el("x"),), (Qx.el("y"),)], 1)
    for s in syz:
        assert (Qx.el("x") * s[0] + Qx.el("y") * s[1]).is_zero()


def test_dvr_kernels_are_domain_kernels(Z5hat):
    # over Z_5 a nonzero scalar has no kernel, unlike Z/5^N
    assert syzygies(Z5hat, [(Z5hat.el(25),)], 1) == []


def test_zero_entry_lifts_to_zero_over_zp(Z5hat):
    # a zero entry of U*b over the diagonal entry 5 gives 0, not 5^19 * u^-1
    cols = [(Z5hat.el(5), Z5hat.el(0)), (Z5hat.el(0), Z5hat.el(5))]
    assert lift_through(Z5hat, cols, (Z5hat.el(5), Z5hat.el(0)), 2) == \
        (Z5hat.el(1), Z5hat.el(0))


def test_invariant_factors(ZZ):
    cols = [(ZZ.el(4), ZZ.el(0)), (ZZ.el(0), ZZ.el(6))]
    factors, rank = invariant_factors(ZZ, cols, 2)
    assert [str(f) for f in factors] == ["2", "12"]
    assert rank == 0


# -- the integer arithmetic against the RingElement arithmetic -----------------
#
# Over Z and Z_p the Smith loop runs on plain ints; the RingElement
# arithmetic, which goes through Ring.divmod_el and Ring.euclidean_size, must
# make exactly the same choices, so every transform and every answer agrees.

_Z = make_ring({"base": "Z"})
_Z5 = {N: make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": N}})
       for N in (2, 20)}


@st.composite
def _int_matrices(draw):
    """(ring, n x m matrix of ints, target column of ints).

    Over Z: entries in -9..9, so negative entries and halfway remainders
    (2r = |b|) are common.  Over Z_5: unit * 5^v, and at precision 2 the
    entries with v >= 2 vanish.
    """
    ring = draw(st.sampled_from([_Z, _Z5[20], _Z5[2]]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if ring is _Z:
        entry = st.integers(-9, 9)
    else:
        entry = st.builds(lambda u, v: u * 5 ** v, st.integers(-4, 4),
                          st.integers(0, 3))
    A = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                      min_size=n, max_size=n))
    if draw(st.booleans()):  # a target in the column span
        x = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        target = [sum(a * c for a, c in zip(row, x)) for row in A]
    else:
        target = draw(st.lists(entry, min_size=n, max_size=n))
    return ring, A, target


def _both_arithmetics(ring):
    from lodua.linalg import _ElArith, _IntArith
    return _IntArith(ring), _ElArith(ring)


def _as_elements(ar, X):
    return [[ar.to_el(a) for a in row] for row in X]


@settings(max_examples=150)
@given(_int_matrices())
def test_integer_and_element_arithmetic_agree(case):
    from lodua.linalg import (_invariant_factors, _lift_euclidean, _smith,
                              _syz_euclidean)
    ring, A, target = case
    ints, els = _both_arithmetics(ring)
    E = as_mat(ring, A)
    got = _smith(ints, [[ints.from_el(e) for e in row] for row in E])
    want = _smith(els, [list(row) for row in E])
    for X, Y in zip(got, want):
        assert _as_elements(ints, X) == Y
    assert tuple(smith_normal_form(ring, E)) == want
    check_smith(ring, E)

    n = len(A)
    cols = [tuple(E[i][j] for i in range(n)) for j in range(len(A[0]))]
    tgt = tuple(ring.el(t) for t in target)
    assert _syz_euclidean(ints, cols, n) == _syz_euclidean(els, cols, n)
    assert _lift_euclidean(ints, cols, tgt, n) == _lift_euclidean(els, cols, tgt, n)
    assert _invariant_factors(ints, cols, n) == _invariant_factors(els, cols, n)
    assert syzygies(ring, cols, n) == _syz_euclidean(els, cols, n)
    if any(not t.is_zero() for t in tgt):  # a zero target lifts to zero
        assert lift_through(ring, cols, tgt, n) == _lift_euclidean(els, cols, tgt, n)
    assert invariant_factors(ring, cols, n) == _invariant_factors(els, cols, n)


def test_integer_divmod_matches_ring_divmod():
    # a positive divisor moves a remainder above |b|/2 down by |b| and keeps
    # one at exactly |b|/2; a negative divisor keeps Python's remainder
    ints, _ = _both_arithmetics(_Z)
    cases = {(7, 4): (2, -1), (6, 4): (1, 2), (-6, 4): (-2, 2),
             (6, -4): (-2, -2), (-7, -4): (1, -3), (5, 2): (2, 1)}
    for (a, b), qr in cases.items():
        assert ints.divmod(a, b) == qr
        assert tuple(map(_Z.el, qr)) == _Z.divmod_el(_Z.el(a), _Z.el(b))
    z5, _ = _both_arithmetics(_Z5[2])
    # over Z_5 at precision 2: p^v * u divides p^w * t iff v <= w
    assert z5.divmod(10, 5) == (2, 0) and z5.divmod(5, 10) == (13, 0)
    assert z5.divmod(5, 3) == (10, 0) and z5.divmod(1, 5) == (0, 1)
