import random
import re
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodua import (FPModule, ModuleMap, UnsupportedRing, linalg, make_ring,
                   smith_normal_form)
from lodua.linalg import (invariant_factors, lift_through, mat_mul, mat_vec,
                          syzygies)
from lodua.poly import Poly
from lodua.ring import _ElementArith, _IntArith


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


@pytest.mark.parametrize("spec", [
    {"base": "Q"}, {"base": "Fp", "p": 7}, {"base": "Z", "invert": "10"},
    {"base": "Z", "invert": "2", "completion": {"ideal": ["5"],
                                                "precision": 6}}],
    ids=["Q", "F_7", "Z[1/10]", "Z_5[1/2]"])
def test_smith_transforms_and_their_solved_inverses(spec):
    # the fields' record and both u^-1 Z and Z_p[1/u] off the precision
    # seam; Z, Z_p and Q[t] are checked above
    R = make_ring(spec)
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        check_smith(R, [[R.el(rng.randint(-30, 30),
                              rng.randint(0, 2) if R.inverted else 0)
                         for _ in range(m)] for _ in range(n)])


def test_the_precision_seam_refuses_a_pivot_it_cannot_normalize():
    """Over Z_5[1/5] at precision 6 the inverse of a pivot's unit part can
    come out as 0 (the precision seam of Z_p[1/u] when p | u, ROADMAP item
    1).  The Smith loop refuses it; without the check the pivot vanishes
    and the module answers free rank 1.  Over Q_5 the relations have rank
    3 (columns 3, 4 and 1 have the triangular minor (3/5)(4/25)*1), so
    once the seam is mended the expected answer is rank 3: free rank 0,
    and the module is zero."""
    R = make_ring({"base": "Z", "invert": "5", "completion": {
        "ideal": ["5"], "precision": 6}})
    rows = [[(15615, 0), (0, 0), (3, 1), (21, 1)],
            [(15613, 2), (4, 0), (0, 0), (4, 2)],
            [(1, 0), (4, 2), (0, 0), (0, 0)]]
    cols = [tuple(R.el(*row[j]) for row in rows) for j in range(4)]
    text = "^" + re.escape(
        "0 is not a unit in ZZ[(5)^-1] completed at (5) to precision 6") + "$"
    with pytest.raises(ZeroDivisionError, match=text):
        invariant_factors(R, cols, 3)
    with pytest.raises(ZeroDivisionError, match=text):
        FPModule(R, 3, cols).is_zero()
    with pytest.raises(ZeroDivisionError, match=text):   # and the record
        R.euclid.inv(R.zero())


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
# Over Z and Z_p the Smith loop runs on plain ints; the same loop run on
# RingElements, each rule asked of the ring's element API (Ring.divmod_el,
# Ring.unit_part, RingElement.is_unit and inv), must make exactly the same
# choices, so every transform and every answer agrees.

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


class _ElementReference(_ElementArith):
    """The Smith loop's record on RingElements of Z or Z_p: the reference
    the integer record is compared against."""

    __slots__ = ()

    def size(self, a):
        ints = self.ring.int_arith
        return ints.size(ints.from_el(a))

    def is_unit(self, a):
        return a.is_unit()

    def divmod(self, a, b):
        return self.ring.divmod_el(a, b)

    def unit(self, d):
        return self.ring.unit_part(d)

    def inv(self, u):
        return u.inv()


def _both_arithmetics(ring):
    return _IntArith(ring), _ElementReference(ring)


def _as_elements(ar, X):
    return [[ar.to_el(a) for a in row] for row in X]


@settings(max_examples=150)
@given(_int_matrices())
def test_integer_and_element_arithmetic_agree(case):
    from lodua.linalg import (_invariant_factors, _lift_euclidean, _rows,
                              _smith, _syz_euclidean)
    ring, A, target = case
    ints, els = _both_arithmetics(ring)
    E = as_mat(ring, A)
    got = _smith(ints, [[ints.from_el(e) for e in row] for row in E])
    want = _smith(els, [list(row) for row in E])
    for X, Y in zip(got, want):
        assert _as_elements(ints, X) == Y
    assert tuple(smith_normal_form(ring, E)[:3]) == want
    check_smith(ring, E)   # and the inverses solved from U and V

    n, m = len(A), len(A[0])
    cols = [tuple(E[i][j] for i in range(n)) for j in range(m)]
    tgt = tuple(ring.el(t) for t in target)
    # each answer read off each arithmetic's own Smith form of the columns
    f_int = _smith(ints, _rows(ints, cols, n))
    f_el = _smith(els, _rows(els, cols, n))
    b_int, b_el = [ints.from_el(t) for t in tgt], list(tgt)
    assert _syz_euclidean(ints, f_int, m) == _syz_euclidean(els, f_el, m)
    assert _lift_euclidean(ints, f_int, b_int) == _lift_euclidean(els, f_el, b_el)
    assert _invariant_factors(ints, f_int[1]) == _invariant_factors(els, f_el[1])
    assert syzygies(ring, cols, n) == _syz_euclidean(els, f_el, m)
    if any(not t.is_zero() for t in tgt):  # a zero target lifts to zero
        assert lift_through(ring, cols, tgt, n) == _lift_euclidean(els, f_el, b_el)
    assert invariant_factors(ring, cols, n) == _invariant_factors(els, f_el[1])


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


def test_zero_divided_in_zp_is_zero():
    # 0 = 5 * 5^19 mod 5^20, but the quotient of zero is zero, not 5^19
    for N, ring in _Z5.items():
        ints, _ = _both_arithmetics(ring)
        assert ints.divmod(0, 5) == (0, 0)
        assert ints.divmod(0, 1) == (0, 0)
        assert ring.divmod_el(0, 5) == (ring.zero(), ring.zero())
        assert ring.divmod_el(0, 1) == (ring.zero(), ring.zero())


# -- Smith forms against the determinantal divisors ----------------------------
#
# An independent oracle: for an integer matrix, d_1 ... d_k is the gcd of its
# k x k minors over Z and has the least p-adic valuation of those minors over
# Z_p, so the invariant factors follow from the minors alone.  At precision N
# an invariant factor of valuation a is p^a when a < N and zero otherwise.


def _det(M):
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in M[1:]])
               for j in range(len(M)))


def _minors(A, k):
    return [_det([[A[i][j] for j in cols] for i in rows])
            for rows in combinations(range(len(A)), k)
            for cols in combinations(range(len(A[0])), k)]


def _valuation(a, p):
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _oracle_diagonal(ring, A):
    """The diagonal of the Smith form of A over ring, as ints, from the
    determinantal divisors of A."""
    out, prev = [], 1
    if ring.is_completed:
        p, N = 5, ring.precision
        prev = 0
        for k in range(1, min(len(A), len(A[0])) + 1):
            vals = [_valuation(x, p) for x in _minors(A, k) if x]
            if not vals:
                break
            delta = min(vals)
            a, prev = delta - prev, delta
            out.append(p ** a if a < N else 0)
    else:
        for k in range(1, min(len(A), len(A[0])) + 1):
            g = gcd(*_minors(A, k))
            if g == 0:
                break
            out.append(g // prev)
            prev = g
    return out + [0] * (min(len(A), len(A[0])) - len(out))


@settings(max_examples=150)
@given(_int_matrices(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_smith_matches_determinantal_divisors(case, xs):
    ring, A, target = case
    n, m = len(A), len(A[0])
    E = as_mat(ring, A)
    D = check_smith(ring, E)
    want = _oracle_diagonal(ring, A)
    assert [D[i][i] for i in range(min(n, m))] == [ring.el(d) for d in want]

    rank = sum(1 for d in want if d)
    cols = [tuple(E[i][j] for i in range(n)) for j in range(m)]
    syz = syzygies(ring, cols, n)
    assert len(syz) == m - rank
    for s in syz:
        assert all(e.is_zero() for e in mat_vec(ring, E, s))
    in_span = [sum(a * c for a, c in zip(row, xs)) for row in A]
    for b, spanned in ((in_span, True), (target, False)):
        tgt = tuple(ring.el(t) for t in b)
        x = lift_through(ring, cols, tgt, n)
        assert x is not None or not spanned
        if x is not None:
            assert mat_vec(ring, E, x) == tgt


# -- the span of a column set against a direct Groebner basis ------------------
#
# Over polynomial rings syzygies, lift_through and member reach the Groebner
# engine through one memoized span per (ring, nrows, columns).  The reference
# builds the basis of the columns followed by the modulus relations in every
# coordinate directly and reads the answers off it.


def _span_rings():
    rings = []
    for base in ({"base": "Q"}, {"base": "Fp", "p": 7}):
        spec = {**base, "vars": ["x", "y"]}
        rings.append(make_ring(spec))
        rings.append(make_ring({**spec, "completion": {
            "ideal": ["x", "y"], "precision": 3}}))
        rings.append(make_ring({**spec, "completion": {
            "ideal": ["x + y", "x*y"], "precision": 2}}))
    return rings


_SPAN_RINGS = _span_rings()
_MONOS = ["0", "1", "x", "y", "x^2", "x*y", "y^2", "x - 2*y", "3*x*y + y^3"]


def _reference(ring, cols, target, nrows):
    """(syzygy heads, lift, membership of target and of e_0) from a direct
    GBasis."""
    from lodua.groebner import GBasis
    zero = Poly.zero(ring.dom, ring.nvars)
    gens = [tuple(e.num for e in col) for col in cols]
    for m in ring.modulus:
        for i in range(nrows):
            vec = [zero] * nrows
            vec[i] = m
            gens.append(tuple(vec))
    gb = GBasis(gens, nrows)
    c, syz, seen = len(cols), [], set()
    for s in gb.syzygies():
        head = tuple(ring.el(p) for p in s[:c])
        key = tuple(e.num for e in head)
        if not all(e.is_zero() for e in head) and key not in seen:
            seen.add(key)
            syz.append(head)
    t = tuple(e.num for e in target)
    cof = gb.lift(t)
    lift = None if cof is None else tuple(ring.el(p) for p in cof[:c])
    untracked = GBasis(gens, nrows, track=False)
    return syz, lift, [untracked.contains(tuple(e.num for e in v))
                       for v in (target, _unit_vector(ring, nrows))]


def _unit_vector(ring, nrows):
    return (ring.one(),) + (ring.zero(),) * (nrows - 1)


@st.composite
def _span_cases(draw):
    ring = draw(st.sampled_from(_SPAN_RINGS))
    nrows, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entry = st.builds(ring.el, st.sampled_from(_MONOS))
    cols = [tuple(draw(entry) for _ in range(nrows)) for _ in range(c)]
    if draw(st.booleans()):  # a target in the column span
        x = [draw(entry) for _ in range(c)]
        target = tuple(sum((x[j] * cols[j][i] for j in range(c)), ring.zero())
                       for i in range(nrows))
    else:
        target = tuple(draw(entry) for _ in range(nrows))
    return ring, cols, target, nrows


def _answers(ring, cols, target, nrows, order):
    out = {}
    for op in order:
        if op == "syz":
            out[op] = syzygies(ring, cols, nrows)
        elif op == "lift":
            out[op] = lift_through(ring, cols, target, nrows)
        else:
            out[op] = [linalg.member(ring, cols, v, nrows)
                       for v in (target, _unit_vector(ring, nrows))]
    return out["syz"], out["lift"], out["member"]


def _span_of(ring, cols, nrows):
    return linalg._span(ring, nrows, tuple(tuple(e.num for e in col)
                                           for col in cols))


def _evict_all(ring):
    """Look up as many other spans as the table holds (none builds a basis)."""
    for k in range(linalg._SPAN_LIMIT):
        x_k = Poly(ring.dom, ring.nvars, {(k + 9, 0): 1})
        linalg._span(ring, 1, ((x_k,),))


@settings(max_examples=80)
@given(_span_cases(), st.permutations(["syz", "lift", "member"]))
def test_span_answers_match_a_direct_basis(case, order):
    ring, cols, target, nrows = case
    want = _reference(ring, cols, target, nrows)
    linalg._span.cache_clear()
    assert _answers(ring, cols, target, nrows, order) == want       # cold
    span = _span_of(ring, cols, nrows)
    fresh = [tuple(ring.el(e.render()) for e in col) for col in cols]
    assert _answers(ring, fresh, target, nrows, order) == want      # warm
    assert _span_of(ring, fresh, nrows) is span
    _evict_all(ring)
    assert _span_of(ring, cols, nrows) is not span
    assert _answers(ring, cols, target, nrows, order[::-1]) == want  # evicted


def test_span_table_is_bounded():
    ring = _SPAN_RINGS[0]
    linalg._span.cache_clear()
    _evict_all(ring)
    _evict_all(ring)
    assert linalg._span.cache_info().currsize == linalg._SPAN_LIMIT


def test_memoized_span_answers_pass_the_budget(QQxy):
    """Syzygy heads and membership answers kept by a span are refused under
    a budget that its basis exceeds, as a new query on it would be."""
    import lodua
    from lodua.errors import BudgetExceeded
    cols = [(QQxy.el("x^2 - y"),), (QQxy.el("y^2 - x"),)]
    target = (QQxy.el("x^3 - x*y"),)
    linalg._span.cache_clear()
    syz = syzygies(QQxy, cols, 1)
    assert linalg.member(QQxy, cols, target, 1)
    with lodua.settings(budget=1):
        for ask in (lambda: syzygies(QQxy, cols, 1),
                    lambda: linalg.member(QQxy, cols, target, 1),
                    lambda: lift_through(QQxy, cols, target, 1)):
            with pytest.raises(BudgetExceeded):
                ask()
    assert syzygies(QQxy, cols, 1) == syz


def test_span_lookup_and_syzygies_skip_the_modulus(monkeypatch):
    # over Q[[x,y]] at N = 8 the modulus is the 9 monomials of degree 8: a
    # lookup compares or hashes none of them, and the syzygy rows are cut to
    # the columns before any Poly is built for a modulus coordinate
    from lodua.groebner import GBasis
    R = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x", "y"], "precision": 8}})
    col = lambda: [(R.el("x^3 + y^2"), R.el("x*y")), (R.el("y^5"), R.el("x^2"))]
    widths = []
    polys = GBasis._polys
    monkeypatch.setattr(GBasis, "_polys", lambda self, v, n: (
        widths.append(n), polys(self, v, n))[1])
    linalg._span.cache_clear()
    syz = syzygies(R, col(), 2)
    assert syz and set(widths) == {2}

    touched = []
    eq, hash_ = Poly.__eq__, Poly.__hash__
    monkeypatch.setattr(Poly, "__eq__", lambda a, b: (
        touched.append(a), touched.append(b), eq(a, b))[2])
    monkeypatch.setattr(Poly, "__hash__", lambda a: (
        touched.append(a), hash_(a))[1])
    assert syzygies(R, col(), 2) == syz
    modulus = {id(m) for m in R.modulus}
    modulus |= {id(e) for v in R.modulus_vectors(2) for e in v}
    assert touched and not any(id(p) in modulus for p in touched)


# -- syzygy heads at a caller's width against the full extraction -------------
#
# ``syzygies(..., width=w)`` converts only what a caller reads.  The reference
# is the extraction that converted every row in full: the basis's rows,
# repeats included, each made into ring elements and kept when its canonical
# form is new; over the euclidean rings the columns of V past the diagonal,
# and over u^-1 A its model's rows read back.


def _syzygy_rings():
    qxy = {"base": "Q", "vars": ["x", "y"]}
    return [make_ring(qxy), make_ring({**qxy, "base": "Fp", "p": 7}),
            make_ring({**qxy, "completion": {"ideal": ["x", "y"],
                                             "precision": 3}}),
            make_ring({**qxy, "quotient": ["x^3 - y^2"]}),
            make_ring({**qxy, "completion": {"ideal": ["x + y", "x*y"],
                                             "precision": 2}}),
            make_ring({**qxy, "invert": "x"}),
            make_ring({"base": "Z"}),
            make_ring({"base": "Z", "completion": {"ideal": ["5"],
                                                   "precision": 6}})]


_SYZYGY_RINGS = _syzygy_rings()
_INTS = ["0", "1", "2", "-3", "5", "6", "10", "25", "-50"]


def _reference_syzygies(ring, cols, nrows):
    """The distinct syzygies of cols in full, by the extraction that
    converted every row of the basis, repeats included."""
    from lodua.groebner import _sub_shifted
    span = linalg._span_of(ring, cols, nrows)
    if ring.nvars == 0:
        return linalg._syz_euclidean(*span.smith(), len(cols))
    if ring.inverted is not None:
        model = span.model
        return [span._from_model(s) for s in _reference_syzygies(
            model.ring, model.columns(), nrows)]
    gb = span.basis()
    rows = [gb._polys(s, gb.track) for s in gb._syz]
    one, zero = gb.dom.normalize(1), (0,) * gb.nvars
    for j, g in enumerate(gb.gens):
        row = gb._lift_flat(g, gb.within_budget())
        assert row is not None
        if j < gb.track:
            _sub_shifted(row, {gb._keys.key(j, zero): one}, 0, -1,
                         gb._p, gb._keys)
        if row:
            rows.append(gb._polys(row, gb.track))
    el, zero, vec_key = ring.el, ring.zero(), ring.vec_key
    heads = {}
    for s in rows:
        head = tuple([el(p) if p.terms else zero for p in s])
        heads.setdefault(vec_key(head), head)
    heads.pop(vec_key((zero,) * len(cols)), None)
    return list(heads.values())


@st.composite
def _syzygy_cases(draw):
    ring = draw(st.sampled_from(_SYZYGY_RINGS))
    nrows, c = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    if ring.nvars == 0:
        entry = st.builds(ring.el, st.sampled_from(_INTS))
    elif ring.inverted is not None:   # a/x^d
        entry = st.builds(lambda a, d: ring.el(ring.el(a).num, d),
                          st.sampled_from(_MONOS), st.integers(0, 1))
    else:
        entry = st.builds(ring.el, st.sampled_from(_MONOS))
    cols = [tuple(draw(entry) for _ in range(nrows)) for _ in range(c)]
    if c > 1 and draw(st.booleans()):   # a repeated column: shared heads
        cols.append(cols[0])
    return ring, cols, nrows


@settings(max_examples=120)
@given(_syzygy_cases())
def test_syzygy_heads_are_the_full_extraction_cut_to_the_width(case):
    ring, cols, nrows = case
    linalg._span.cache_clear()
    want = _reference_syzygies(ring, cols, nrows)
    key = ring.vec_key
    full = syzygies(ring, cols, nrows)
    assert [key(s) for s in full] == [key(s) for s in want]
    for w in range(1, len(cols) + 1):
        heads = [s[:w] for s in want if not all(e.is_zero() for e in s[:w])]
        for _ in range(2):   # built, then kept by the span
            got = syzygies(ring, cols, nrows, width=w)
            assert [key(h) for h in got] == [key(h) for h in heads]


def test_a_kernel_keeps_a_head_that_two_syzygies_share(QQxy):
    """Distinct syzygies with one head give the kernel that head twice."""
    R = QQxy
    i = [R.el("x + y"), R.el("x*y")]
    z, one = R.zero(), R.one()
    src = FPModule(R, 2, [(a, z) for a in i] + [(z, a) for a in i])
    rels = []
    for k in (0, 2):
        for coord in (k, k + 1):
            for a in i:
                rels.append(tuple(a if r == coord else z for r in range(4)))
    rels += [(one, one, z, z), (z, z, one, one)]
    tgt = FPModule(R, 4, rels)
    f = ModuleMap(src, tgt, [[one, z], [z, one], [z, one], [one, z]])
    K, incl = f.kernel()
    gens = [tuple(e.render() for e in incl.col(j)) for j in range(K.ngens)]
    assert K.ngens == 7
    assert gens.count(("0", "-x - y")) == gens.count(("0", "-x*y")) == 2


def test_concurrent_callers_get_identical_answers():
    # four threads run one op list that looks up more spans than the table
    # holds, with thread switches every microsecond, so lookups race with
    # evictions and with spans filling their memos
    import json

    from lodua import cli
    doc = {"version": "1", "ring": {"base": "Q", "vars": ["x", "y"]},
           "ideal": ["x", "y"],
           "modules": {"M": {"generators": 2, "relations": [
               ["x", "y"], ["y^2", "0"], ["x*y", "x^2"]]},
               "N": {"generators": 1, "relations": [["x^2"], ["x*y"]]}}}
    ops = [("tor", {"M": "M", "N": "N", "s": s}) for s in (0, 1, 2)]
    ops += [("ext", {"M": "N", "N": "M", "s": s}) for s in (0, 1)]
    ops += [("localcoh", {"target": "N", "s": 0}), ("resolve", {})]
    # two more spans than the table holds, asked in turn: a hit is often on
    # the span that the next miss evicts
    R = make_ring(doc["ring"])
    sweep = [[(R.el(f"x^{k}"),), (R.el(f"x^{k} + y"),)]
             for k in range(1, linalg._SPAN_LIMIT + 3)]

    def bodies():
        out = [json.dumps(cli.run(doc, verb, args), sort_keys=True)
               for verb, args in ops]
        out += [repr(syzygies(R, cols, 1)) for cols in sweep]
        out += [linalg.member(R, cols, (R.el("y"),), 1)
                for _ in range(5) for cols in sweep]
        return out

    _assert_threads_agree(bodies)


def _assert_threads_agree(bodies):
    """Run bodies() once, then in four threads with thread switches every
    microsecond; each thread must get the single-thread answers."""
    import sys
    import threading

    want = bodies()
    got, errors = [], []

    def worker():
        try:
            got.append(bodies())
        except Exception as ex:  # any exception fails the test below
            errors.append(ex)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == [want] * 4


def test_concurrent_euclidean_callers_get_identical_answers():
    # the euclidean sibling: an op list over Z and Z_5, then two more
    # integer column sets than the span table holds, asked in turn, so that
    # lookups race with evictions and with spans storing their Smith forms
    import json

    from lodua import cli
    doc = {"version": "1", "ring": {"base": "Z"}, "ideal": ["5"],
           "modules": {"M": {"generators": 2, "relations": [["0", "25"]]},
                       "N": {"generators": 2, "relations": [
                           ["5", "0"], ["0", "125"]]}}}
    z5 = dict(doc, ring={"base": "Z", "completion": {
        "ideal": ["5"], "precision": 20}})
    ops = [(d, verb, args) for d in (doc, z5) for verb, args in (
        ("tor", {"M": "M", "N": "N", "s": 1}),
        ("ext", {"M": "N", "N": "M", "s": 1}),
        ("localhom", {"target": "M", "s": 1}),
        ("localcoh", {"target": "N", "s": 0}))]
    Z = make_ring(doc["ring"])
    sweep = [[(Z.el(k), Z.el(2 * k)), (Z.el(k + 1), Z.el(3))]
             for k in range(1, linalg._SPAN_LIMIT + 3)]
    e0, v = (Z.el(1), Z.el(0)), (Z.el(5), Z.el(1))

    def bodies():
        out = [json.dumps(cli.run(d, verb, args), sort_keys=True)
               for d, verb, args in ops]
        out += [repr(syzygies(Z, cols, 2)) for cols in sweep]
        out += [repr(lift_through(Z, cols, e0, 2)) for cols in sweep]
        out += [linalg.member(Z, cols, v, 2)
                for _ in range(3) for cols in sweep]
        out += [repr(invariant_factors(Z, cols, 2)) for cols in sweep]
        return out

    _assert_threads_agree(bodies)


# -- one Smith form per span over the euclidean rings ---------------------------
#
# Over Z, Z_p, fields and u^-1 Z the span of a column set keeps the Smith form
# of its columns; syzygies, lifts, membership and invariant factors read it.

_Q = make_ring({"base": "Q"})
_Z6 = make_ring({"base": "Z", "invert": "6"})


@st.composite
def _euclidean_cases(draw):
    """(ring, columns, target, nrows) over Z, Z_5 (N = 20), Q or Z[1/6]."""
    from fractions import Fraction
    ring = draw(st.sampled_from([_Z, _Z5[20], _Q, _Z6]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if ring is _Z5[20]:
        entry = st.builds(lambda u, v: ring.el(u * 5 ** v), st.integers(-4, 4),
                          st.integers(0, 3))
    elif ring is _Q:
        entry = st.builds(lambda a, b: ring.el(Fraction(a, b)),
                          st.integers(-6, 6), st.integers(1, 4))
    elif ring is _Z6:
        entry = st.builds(ring.el, st.integers(-9, 9), st.integers(0, 2))
    else:
        entry = st.builds(ring.el, st.integers(-9, 9))
    cols = [tuple(draw(entry) for _ in range(n)) for _ in range(m)]
    if draw(st.booleans()):  # a target in the column span
        x = [draw(entry) for _ in range(m)]
        target = tuple(sum((x[j] * cols[j][i] for j in range(m)), ring.zero())
                       for i in range(n))
    else:
        target = tuple(draw(entry) for _ in range(n))
    return ring, cols, target, n


def _euclidean_answers(ring, cols, target, nrows, order):
    ask = {"syz": lambda: syzygies(ring, cols, nrows),
           "lift": lambda: lift_through(ring, cols, target, nrows),
           "member": lambda: linalg.member(ring, cols, target, nrows),
           "factors": lambda: invariant_factors(ring, cols, nrows)}
    got = {op: ask[op]() for op in order}
    return tuple(got[op] for op in ("syz", "lift", "member", "factors"))


def _combination(ring, cols, x, nrows):
    return tuple(sum((x[j] * cols[j][i] for j in range(len(cols))), ring.zero())
                 for i in range(nrows))


@settings(max_examples=150)
@given(_euclidean_cases(),
       st.permutations(["syz", "lift", "member", "factors"]))
def test_euclidean_span_answers_do_not_depend_on_history(case, order):
    ring, cols, target, nrows = case
    linalg._span.cache_clear()
    cold = _euclidean_answers(ring, cols, target, nrows, order)
    span = linalg._span_of(ring, cols, nrows)
    # equal columns built afresh reach the same span and its stored form
    fresh = [tuple(ring.el(e.num, e.dexp) for e in col) for col in cols]
    if ring is _Z5[20]:  # a negated difference is not reduced mod 5^20
        fresh = [tuple(-(ring.zero() - e) for e in col) for col in cols]
    assert linalg._span_of(ring, fresh, nrows) is span
    assert _euclidean_answers(ring, fresh, target, nrows, order[::-1]) == cold
    linalg._span.cache_clear()
    assert _euclidean_answers(ring, cols, target, nrows, order[::-1]) == cold

    syz, lift, member, (factors, rank) = cold
    zero = (ring.zero(),) * nrows
    for s in syz:
        assert _combination(ring, cols, s, nrows) == zero
    if lift is not None:
        assert _combination(ring, cols, lift, nrows) == target
    assert member == (lift is not None)
    assert rank + len(factors) <= nrows


def _int_doc():
    return {"version": "1", "ring": {"base": "Z"}, "ideal": ["5"],
            "modules": {"M": {"generators": 3, "relations": [
                ["5", "25", "0"], ["0", "5", "10"]]}},
            "descriptors": {"fpM": {"kind": "fp", "module": "M"}}}


def test_each_smith_form_is_computed_once(monkeypatch):
    # one gm-check and one lambda op over Z, each run twice on fresh
    # modules, compute the Smith form of each distinct column set once,
    # however often its span is asked
    from lodua import cli
    from lodua.modules import FPModule
    calls = []
    smith = linalg._smith

    def counted(ar, D):
        calls.append((ar.ring, tuple(map(tuple, D))))
        return smith(ar, D)

    monkeypatch.setattr(linalg, "_smith", counted)
    asked = []
    span_smith = linalg._Span.smith
    monkeypatch.setattr(linalg._Span, "smith",
                        lambda self: (asked.append(self), span_smith(self))[1])
    for verb, args in (("gm-check", {"target": "fpM", "s": 0}),
                       ("lambda", {"target": "M"})):
        linalg._span.cache_clear()
        calls.clear()
        asked.clear()
        for _ in range(2):   # the second run asks the span table again
            cli._parsed.cache_clear()   # its modules keep their spans
            cli.run(_int_doc(), verb, args)
        assert len(set(calls)) == len(calls) > 0
        assert len(asked) > len(calls)   # the other questions were hits

    # the decomposition, membership, map checks and the canonical
    # presentation of one module share one elimination of the relations;
    # the canonical presentation adds one each to solve U^-1 and V^-1
    Z = _Z
    M = FPModule(Z, 2, [(Z.el(4), Z.el(6)), (Z.el(2), Z.el(8))])
    linalg._span.cache_clear()
    calls.clear()
    assert [str(f) for f in M.decomposition()[0]] == ["2", "10"]
    assert M.contains_in_relations((Z.el(6), Z.el(14)))
    assert not M.contains_in_relations((Z.el(1), Z.el(0)))
    relations = calls[0]
    can, fwd, bwd = M.canonical_presentation()
    assert len(calls) == 3 and calls.count(relations) == 1


def test_linear_algebra_corners(ZZ, QQxy, monkeypatch):
    from lodua.linalg import membership_test
    assert syzygies(ZZ, [], 1) == []
    assert lift_through(ZZ, [], (ZZ.el(1),), 1) is None
    # no rows: every vector is a syzygy
    assert syzygies(ZZ, [(), ()], 0) == [(ZZ.one(), ZZ.zero()),
                                         (ZZ.zero(), ZZ.one())]
    L = make_ring({"base": "Q", "vars": ["x", "y"], "invert": "x"})
    in_y = membership_test(L, [(L.el("y"),)], 1)
    assert in_y((L.el("x*y"),)) and not in_y((L.el("x"),))
    # a localized completed polynomial ring is refused when it is built
    with pytest.raises(UnsupportedRing, match="localized completed"):
        make_ring({"base": "Q", "vars": ["x"], "invert": "x",
                   "completion": {"ideal": ["x"], "precision": 3}})
    # a span keeps at most _MEMO_LIMIT membership answers
    monkeypatch.setattr(linalg, "_MEMO_LIMIT", 2)
    x, y = QQxy.el("x"), QQxy.el("y")
    in_x = membership_test(QQxy, [(x,)], 1)
    answers = [in_x((f,)) for f in (x * y, y, x * x, y * y)]
    assert answers == [True, False, True, False]
    span = linalg._span_of(QQxy, [(x,)], 1)
    assert len(span._member) <= 2
