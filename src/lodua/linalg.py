"""Exact linear algebra over the supported rings.

Three primitives drive every module computation:

    syzygies(ring, cols, nrows)   -- generators of {x : sum x_j cols_j = 0}
    lift_through(ring, cols, target, nrows) -- x with sum x_j cols_j = target
    member(ring, cols, target, nrows)       -- whether such an x exists

plus Smith normal form with tracked transforms over euclidean rings.
Columns and vectors are tuples of RingElement.

Over euclidean rings all three come from the Smith form.  Its one
elimination loop runs on the values of a small arithmetic record (zero
test, size, divmod, multiply-add, unit part, inverse) with two instances:
plain Python ints over Z and over Z_p at precision N (every value reduced
mod p^N), converted back to RingElements only for what a caller returns;
and RingElements, through the ring's own divmod, over fields, u^-1 Z and
k[t].  Both pick the same pivots and divide the same way, so they give the
same transforms.  Over the other rings all three reach the Groebner engine
through one span per (ring, nrows, columns), kept in an LRU table of 128:
one basis of the columns and ``ring.modulus_vectors(nrows)``, its syzygy
heads (rows cut to the columns before any Poly is built) and its
membership answers.
"""

from functools import lru_cache

from .errors import UnsupportedRing
from .groebner import GBasis
from .poly import Poly, order_key
from .ring import _val_unit

# -- small matrix helpers (matrices are lists of rows) -------------------------


def mat_mul(ring, A, B):
    if not A or not B:
        return [[ring.zero() for _ in range(len(B[0]) if B else 0)] for _ in A]
    n, m, k = len(A), len(B[0]), len(B)
    zero = ring.zero()
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = zero
            for t in range(k):
                if not Ai[t].is_zero() and not B[t][j].is_zero():
                    acc = acc + Ai[t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(ring, A, v):
    return tuple(_mat_vec(_ElArith(ring), A, v))


def _mat_vec(ar, A, v):
    """A*v on the values of the arithmetic ar (see _IntArith, _ElArith)."""
    zero, is_zero, add_mul = ar.zero, ar.is_zero, ar.add_mul
    out = []
    for row in A:
        acc = zero
        for a, x in zip(row, v):
            if not is_zero(a) and not is_zero(x):
                acc = add_mul(acc, a, x)
        out.append(acc)
    return out


def cols_to_mat(ring, cols, nrows):
    return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]


def vec_is_zero(v):
    return all(e.is_zero() for e in v)


# -- Smith normal form over euclidean rings ------------------------------------


class _IntArith:
    """Z, or Z_p at precision N with every value reduced mod p^N."""

    zero, one = 0, 1

    def __init__(self, ring):
        self.ring = ring
        self.m = self.p = None
        if ring.is_completed:
            self.m = ring.int_modulus
            self.p = abs(int(ring.completion[0][0].constant()))

    def from_el(self, e):
        a = int(e.num.constant())
        return a % self.m if self.m else a

    def to_el(self, a):
        return self.ring.el(a)

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a % self.p != 0 if self.m else a in (1, -1)

    def size(self, a):
        if self.m:
            return _val_unit(a, self.p, self.m)[0] + 1
        return abs(a)

    def divmod(self, a, b):
        m, p = self.m, self.p
        if m:
            # a = p^va * ua and b = p^vb * ub: b divides a iff va >= vb
            va, ua = _val_unit(a, p, m)
            vb, ub = _val_unit(b, p, m)
            if va >= vb:
                return p ** (va - vb) * ua * pow(ub, -1, m) % m, 0
            return 0, a
        q, r = divmod(a, b)
        # prefer the remainder of smaller magnitude for faster descent
        if r != 0 and 2 * r > abs(b):
            q, r = q + 1, r - abs(b)
        return q, r

    def neg(self, a):
        return -a % self.m if self.m else -a

    def mul(self, a, b):
        return a * b % self.m if self.m else a * b

    def add_mul(self, a, c, b):
        return (a + c * b) % self.m if self.m else a + c * b

    def sub_mul(self, a, c, b):
        return (a - c * b) % self.m if self.m else a - c * b

    def unit(self, d):
        """u with d = u * canonical(d): the sign, or the part prime to p."""
        if self.m:
            return _val_unit(d, self.p, self.m)[1]
        return -1 if d < 0 else 1

    def inv(self, u):
        return pow(u, -1, self.m) if self.m else u


class _ElArith:
    """RingElements, through the ring's own euclidean division."""

    def __init__(self, ring):
        self.ring = ring
        self.zero, self.one = ring.zero(), ring.one()

    def from_el(self, e):
        return e

    def to_el(self, a):
        return a

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        return a.is_unit()

    def size(self, a):
        return self.ring.euclidean_size(a)

    def divmod(self, a, b):
        return self.ring.divmod_el(a, b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def add_mul(self, a, c, b):
        return a + c * b

    def sub_mul(self, a, c, b):
        return a - c * b

    def unit(self, d):
        """u with d = u * canonical(d)."""
        ring = self.ring
        kind = ring.classify()
        if kind == "int":
            return ring.el(-1) if int(d.num.constant()) < 0 else ring.one()
        if kind == "field":
            return d
        if kind == "int_completed":
            pgen = abs(int(ring.completion[0][0].constant()))
            return ring.el(_val_unit(int(d.num.constant()), pgen, ring.int_modulus)[1])
        if kind == "int_localized":
            return ring.strip_inverted(d)[1]
        # k[t]: the leading coefficient
        _, lc = d.num.leading(order_key("lex"))
        return ring.el(Poly.const(ring.dom, ring.nvars, lc))

    def inv(self, u):
        return u.inv()


def _arithmetic(ring):
    """Plain ints over Z and Z_p, RingElements over the other euclidean rings."""
    if not ring.is_euclidean:
        raise UnsupportedRing(f"Smith form needs a euclidean ring, not {ring}")
    if ring.classify() in ("int", "int_completed"):
        return _IntArith(ring)
    return _ElArith(ring)


def _rows(ar, cols, nrows):
    """The matrix with the given columns, as rows of the arithmetic's values."""
    return [[ar.from_el(col[i]) for col in cols] for i in range(nrows)]


def smith_normal_form(ring, A):
    """(U, D, V, Uinv, Vinv) with U*A*V = D, divisibility along the diagonal.

    Works over any ring exposing euclidean division (Z, fields, k[t], and
    completed Z at a prime, where it holds at the stated precision).
    """
    ar = _arithmetic(ring)
    out = _smith(ar, [[ar.from_el(e) for e in row] for row in A])
    return tuple([[ar.to_el(a) for a in row] for row in X] for X in out)


def _smith(ar, D):
    """Smith form of D (rows of ar's values, reduced in place) with transforms."""
    n = len(D)
    m = len(D[0]) if D else 0
    rank_bound = min(n, m)
    zero, one = ar.zero, ar.one
    is_zero, add_mul, sub_mul, mul = ar.is_zero, ar.add_mul, ar.sub_mul, ar.mul
    U = [[one if i == j else zero for j in range(n)] for i in range(n)]
    Uinv = [list(row) for row in U]
    V = [[one if i == j else zero for j in range(m)] for i in range(m)]
    Vinv = [list(row) for row in V]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_row(i, j, c):
        # row_i += c*row_j
        if is_zero(c):
            return
        D[i] = [add_mul(a, c, b) for a, b in zip(D[i], D[j])]
        U[i] = [add_mul(a, c, b) for a, b in zip(U[i], U[j])]
        for r in Uinv:
            r[j] = sub_mul(r[j], c, r[i])

    def add_col(i, j, c):
        # col_i += c*col_j
        if is_zero(c):
            return
        for r in D:
            r[i] = add_mul(r[i], c, r[j])
        for r in V:
            r[i] = add_mul(r[i], c, r[j])
        Vinv[j] = [sub_mul(a, c, b) for a, b in zip(Vinv[j], Vinv[i])]

    def eliminate(k):
        # clear rows and columns k.. around pivots of least euclidean size
        while k < rank_bound:
            pivot = None
            for i in range(k, n):
                for j in range(k, m):
                    if not is_zero(D[i][j]):
                        sz = ar.size(D[i][j])
                        if pivot is None or sz < pivot[0]:
                            pivot = (sz, i, j)
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            dirty = False
            for i in range(k + 1, n):
                if not is_zero(D[i][k]):
                    q, r = ar.divmod(D[i][k], D[k][k])
                    add_row(i, k, ar.neg(q))
                    dirty = dirty or not is_zero(r)
            for j in range(k + 1, m):
                if not is_zero(D[k][j]):
                    q, r = ar.divmod(D[k][j], D[k][k])
                    add_col(j, k, ar.neg(q))
                    dirty = dirty or not is_zero(r)
            if not dirty:  # else smaller remainders appeared: pick a new pivot
                k += 1

    eliminate(0)

    # enforce d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank_bound - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if is_zero(a) and not is_zero(b):
                swap_rows(i, i + 1)
                swap_cols(i, i + 1)
                changed = True
                continue
            if is_zero(a) or is_zero(b):
                continue
            if not is_zero(ar.divmod(b, a)[1]):
                add_col(i, i + 1, one)
                eliminate(i)
                changed = True

    # normalize units on the diagonal: row_i *= w, w the inverse unit part
    for i in range(rank_bound):
        d = D[i][i]
        if is_zero(d):
            continue
        u = ar.unit(d)
        if not (u == one):
            w = ar.inv(u)
            winv = ar.inv(w)
            D[i] = [mul(w, a) for a in D[i]]
            U[i] = [mul(w, a) for a in U[i]]
            for r in Uinv:
                r[i] = mul(r[i], winv)
    return U, D, V, Uinv, Vinv


# -- the three core primitives --------------------------------------------------

_EUCLIDEAN = ("int", "field", "int_completed", "int_localized")


def syzygies(ring, cols, nrows):
    """Generators of the kernel of A^c -> A^r, x -> sum x_j cols_j."""
    return _solve(ring, "syz", cols, None, nrows) if cols else []


def lift_through(ring, cols, target, nrows):
    """Coefficients x with sum x_j cols_j = target, or None."""
    if vec_is_zero(target):
        return tuple(ring.zero() for _ in cols)
    return _solve(ring, "lift", cols, target, nrows) if cols else None


def member(ring, cols, target, nrows):
    """Membership of target in the column span."""
    return membership_test(ring, cols, nrows)(target)


def membership_test(ring, cols, nrows):
    """Membership in the column span as a function of the target; over
    polynomial rings it holds the span, so a question costs no lookup, and
    the basis may be built untracked."""
    if not cols:
        return vec_is_zero
    kind = ring.classify()
    if kind in _EUCLIDEAN or kind == "poly_localized":
        return lambda target: lift_through(ring, cols, target, nrows) is not None
    span = _span(ring, nrows, _key(cols))
    return lambda target: vec_is_zero(target) or span.member(
        tuple(e.num for e in target))


def span_basis(ring, cols, nrows):
    """The Groebner basis of cols and the modulus vectors (polynomial rings)."""
    return _span(ring, nrows, _key(cols)).basis(track=False)


def _key(cols):
    return tuple(tuple(e.num for e in col) for col in cols)


def _solve(ring, op, cols, target, nrows):
    kind = ring.classify()
    if kind == "poly_localized":
        return _localized_poly(ring, op, cols, target, nrows)
    if kind in _EUCLIDEAN:
        ar = _arithmetic(ring)
        if op == "syz":
            return _syz_euclidean(ar, cols, nrows)
        return _lift_euclidean(ar, cols, target, nrows)
    span = _span(ring, nrows, _key(cols))
    if op == "syz":
        return span.syzygies()
    return span.lift(tuple(e.num for e in target))


def _localized_poly(ring, op, cols, target, nrows):
    """Compute in A[t]/(t*u - 1), the Rabinowitsch model of u^-1 A."""
    from .ring import Ring
    base = ring.without_inversion()
    if base.is_completed:
        raise UnsupportedRing("localized completed polynomial rings unsupported")
    names = base.names + ("_t",)
    nv = len(names)

    def pad(p):
        return Poly(base.dom, nv, {m + (0,): c for m, c in p.terms.items()})

    tpoly = Poly.var(base.dom, nv, nv - 1)
    quotient = tuple(pad(q) for q in base.quotient)
    quotient += (pad(ring.inverted) * tpoly - Poly.const(base.dom, nv, 1),)
    ext = Ring.get(base.base, base.p, names, quotient, None, None, base.order)

    def fwd(e):
        return ext.el(pad(e.num) * tpoly ** e.dexp)

    def back(e):
        # split off powers of t; each t becomes one denominator power
        out = ring.zero()
        for m, c in e.num.terms.items():
            d = m[-1]
            out = out + ring.el(Poly(base.dom, base.nvars, {m[:-1]: c}), d)
        return out

    ecols = [tuple(fwd(x) for x in col) for col in cols]
    if op == "syz":
        return [tuple(back(x) for x in s) for s in syzygies(ext, ecols, nrows)]
    et = tuple(fwd(x) for x in target)
    lifted = lift_through(ext, ecols, et, nrows)
    if lifted is None:
        return None
    return tuple(back(x) for x in lifted)


def _syz_euclidean(ar, cols, nrows):
    # Completed Z is treated as the valuation domain Z_p: a nonzero diagonal
    # entry p^a contributes no syzygy.  Entries of valuation >= N are stored
    # as zero, which is the stated at-precision semantics.
    c = len(cols)
    if nrows == 0:
        ring = ar.ring
        return [tuple(ring.one() if i == j else ring.zero() for i in range(c))
                for j in range(c)]
    _, D, V, _, _ = _smith(ar, _rows(ar, cols, nrows))
    rank_bound = min(nrows, c)
    return [tuple(ar.to_el(V[i][j]) for i in range(c)) for j in range(c)
            if j >= rank_bound or ar.is_zero(D[j][j])]


def _lift_euclidean(ar, cols, target, nrows):
    c = len(cols)
    U, D, V, _, _ = _smith(ar, _rows(ar, cols, nrows))
    ub = _mat_vec(ar, U, [ar.from_el(e) for e in target])
    rank_bound = min(nrows, c)
    y = [ar.zero] * c
    for i in range(nrows):
        d = D[i][i] if i < rank_bound else None
        if ar.is_zero(ub[i]):
            continue  # zero lifts to zero, not to p^(N-v)/u over Z_p
        if d is not None and not ar.is_zero(d):
            q, r = ar.divmod(ub[i], d)
            if not ar.is_zero(r):
                return None
            y[i] = q
        else:
            return None
    return tuple(ar.to_el(x) for x in _mat_vec(ar, V, y))


class _Span:
    """The span of some columns in A^nrows over a polynomial ring.  Its basis
    is built untracked for membership alone; a lift or the syzygies replace
    it by a tracked one."""

    def __init__(self, ring, nrows, cols):
        self.ring, self.nrows, self.cols = ring, nrows, cols
        self._gb = self._syz = None
        self._member = {}

    def basis(self, track=True):
        gb = self._gb
        if gb is None or (track and not gb.track):
            gens = self.cols + self.ring.modulus_vectors(self.nrows)
            gb = self._gb = GBasis(gens, self.nrows, order=self.ring.order,
                                   track=track)
        return gb

    def syzygies(self):
        """The distinct nonzero heads of the rows of ``GBasis.syzygies``."""
        if self._syz is None:
            el, zero = self.ring.el, self.ring.zero()
            out, rows, heads = [], set(), set()
            for s in self.basis().syzygies(len(self.cols)):
                if s not in rows:
                    rows.add(s)
                    head = tuple(el(p) if p.terms else zero for p in s)
                    key = tuple(e.num for e in head)
                    if key not in heads and not vec_is_zero(head):
                        heads.add(key)
                        out.append(head)
            self._syz = out
        return list(self._syz)

    def member(self, target):
        ans = self._member.get(target)
        if ans is None:
            ans = self.basis(track=False).contains(target)
            if len(self._member) >= _MEMO_LIMIT:
                self._member.clear()
            self._member[target] = ans
        return ans

    def lift(self, target):
        cof = self.basis().lift(target)
        return None if cof is None else tuple(
            self.ring.el(p) for p in cof[:len(self.cols)])


# Least recently used spans are evicted first.  At 128 the benchmark's seed-1
# op lists keep every repeated completed-grid lookup and 93% of the
# poly-sweep ones; 256 raised peak memory by 5-9% and saved no time.
_SPAN_LIMIT = 128
_MEMO_LIMIT = 256   # membership answers kept per span


@lru_cache(maxsize=_SPAN_LIMIT)
def _span(ring, nrows, cols):
    return _Span(ring, nrows, cols)


def invariant_factors(ring, relation_cols, ngens):
    """Canonical decomposition over a euclidean ring.

    Returns (torsion_factors, free_rank); factors are the nonunit, nonzero
    diagonal entries of the Smith form of the relation matrix.
    """
    if not relation_cols:
        return [], ngens
    return _invariant_factors(_arithmetic(ring), relation_cols, ngens)


def _invariant_factors(ar, cols, ngens):
    _, D, _, _, _ = _smith(ar, _rows(ar, cols, ngens))
    factors = []
    rank = 0
    for i in range(min(ngens, len(cols))):
        d = D[i][i]
        if ar.is_zero(d):
            continue
        rank += 1
        if not ar.is_unit(d):
            factors.append(ar.to_el(d))
    return factors, ngens - rank
