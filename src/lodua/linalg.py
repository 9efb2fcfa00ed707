"""Exact linear algebra over the supported rings.

Three primitives drive every module computation:

    syzygies(ring, cols, nrows)   -- generators of {x : sum x_j cols_j = 0}
    lift_through(ring, cols, target, nrows) -- x with sum x_j cols_j = target
    member(ring, cols, target, nrows)       -- whether such an x exists

plus Smith normal form with tracked transforms over euclidean rings.
Columns and vectors in and out are dense tuples of RingElement.

``Ring.vec_key`` is the one hashable form of a vector here: every column
set has one span per (ring, nrows, column keys), kept in an LRU table of
128 (``_span``), and a span's syzygy heads and membership answers are
kept under the same keys.  A span builds what answers the three
primitives once, on first use:

* over Z, Z_p, fields and u^-1 Z (``_Span``), the Smith form of the columns
  with its transforms, which also gives the invariant factors and
  ``smith_normal_form``;
* over the other polynomial rings (``_GroebnerSpan``), one Groebner basis
  of the columns and ``ring.modulus_vectors(nrows)`` (syzygy rows are cut
  to the columns before any Poly is built), with its syzygy heads and
  membership answers; over k[t] the Smith form as well, for the invariant
  factors.

Localized polynomial rings have no spans of their own: they compute in the
Rabinowitsch model A[t]/(t*u - 1), whose spans keep the work.

The Smith form's one elimination loop, ``_smith``, runs on the values of a
small arithmetic record (zero test, size, divmod, multiply-add, unit part,
inverse).  The euclidean rules are the ring's, written once in ``ring``:
over Z and Z_p the record is the ring's own ``Ring.int_arith``, on plain
Python ints (over Z_p every value reduced mod p^N), converted back to
RingElements only for what a caller returns; over fields, u^-1 Z and k[t]
it is ``_ElArith``, on RingElements, which forwards each rule to the ring.
Both pick the same pivots and divide the same way, so they give the same
transforms.
"""

from functools import lru_cache

from .errors import UnsupportedRing
from .groebner import GBasis
from .poly import Poly
from .ring import Ring

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
    """A*v on the values of the arithmetic ar (Ring.int_arith or _ElArith)."""
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


class _ElArith:
    """RingElements; each euclidean rule is the ring's own."""

    __slots__ = ("ring", "zero", "one")

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
        return self.ring.unit_part(d)

    def inv(self, u):
        return u.inv()


def _rows(ar, cols, nrows):
    """The matrix with the given columns, as rows of the arithmetic's values."""
    return [[ar.from_el(col[i]) for col in cols] for i in range(nrows)]


def smith_normal_form(ring, A):
    """(U, D, V, Uinv, Vinv) with U*A*V = D, divisibility along the diagonal.

    Works over any ring exposing euclidean division (Z, fields, k[t], and
    completed Z at a prime, where it holds at the stated precision).  The
    form is the one the span of A's columns keeps.
    """
    ar, form = _span_of(ring, list(zip(*A)), len(A)).smith()
    return tuple([[ar.to_el(a) for a in row] for row in X] for X in form)


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
        # row_i += c*row_j, c nonzero: a quotient by a pivot of least size
        D[i] = [add_mul(a, c, b) for a, b in zip(D[i], D[j])]
        U[i] = [add_mul(a, c, b) for a, b in zip(U[i], U[j])]
        for r in Uinv:
            r[j] = sub_mul(r[j], c, r[i])

    def add_col(i, j, c):
        # col_i += c*col_j, c nonzero
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

    # enforce d_i | d_{i+1}; eliminate leaves the nonzero pivots first
    changed = True
    while changed:
        changed = False
        for i in range(rank_bound - 1):
            a, b = D[i][i], D[i + 1][i + 1]
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


def syzygies(ring, cols, nrows):
    """Generators of the kernel of A^c -> A^r, x -> sum x_j cols_j."""
    if not cols:
        return []
    if ring.classify() == "poly_localized":
        return _localized_poly(ring, "syz", cols, None, nrows)
    return _span_of(ring, cols, nrows).syzygies()


def lift_through(ring, cols, target, nrows):
    """Coefficients x with sum x_j cols_j = target, or None."""
    if vec_is_zero(target):
        return tuple(ring.zero() for _ in cols)
    if not cols:
        return None
    if ring.classify() == "poly_localized":
        return _localized_poly(ring, "lift", cols, target, nrows)
    return _span_of(ring, cols, nrows).lift(target)


def member(ring, cols, target, nrows):
    """Membership of target in the column span."""
    return membership_test(ring, cols, nrows)(target)


def membership_test(ring, cols, nrows):
    """Membership in the column span as a function of the target; it holds
    the span, so a question costs no lookup."""
    if not cols:
        return vec_is_zero
    if ring.classify() == "poly_localized":
        return lambda target: lift_through(ring, cols, target, nrows) is not None
    return _span_of(ring, cols, nrows).member


def span_basis(ring, cols, nrows):
    """The Groebner basis of cols and the modulus vectors (polynomial rings)."""
    return _span_of(ring, cols, nrows).basis(track=False)


def invariant_factors(ring, relation_cols, ngens):
    """Canonical decomposition over a euclidean ring.

    Returns (torsion_factors, free_rank); factors are the nonunit, nonzero
    diagonal entries of the Smith form of the relation matrix.
    """
    if not relation_cols:
        return [], ngens
    ar, form = _span_of(ring, relation_cols, ngens).smith()
    return _invariant_factors(ar, form[1])


def _span_of(ring, cols, nrows):
    vec_key = ring.vec_key
    return _span(ring, nrows, tuple([vec_key(col) for col in cols]))


def _localized_poly(ring, op, cols, target, nrows):
    """Compute in A[t]/(t*u - 1), the Rabinowitsch model of u^-1 A."""
    base = ring.without_inversion()  # never completed: Ring._validate
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


# -- answers read off a Smith form ---------------------------------------------
#
# form = (U, D, V, Uinv, Vinv) from _smith, with U*A*V = D for the matrix A
# of c columns (rows of values of the arithmetic ar).  Completed Z is treated
# as the valuation domain Z_p: a nonzero diagonal entry p^a contributes no
# syzygy.  Entries of valuation >= N are stored as zero, which is the stated
# at-precision semantics.


def _syz_euclidean(ar, form, c):
    """The columns of V beyond the nonzero diagonal of D."""
    _, D, V, _, _ = form
    if not D:  # no rows: every vector is a syzygy
        V = [[ar.one if i == j else ar.zero for j in range(c)] for i in range(c)]
    rank_bound = min(len(D), c)
    return [tuple(ar.to_el(V[i][j]) for i in range(c)) for j in range(c)
            if j >= rank_bound or ar.is_zero(D[j][j])]


def _diagonal_solve(ar, form, b):
    """y with D*y = U*b (values of ar), or None when b is not in the span."""
    U, D, V, _, _ = form
    ub = _mat_vec(ar, U, b)
    rank_bound = min(len(D), len(V))
    y = [ar.zero] * len(V)
    for i, x in enumerate(ub):
        if ar.is_zero(x):
            continue  # zero lifts to zero, also where the diagonal is zero
        d = D[i][i] if i < rank_bound else ar.zero
        if ar.is_zero(d):
            return None
        q, r = ar.divmod(x, d)
        if not ar.is_zero(r):
            return None
        y[i] = q
    return y


def _lift_euclidean(ar, form, b):
    """x with A*x = b (b in values of ar) as RingElements, or None."""
    y = _diagonal_solve(ar, form, b)
    return None if y is None else tuple(ar.to_el(x) for x in _mat_vec(ar, form[2], y))


def _invariant_factors(ar, D):
    """(nonunit nonzero diagonal entries, free rank) of a Smith form D."""
    factors = []
    rank = 0
    for i in range(min(len(D), len(D[0]) if D else 0)):
        d = D[i][i]
        if ar.is_zero(d):
            continue
        rank += 1
        if not ar.is_unit(d):
            factors.append(ar.to_el(d))
    return factors, len(D) - rank


# -- the span of a column set ---------------------------------------------------


class _Span:
    """The span of some columns in A^nrows; ``cols`` is their key (see
    ``Ring.vec_key``).  Over Z, Z_p, fields and u^-1 Z it answers every
    question from the Smith form of the columns, built on first use with the
    ring's ``int_arith`` over Z and Z_p, else ``_ElArith``, and stored, as
    tuples, only once complete; syzygies, lifts and membership are read off
    it on every call.
    """

    __slots__ = ("ring", "nrows", "cols", "_form")

    def __init__(self, ring, nrows, cols):
        self.ring, self.nrows, self.cols = ring, nrows, cols
        self._form = None

    def columns(self):
        """The columns as RingElements."""
        from_key = self.ring.from_key
        return [tuple(map(from_key, col)) for col in self.cols]

    def smith(self):
        """(ar, (U, D, V, Uinv, Vinv)): the Smith form of the columns on the
        values of the arithmetic ar, as tuples of rows."""
        form = self._form
        if form is None:
            ring = self.ring
            if not ring.is_euclidean:
                raise UnsupportedRing(
                    f"Smith form needs a euclidean ring, not {ring}")
            ar = ring.int_arith or _ElArith(ring)
            rows = _rows(ar, self.columns(), self.nrows)
            form = self._form = (ar, tuple(tuple(map(tuple, X))
                                           for X in _smith(ar, rows)))
        return form

    def syzygies(self):
        return _syz_euclidean(*self.smith(), len(self.cols))

    def lift(self, target):
        """x with sum x_j cols_j = target, or None; target is RingElements."""
        ar, form = self.smith()
        return _lift_euclidean(ar, form, [ar.from_el(e) for e in target])

    def member(self, target):
        """Whether target (RingElements) lies in the span."""
        if vec_is_zero(target):
            return True
        ar, form = self.smith()
        return _diagonal_solve(
            ar, form, [ar.from_el(e) for e in target]) is not None


class _GroebnerSpan(_Span):
    """The span over a polynomial ring without inverted elements: one
    Groebner basis of the columns and ``ring.modulus_vectors(nrows)``,
    untracked for membership alone; a lift or the syzygies replace it by a
    tracked one.  It keeps its syzygy heads and membership answers.  Over
    k[t] the inherited Smith form serves the invariant factors.  Over these
    rings ``Ring.vec_key`` is the tuple of numerators, so the keys of the
    columns and targets are also the basis's input vectors."""

    __slots__ = ("_gb", "_syz", "_member")

    def __init__(self, ring, nrows, cols):
        super().__init__(ring, nrows, cols)
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
            ring = self.ring
            el, zero, vec_key = ring.el, ring.zero(), ring.vec_key
            heads = {}
            for s in self.basis().syzygies(len(self.cols)):
                head = tuple([el(p) if p.terms else zero for p in s])
                heads.setdefault(vec_key(head), head)
            heads.pop(vec_key((zero,) * len(self.cols)), None)
            self._syz = tuple(heads.values())
        return list(self._syz)

    def lift(self, target):
        cof = self.basis().lift(self.ring.vec_key(target))
        return None if cof is None else tuple(
            self.ring.el(p) for p in cof[:len(self.cols)])

    def member(self, target):
        if vec_is_zero(target):
            return True
        key = self.ring.vec_key(target)
        ans = self._member.get(key)
        if ans is None:
            ans = self.basis(track=False).contains(key)
            if len(self._member) >= _MEMO_LIMIT:
                self._member.clear()
            self._member[key] = ans
        return ans


# Least recently used spans are evicted first.  At 128 the benchmark's seed-1
# op lists keep every repeated completed-grid lookup and 93% of the
# poly-sweep ones; 256 raised peak memory by 5-9% and saved no time.
_SPAN_LIMIT = 128
_MEMO_LIMIT = 256   # membership answers kept per span


@lru_cache(maxsize=_SPAN_LIMIT)
def _span(ring, nrows, cols):
    if ring.nvars == 0:  # Z, Z_p, fields and u^-1 Z
        return _Span(ring, nrows, cols)
    return _GroebnerSpan(ring, nrows, cols)
