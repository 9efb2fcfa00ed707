"""Exact linear algebra over the supported rings.

Three primitives drive every module computation:

    syzygies(ring, cols, nrows, width)      -- generators of
                                               {x : sum x_j cols_j = 0}
    lift_through(ring, cols, target, nrows) -- x with sum x_j cols_j = target
    member(ring, cols, target, nrows)       -- whether such an x exists

plus Smith normal form with tracked transforms over euclidean rings.
Columns and vectors in and out are dense tuples of RingElement.  A syzygy
question names the width its caller reads: the answer is the nonzero heads
(first ``width`` coordinates, all of them by default) of the distinct
syzygies, in order, so a head that two syzygies share is kept twice.

``Ring.vec_key`` is the one hashable form of a vector here: every column
set has one span per (ring, nrows, column keys), kept in an LRU table of
128 (``_span``), and a span's syzygy heads (per width) and membership
answers are kept under the same keys; the width is no part of the key, so
no basis or Smith form is built twice for two widths.  A span builds what
answers the three primitives once, on first use:

* over Z, Z_p, fields, u^-1 Z and Z_p[1/u] (``_Span``), the Smith form of
  the columns with its transforms, which also gives the invariant factors,
  ``smith_form`` and ``smith_normal_form``;
* over the other polynomial rings (``_GroebnerSpan``), one Groebner basis
  of the columns and ``ring.modulus_vectors(nrows)`` (its cofactors track
  the columns' coordinates only, every column's whatever width is read),
  with its syzygy heads and membership answers; a row's coordinates past
  the width become ring elements only when its head equals a kept one;
  over k[t] the Smith form as well, for the invariant factors;
* over a localized polynomial ring u^-1 A (``_LocalizedSpan``), the span
  of the columns over its Rabinowitsch model A[t]/(t*u - 1).

``ring`` asks these spans its lifts and syzygies and is not imported here.

The Smith form's one elimination loop, ``_smith``, runs on the values of
the ring's euclidean record ``Ring.euclid`` (zero test, size, divmod,
multiply-add, unit part, inverse): plain ints over Z and Z_p (over Z_p
reduced mod p^N), converted back to RingElements only for what a caller
returns, and RingElements over fields, k[t], u^-1 Z and Z_p[1/u].  The
rules are the ring's; ``linalg`` has no arithmetic of its own.
"""

from functools import lru_cache

from .errors import UnsupportedRing
from .groebner import GBasis
from .poly import Poly

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
    zero = ring.zero()
    return tuple([sum([a * x for a, x in zip(row, v)
                       if not a.is_zero() and not x.is_zero()], zero)
                  for row in A])


def _mat_vec(ar, A, v):
    """A*v on the values of the euclidean record ar (``Ring.euclid``)."""
    zero, is_zero, add_mul = ar.zero, ar.is_zero, ar.add_mul
    out = []
    for row in A:
        acc = zero
        for a, x in zip(row, v):
            if not is_zero(a) and not is_zero(x):
                acc = add_mul(acc, a, x)
        out.append(acc)
    return out


def cols_to_mat(cols, nrows):
    """The matrix, as rows, whose columns are ``cols``."""
    return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]


def vec_is_zero(v):
    return all(e.is_zero() for e in v)


# -- Smith normal form over euclidean rings ------------------------------------


def _rows(ar, cols, nrows):
    """The matrix with the given columns, as rows of the arithmetic's values."""
    return [[ar.from_el(col[i]) for col in cols] for i in range(nrows)]


def smith_normal_form(ring, A):
    """(U, D, V, Uinv, Vinv) with U*A*V = D, divisibility along the diagonal.

    Works over any ring exposing euclidean division (Z, fields, k[t], and
    completed Z at a prime, where it holds at the stated precision).  The
    form is the one the span of A's columns keeps.
    """
    return smith_form(ring, list(zip(*A)), len(A))


def smith_form(ring, cols, nrows):
    """``smith_normal_form`` of the matrix with the given columns."""
    ar, form = _span_of(ring, cols, nrows).smith()
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


def syzygies(ring, cols, nrows, width=None):
    """Generators of the kernel of A^c -> A^r, x -> sum x_j cols_j, cut to
    their first ``width`` coordinates (all c by default): the nonzero heads
    of the distinct generators, in order."""
    if not cols:
        return []
    return _span_of(ring, cols, nrows).syzygies(
        len(cols) if width is None else width)


def lift_through(ring, cols, target, nrows):
    """Coefficients x with sum x_j cols_j = target, or None."""
    if vec_is_zero(target):
        return tuple(ring.zero() for _ in cols)
    if not cols:
        return None
    return _span_of(ring, cols, nrows).lift(target)


def member(ring, cols, target, nrows):
    """Membership of target in the column span."""
    return membership_test(ring, cols, nrows)(target)


def membership_test(ring, cols, nrows):
    """Membership in the column span as a function of the target; it holds
    the span, so a question costs no lookup."""
    if not cols:
        return vec_is_zero
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
    ``Ring.vec_key``).  Over a ring without variables it answers every
    question from the Smith form of the columns, built on first use on the
    ring's record ``Ring.euclid`` and stored, as tuples, only once complete;
    syzygies, lifts and membership are read off it on every call.
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
            ar = ring.euclid
            if ar is None:
                raise UnsupportedRing(
                    f"Smith form needs a euclidean ring, not {ring}")
            rows = _rows(ar, self.columns(), self.nrows)
            form = self._form = (ar, tuple(tuple(map(tuple, X))
                                           for X in _smith(ar, rows)))
        return form

    def syzygies(self, width):
        heads = (s[:width] for s in _syz_euclidean(*self.smith(),
                                                    len(self.cols)))
        return [h for h in heads if not vec_is_zero(h)]

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
    untracked for membership alone; a lift or the syzygies replace it by one
    that tracks every column's cofactor coordinate, whatever width a caller
    reads.  It keeps its syzygy heads, one list per width, and membership
    answers.  Over k[t] the inherited Smith form serves the invariant
    factors.  Over these rings ``Ring.vec_key`` is the tuple of numerators,
    so the keys of the columns and targets are also the basis's input
    vectors."""

    __slots__ = ("_gb", "_syz", "_member")

    def __init__(self, ring, nrows, cols):
        super().__init__(ring, nrows, cols)
        self._gb = None
        self._syz = {}       # width -> syzygy heads
        self._member = {}

    def basis(self, track=True):
        gb = self._gb
        if gb is None or (track and not gb.track):
            # no caller reads a modulus vector's cofactor coordinate
            gens = self.cols + self.ring.modulus_vectors(self.nrows)
            gb = self._gb = GBasis(gens, self.nrows,
                                   track=track and len(self.cols))
        return gb

    def syzygies(self, width):
        heads = self._syz.get(width)
        if heads is None:
            heads = self._syz[width] = self._heads(width)
        else:
            self._gb.within_budget()   # a hit refuses as a query would
        return list(heads)

    def _heads(self, width):
        """The nonzero heads of the rows of ``GBasis.syzygy_rows`` that are
        distinct as vectors over the ring, each row's tail made only when
        its head is one already kept."""
        gb, ring, ncols = self.basis(), self.ring, len(self.cols)
        el, zero, vec_key = ring.el, ring.zero(), ring.vec_key

        def canonical(polys):
            return tuple([el(p) if p.terms else zero for p in polys])

        def tail(row):
            return vec_key(canonical(gb._polys(row, ncols, width)))

        nothing = vec_key((zero,) * width)
        kept = {}   # head key -> its first row, then the set of tail keys
        heads = []
        for row in gb.syzygy_rows():
            head = canonical(gb._polys(row, width))
            key = vec_key(head)
            if key == nothing:
                continue
            tails = kept.get(key)
            if tails is None:
                kept[key] = row
            elif width == ncols:
                continue      # no tail: the row repeats a kept one
            else:
                if type(tails) is not set:
                    tails = kept[key] = {tail(tails)}
                t = tail(row)
                if t in tails:
                    continue
                tails.add(t)
            heads.append(head)
        return tuple(heads)

    def lift(self, target):
        cof = self.basis().lift(self.ring.vec_key(target))
        return None if cof is None else tuple(map(self.ring.el, cof))

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
        else:
            self._gb.within_budget()
        return ans


class _LocalizedSpan(_Span):
    """The span over a localized polynomial ring u^-1 A answers through the
    span ``model`` of its columns over A[t]/(t*u - 1), a/u^d entering as
    a*t^d, and reads the answers back one power of t at a time."""

    __slots__ = ("model",)

    def __init__(self, ring, nrows, cols):
        super().__init__(ring, nrows, cols)
        model = ring.rabinowitsch_model()
        self.model = _span_of(
            model, [_to_model(model, col) for col in self.columns()], nrows)

    def _from_model(self, vec):
        ring, out = self.ring, []
        for e in vec:
            powers = {}  # the terms with t^d make one numerator over u^d
            for m, c in e.num.terms.items():
                powers.setdefault(m[-1], {})[m[:-1]] = c
            out.append(sum((ring.el(Poly(ring.dom, ring.nvars, terms), d)
                            for d, terms in powers.items()), ring.zero()))
        return tuple(out)

    def syzygies(self, width):
        return [self._from_model(s) for s in self.model.syzygies(width)]

    def lift(self, target):
        x = self.model.lift(_to_model(self.model.ring, target))
        return None if x is None else self._from_model(x)

    def member(self, target):
        return self.model.member(_to_model(self.model.ring, target))


def _to_model(model, vec):
    """A vector over u^-1 A as one over its model: a/u^d as a*t^d."""
    dom, nv = model.dom, model.nvars
    return tuple([model.el(Poly(dom, nv, {m + (e.dexp,): c
                                          for m, c in e.num.terms.items()}))
                  for e in vec])


# Least recently used spans are evicted first.  At 128 the benchmark's seed-1
# op lists keep every repeated completed-grid lookup and 93% of the
# poly-sweep ones; 256 raised peak memory by 5-9% and saved no time.
_SPAN_LIMIT = 128
_MEMO_LIMIT = 256   # membership answers kept per span


@lru_cache(maxsize=_SPAN_LIMIT)
def _span(ring, nrows, cols):
    if ring.nvars == 0:  # Z, Z_p, fields, u^-1 Z and Z_p[1/u]
        return _Span(ring, nrows, cols)
    if ring.inverted is not None:
        return _LocalizedSpan(ring, nrows, cols)
    return _GroebnerSpan(ring, nrows, cols)
