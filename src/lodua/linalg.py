"""Exact linear algebra over the supported rings.

Two primitives drive every module computation:

    syzygies(ring, cols, nrows)   -- generators of {x : sum x_j cols_j = 0}
    lift_through(ring, cols, target, nrows) -- x with sum x_j cols_j = target

plus Smith normal form with tracked transforms over euclidean rings.
Columns and vectors are tuples of RingElement.
"""

from .errors import UnsupportedRing
from .groebner import GBasis
from .poly import Poly

# -- small matrix helpers (matrices are lists of rows) -------------------------


def mat_identity(ring, n):
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


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
    out = []
    for row in A:
        acc = zero
        for a, x in zip(row, v):
            if not a.is_zero() and not x.is_zero():
                acc = acc + a * x
        out.append(acc)
    return tuple(out)


def mat_cols(A, nrows):
    if not A:
        return []
    return [tuple(A[i][j] for i in range(nrows)) for j in range(len(A[0]))]


def cols_to_mat(ring, cols, nrows):
    return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]


def vec_is_zero(v):
    return all(e.is_zero() for e in v)


# -- Smith normal form over euclidean rings ------------------------------------


def smith_normal_form(ring, A):
    """(U, D, V, Uinv, Vinv) with U*A*V = D, divisibility along the diagonal.

    Works over any ring exposing euclidean division (Z, fields, k[t], and
    completed Z at a prime, where it holds at the stated precision).
    """
    if not ring.is_euclidean:
        raise UnsupportedRing(f"Smith form needs a euclidean ring, not {ring}")
    n = len(A)
    m = len(A[0]) if A else 0
    D = [list(row) for row in A]
    U, Uinv = mat_identity(ring, n), mat_identity(ring, n)
    V, Vinv = mat_identity(ring, m), mat_identity(ring, m)

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
        if c.is_zero():
            return
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in Uinv:
            r[j] = r[j] - c * r[i]

    def add_col(i, j, c):
        # col_i += c*col_j
        if c.is_zero():
            return
        for r in D:
            r[i] = r[i] + c * r[j]
        for r in V:
            r[i] = r[i] + c * r[j]
        Vinv[j] = [a - c * b for a, b in zip(Vinv[j], Vinv[i])]

    def scale_row(i, u):
        uinv = u.inv()
        D[i] = [u * a for a in D[i]]
        U[i] = [u * a for a in U[i]]
        for r in Uinv:
            r[i] = r[i] * uinv

    rank_bound = min(n, m)
    k = 0
    while k < rank_bound:
        # pivot of least euclidean size in the remaining block
        pivot = None
        for i in range(k, n):
            for j in range(k, m):
                if not D[i][j].is_zero():
                    sz = ring.euclidean_size(D[i][j])
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
            if D[i][k].is_zero():
                continue
            q, r = ring.divmod_el(D[i][k], D[k][k])
            add_row(i, k, -q)
            if not r.is_zero():
                dirty = True
        for j in range(k + 1, m):
            if D[k][j].is_zero():
                continue
            q, r = ring.divmod_el(D[k][j], D[k][k])
            add_col(j, k, -q)
            if not r.is_zero():
                dirty = True
        if dirty:
            continue  # smaller remainders appeared; pick a new pivot
        k += 1

    # enforce d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank_bound - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a.is_zero() and not b.is_zero():
                swap_rows(i, i + 1)
                swap_cols(i, i + 1)
                changed = True
                continue
            if a.is_zero() or b.is_zero():
                continue
            _, r = ring.divmod_el(b, a)
            if not r.is_zero():
                add_col(i, i + 1, ring.one())
                _resmith_block(ring, D, U, Uinv, V, Vinv, i, swap_rows, swap_cols, add_row, add_col)
                changed = True

    # normalize units on the diagonal
    for i in range(rank_bound):
        d = D[i][i]
        if d.is_zero():
            continue
        u = _unit_part(ring, d)
        if not (u == ring.one()):
            scale_row(i, u.inv())
    return U, D, V, Uinv, Vinv


def _resmith_block(ring, D, U, Uinv, V, Vinv, k, swap_rows, swap_cols, add_row, add_col):
    """Re-run elimination on rows/cols >= k after a divisibility fix."""
    n, m = len(D), len(D[0])
    kk = k
    while kk < min(n, m):
        pivot = None
        for i in range(kk, n):
            for j in range(kk, m):
                if not D[i][j].is_zero():
                    sz = ring.euclidean_size(D[i][j])
                    if pivot is None or sz < pivot[0]:
                        pivot = (sz, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != kk:
            swap_rows(kk, pi)
        if pj != kk:
            swap_cols(kk, pj)
        dirty = False
        for i in range(kk + 1, n):
            if not D[i][kk].is_zero():
                q, r = ring.divmod_el(D[i][kk], D[kk][kk])
                add_row(i, kk, -q)
                dirty = dirty or not r.is_zero()
        for j in range(kk + 1, m):
            if not D[kk][j].is_zero():
                q, r = ring.divmod_el(D[kk][j], D[kk][kk])
                add_col(j, kk, -q)
                dirty = dirty or not r.is_zero()
        if not dirty:
            kk += 1


def _unit_part(ring, d):
    """u with d = u * canonical(d)."""
    kind = ring.classify()
    if kind == "int":
        return ring.el(-1) if int(d.num.constant()) < 0 else ring.one()
    if kind == "field":
        return d
    if kind == "int_completed":
        pgen = abs(int(ring.completion[0][0].constant()))
        c = int(d.num.constant()) % ring.int_modulus
        v = 0
        while c % pgen == 0:
            c //= pgen
            v += 1
        return ring.el(c)
    if kind == "int_localized":
        stripped, unit = ring.strip_inverted(d)
        return unit
    if kind == "poly" and ring.is_euclidean:
        from .poly import order_key
        _, lc = d.num.leading(order_key("lex"))
        return ring.el(Poly.const(ring.dom, ring.nvars, lc))
    return ring.one()


# -- the two core primitives ----------------------------------------------------


def syzygies(ring, cols, nrows):
    """Generators of the kernel of A^c -> A^r, x -> sum x_j cols_j."""
    c = len(cols)
    if c == 0:
        return []
    kind = ring.classify()
    if kind in ("int", "field", "int_completed", "int_localized"):
        return _syz_euclidean(ring, cols, nrows)
    if kind == "poly_localized":
        return _localized_poly(ring, "syz", cols, None, nrows)
    return _syz_groebner(ring, cols, nrows)


def lift_through(ring, cols, target, nrows):
    """Coefficients x with sum x_j cols_j = target, or None."""
    if vec_is_zero(target):
        return tuple(ring.zero() for _ in cols)
    if not cols:
        return None
    kind = ring.classify()
    if kind in ("int", "field", "int_completed", "int_localized"):
        return _lift_euclidean(ring, cols, target, nrows)
    if kind == "poly_localized":
        return _localized_poly(ring, "lift", cols, target, nrows)
    return _lift_groebner(ring, cols, target, nrows)


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


def _syz_euclidean(ring, cols, nrows):
    # Completed Z is treated as the valuation domain Z_p: a nonzero diagonal
    # entry p^a contributes no syzygy.  Entries of valuation >= N are stored
    # as zero, which is the stated at-precision semantics.
    A = cols_to_mat(ring, cols, nrows)
    c = len(cols)
    if nrows == 0:
        return [tuple(ring.one() if i == j else ring.zero() for i in range(c))
                for j in range(c)]
    U, D, V, _, _ = smith_normal_form(ring, A)
    rank_bound = min(nrows, c)
    out = []
    vcols = mat_cols(V, c)
    for j in range(c):
        if j >= rank_bound or D[j][j].is_zero():
            out.append(vcols[j])
    return out


def _lift_euclidean(ring, cols, target, nrows):
    A = cols_to_mat(ring, cols, nrows)
    c = len(cols)
    U, D, V, _, _ = smith_normal_form(ring, A)
    ub = mat_vec(ring, U, target)
    rank_bound = min(nrows, c)
    y = [ring.zero()] * c
    for i in range(nrows):
        d = D[i][i] if i < rank_bound else None
        if d is not None and not d.is_zero():
            q, r = ring.divmod_el(ub[i], d)
            if not r.is_zero():
                return None
            y[i] = q
        elif not ub[i].is_zero():
            return None
    return mat_vec(ring, V, tuple(y))


def _poly_cols(ring, cols):
    return [tuple(e.num for e in col) for col in cols]


def _augmented_gens(ring, cols, nrows):
    """Columns plus modulus relations in every coordinate (quotient rings)."""
    gens = _poly_cols(ring, cols)
    extra = []
    zero = Poly.zero(ring.dom, ring.nvars)
    for m in ring.modulus:
        for i in range(nrows):
            vec = [zero] * nrows
            vec[i] = m
            extra.append(tuple(vec))
    return gens, extra


_GB_CACHE = {}
_GB_CACHE_LIMIT = 4096


def _cached_gb(ring, gens, nrows, track=True):
    """Groebner bases are pure functions of their columns: memoize them."""
    key = (ring._key(), nrows, tuple(gens), track)
    hit = _GB_CACHE.get(key)
    if hit is None:
        if len(_GB_CACHE) > _GB_CACHE_LIMIT:
            _GB_CACHE.clear()
        hit = GBasis(gens, nrows, order=ring.order, track=track)
        _GB_CACHE[key] = hit
    return hit


def member(ring, cols, target, nrows):
    """Membership of target in the column span; no lift coefficients.

    Cheaper than lift_through over polynomial rings: the Groebner basis is
    built without cofactor tracking.
    """
    if vec_is_zero(target):
        return True
    if not cols:
        return False
    kind = ring.classify()
    if kind in ("int", "field", "int_completed", "int_localized"):
        return _lift_euclidean(ring, cols, target, nrows) is not None
    if kind == "poly_localized":
        return _localized_poly(ring, "lift", cols, target, nrows) is not None
    gens, extra = _augmented_gens(ring, cols, nrows)
    gb = _cached_gb(ring, gens + extra, nrows, track=False)
    return gb.contains(tuple(e.num for e in target))


def _syz_groebner(ring, cols, nrows):
    gens, extra = _augmented_gens(ring, cols, nrows)
    gb = _cached_gb(ring, gens + extra, nrows)
    c = len(cols)
    out = []
    seen = set()
    for s in gb.syzygies():
        head = tuple(ring.el(p) for p in s[:c])
        if not vec_is_zero(head):
            key = tuple((e.num, e.dexp) for e in head)
            if key not in seen:
                seen.add(key)
                out.append(head)
    return out


def _lift_groebner(ring, cols, target, nrows):
    gens, extra = _augmented_gens(ring, cols, nrows)
    gb = _cached_gb(ring, gens + extra, nrows)
    cof = gb.lift(tuple(e.num for e in target))
    if cof is None:
        return None
    return tuple(ring.el(p) for p in cof[:len(cols)])


def invariant_factors(ring, relation_cols, ngens):
    """Canonical decomposition over a euclidean ring.

    Returns (torsion_factors, free_rank); factors are the nonunit, nonzero
    diagonal entries of the Smith form of the relation matrix.
    """
    if not relation_cols:
        return [], ngens
    A = cols_to_mat(ring, relation_cols, ngens)
    _, D, _, _, _ = smith_normal_form(ring, A)
    rank_bound = min(ngens, len(relation_cols))
    factors = []
    rank = 0
    for i in range(rank_bound):
        d = D[i][i]
        if d.is_zero():
            continue
        rank += 1
        if not d.is_unit():
            factors.append(d)
    return factors, ngens - rank
