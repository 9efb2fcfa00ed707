"""Bounded chain complexes of finitely presented modules.

Homological indexing: the differential lowers degree by one.  Signs follow
the fixed convention d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy and, for Hom,
d(f) = d . f - (-1)^|f| f . d; these are used consistently everywhere.
"""

import operator

from .errors import InvalidInput
from .linalg import cols_to_mat
from .modules import (FPModule, HomModule, ModuleMap, _ReplayedMap,
                      block_matrix, block_sum, identity_kron, identity_map,
                      kron_identity, minimize_presentation, power, tensor,
                      zero_map)


class ChainComplex:
    def __init__(self, ring, modules, diffs, check=True):
        self.ring = ring
        self.modules = dict(modules)
        self.diffs = dict(diffs)
        self._hcache = {}
        if self.modules:
            self.lo = min(self.modules)
            self.hi = max(self.modules)
        else:
            self.lo, self.hi = 0, -1
        if check:
            self._check()

    def _check(self):
        for n, d in self.diffs.items():
            nxt = self.diffs.get(n - 1)
            if nxt is not None:
                comp = nxt.compose(d)
                if not comp.is_zero_map():
                    raise InvalidInput(f"d.d != 0 between degrees {n} and {n - 2}")

    @classmethod
    def single(cls, M, degree=0):
        return cls(M.ring, {degree: M}, {}, check=False)

    @classmethod
    def zero(cls, ring):
        return cls(ring, {}, {}, check=False)

    def module(self, n):
        M = self.modules.get(n)
        return M if M is not None else FPModule.zero(self.ring)

    def diff(self, n):
        d = self.diffs.get(n)
        if d is not None:
            return d
        return zero_map(self.module(n), self.module(n - 1))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def homology(self, n):
        """H_n = ker(d_n)/im(d_(n+1)), with a minimized presentation."""
        return self.homology_data(n).H

    def homology_data(self, n):
        """Cycle-level bookkeeping for homology classes.

        Returns a HomologyData with H (minimized), the inclusion of the
        cycle module Z into C_n, the projection Z -> H (built on first
        read), and a section H -> Z picking representative cycles for the
        generators.
        """
        if n in self._hcache:
            return self._hcache[n]
        out = self._homology_data(n)
        self._hcache[n] = out
        return out

    def _homology_data(self, n):
        Cn = self.module(n)
        if n < self.lo or n > self.hi:
            Zm = FPModule.zero(self.ring)
            return HomologyData(Zm, zero_map(Zm, Cn), identity_map(Zm),
                                identity_map(Zm))
        if n == self.lo and (n - 1) not in self.modules:
            Z, incl = Cn, identity_map(Cn)
        else:
            Z, incl = self.diff(n).kernel()
        if (n + 1) in self.modules:
            g = self.diff(n + 1).factor_through(incl)
            if g is None:
                raise InvalidInput("boundaries do not land in cycles")
            H_raw = FPModule(self.ring, Z.ngens, Z.relations + g.cols())
        else:
            H_raw = Z
        H, fwd, bwd = minimize_presentation(H_raw)
        # fwd's matrix is that of the projection Z -> H, replayed from the
        # eliminations on its first read
        proj = _ReplayedMap(Z, H, lambda: fwd.matrix)
        rep = ModuleMap(H, Z, bwd.matrix, check=False)
        return HomologyData(H, incl, proj, rep)

    # -- complex algebra -----------------------------------------------------

    def shift(self, k):
        """C[k]_n = C_(n-k); differentials pick up the sign (-1)^k."""
        mods = {n + k: M for n, M in self.modules.items()}
        sign = self.ring.el(-1 if k % 2 else 1)
        diffs = {n + k: d.scale(sign) for n, d in self.diffs.items()}
        return ChainComplex(self.ring, mods, diffs, check=False)

    def tensor_module(self, N):
        mods = {n: tensor(M, N) for n, M in self.modules.items()}
        # d (x) id_N between the levels just built, not fresh copies of them
        diffs = {n: ModuleMap(mods[n], mods[n - 1],
                              kron_identity(self.ring, d.matrix, N.ngens),
                              check=False)
                 for n, d in self.diffs.items()}
        return ChainComplex(self.ring, mods, diffs, check=False)

    def hom_into_module(self, N):
        """Hom(C, N) for a complex of frees, placed in negative degrees."""
        homs = {}
        for n, M in self.modules.items():
            if M.relations:
                raise InvalidInput("hom_into_module expects free levels")
            homs[n] = power(N, M.ngens)
        mods = {-n: H for n, H in homs.items()}
        # precomposition with d_n: Hom(C_(n-1), N) -> Hom(C_n, N), degree
        # -(n-1) -> -n, is the transpose of d_n tensored with id_N
        diffs = {-(n - 1): ModuleMap(homs[n - 1], homs[n], kron_identity(
            self.ring, d.cols(), N.ngens), check=False)
            for n, d in self.diffs.items()}
        return ChainComplex(self.ring, mods, diffs, check=False)

    def truncate_ge(self, n):
        """tau_>=n: H_i preserved for i >= n, zero below."""
        if n > self.hi:
            return ChainComplex.zero(self.ring)
        if n <= self.lo:
            return self
        Z, incl = self.diff(n).kernel()
        mods = {m: M for m, M in self.modules.items() if m > n}
        mods[n] = Z
        diffs = {m: d for m, d in self.diffs.items() if m > n + 1}
        if (n + 1) in self.modules:
            g = self.diff(n + 1).factor_through(incl)
            diffs[n + 1] = g
        return ChainComplex(self.ring, mods, diffs, check=False)

    def truncate_le(self, n):
        """tau_<=n: H_i preserved for i <= n, zero above."""
        if n < self.lo:
            return ChainComplex.zero(self.ring)
        if n >= self.hi:
            return self
        Q, proj = self.diff(n + 1).cokernel()
        mods = {m: M for m, M in self.modules.items() if m < n}
        mods[n] = Q
        diffs = {m: d for m, d in self.diffs.items() if m < n}
        if n in self.diffs:
            d = self.diffs[n]
            diffs[n] = ModuleMap(Q, d.target, d.matrix, check=True)
        return ChainComplex(self.ring, mods, diffs, check=False)

    def tensor_complex(self, other):
        """Totalized tensor product of bounded complexes."""
        ring = self.ring
        pieces = {(p, q): tensor(Mp, Nq) for p, Mp in self.modules.items()
                  for q, Nq in other.modules.items()}

        def blocks(p, q):
            if (p - 1, q) in pieces and p in self.diffs:
                yield (p - 1, q), kron_identity(ring, self.diffs[p].matrix,
                                                other.module(q).ngens)
            if (p, q - 1) in pieces and q in other.diffs:
                dq = other.diffs[q].scale(ring.el(-1 if p % 2 else 1))
                yield (p, q - 1), identity_kron(ring, self.module(p).ngens,
                                                dq.matrix)

        return _totalize(ring, pieces, operator.add, blocks, check=False)

    def __repr__(self):
        return f"<ChainComplex degrees [{self.lo},{self.hi}] over {self.ring}>"


def _layout(sizes, degree):
    """How pieces {(p, q): ngens} stack: {n: {piece: ngens}} holding the
    pieces with degree(p, q) = n in sorted (p, q) order."""
    out = {}
    for key in sorted(sizes):
        out.setdefault(degree(*key), {})[key] = sizes[key]
    return out


def _stacked_map(S, T, src_sizes, tgt_sizes, parts):
    """The map between stacks of pieces S -> T, zero but for ``parts``
    {(target piece, source piece): matrix}; the sizes are {piece: ngens}
    in stacking order."""
    col = {key: b for b, key in enumerate(src_sizes)}
    row = {key: b for b, key in enumerate(tgt_sizes)}
    return ModuleMap(S, T, block_matrix(
        S.ring, list(tgt_sizes.values()), list(src_sizes.values()),
        {(row[tgt], col[src]): mat for (tgt, src), mat in parts.items()}),
        check=False)


def _totalize(ring, pieces, degree, blocks, check):
    """The complex whose degree-n module stacks the pieces {(p, q): module}
    with degree(p, q) = n in sorted (p, q) order; ``blocks(p, q)`` yields
    (target piece, matrix) for each part of the differential leaving a
    piece."""
    layout = _layout({key: P.ngens for key, P in pieces.items()}, degree)
    mods = {n: block_sum([pieces[key] for key in sizes])
            for n, sizes in layout.items()}
    diffs = {n: _stacked_map(mods[n], mods[n - 1], layout[n], layout[n - 1],
                             {(tgt, key): mat for key in pieces
                              if key in layout[n]
                              for tgt, mat in blocks(*key)})
             for n in sorted(mods) if (n - 1) in mods}
    return ChainComplex(ring, mods, diffs, check=check)


class ChainMap:
    def __init__(self, source, target, maps, check=True):
        self.source = source
        self.target = target
        self.maps = dict(maps)
        if check:
            for n in set(source.diffs) | {m + 1 for m in self.maps}:
                f_lo = self.maps.get(n - 1, zero_map(source.module(n - 1),
                                                     target.module(n - 1)))
                f_hi = self.maps.get(n, zero_map(source.module(n), target.module(n)))
                left = f_lo.compose(source.diff(n))
                right = target.diff(n).compose(f_hi)
                if not left.equals(right):
                    raise InvalidInput(f"chain map does not commute in degree {n}")

    def map(self, n):
        return self.maps.get(n, zero_map(self.source.module(n), self.target.module(n)))


def cone(f):
    """cone(f)_n = Y_n + X_(n-1); d(y, x) = (dy + fx, -dx)."""
    X, Y = f.source, f.target
    ring = X.ring
    lo = min(Y.lo, X.lo + 1)
    hi = max(Y.hi, X.hi + 1)
    mods = {n: block_sum([Y.module(n), X.module(n - 1)])
            for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        dx = X.diff(n - 1).scale(ring.el(-1))
        diffs[n] = ModuleMap(mods[n], mods[n - 1], block_matrix(
            ring, [Y.module(n - 1).ngens, X.module(n - 2).ngens],
            [Y.module(n).ngens, X.module(n - 1).ngens],
            {(0, 0): Y.diff(n).matrix, (0, 1): f.map(n - 1).matrix,
             (1, 1): dx.matrix}), check=False)
    return ChainComplex(ring, mods, diffs, check=True)


class HomologyData:
    """H with its cycle-level certificates: proj . rep = id on H.

    proj's matrix is built on its first read (``_homology_data``): most
    homology is read through H, incl and rep alone.
    """

    def __init__(self, H, incl, proj, rep):
        self.H = H
        self.incl = incl
        self.proj = proj
        self.rep = rep

    def classes(self, f):
        """f: X -> C_n read in H: the map proj . g for the g with
        incl . g = f, or None when f does not land in the cycles."""
        g = f.factor_through(self.incl)
        return None if g is None else self.proj.compose(g)


def induced_on_homology(f, n):
    """H_n(f): the map on homology induced by a chain map."""
    src = f.source.homology_data(n)
    tgt = f.target.homology_data(n)
    # the representative cycles of H_n(source), carried by f_n
    h = tgt.classes(f.map(n).compose(src.incl).compose(src.rep))
    if h is None:
        raise InvalidInput("chain map does not preserve cycles")
    return ModuleMap(src.H, tgt.H, h.matrix, check=True)


def hom_complex(C, D):
    """Hom(C, D)_n = prod_p Hom(C_p, D_(p+n)); d(f) = d.f - (-1)^|f| f.d."""
    ring = C.ring
    homs = {(p, q): HomModule(C.module(p), D.module(q))
            for p in C.degrees() for q in D.degrees()}

    def blocks(p, q):
        hm = homs[(p, q)]
        fmaps = [hm.interp(hm.module.gen(t)) for t in range(hm.module.ngens)]
        # post-compose with d_D; pre-compose with d_C, sign -(-1)^|f|
        if (p, q - 1) in homs:
            yield (p, q - 1), _coord_columns(
                homs[(p, q - 1)], [D.diff(q).compose(f) for f in fmaps])
        if (p + 1, q) in homs:
            sign = ring.el(1 if (q - p) % 2 else -1)
            yield (p + 1, q), _coord_columns(
                homs[(p + 1, q)],
                [f.compose(C.diff(p + 1)).scale(sign) for f in fmaps])

    return _totalize(ring, {key: hm.module for key, hm in homs.items()},
                     lambda p, q: q - p, blocks, check=True)


def _coord_columns(hm, maps):
    """The matrix whose column t holds the coordinates of maps[t] in hm."""
    return cols_to_mat([hm.coords(f) for f in maps], hm.module.ngens)


def total_complex(ring, pieces, horiz, vert):
    """Flatten a bounded bicomplex; vertical maps get the sign (-1)^p.

    pieces: {(p, q): FPModule}; horiz: {(p, q): map to (p-1, q)};
    vert: {(p, q): map to (p, q-1)}.
    """
    def blocks(p, q):
        if (p, q) in horiz and (p - 1, q) in pieces:
            yield (p - 1, q), horiz[(p, q)].matrix
        if (p, q) in vert and (p, q - 1) in pieces:
            yield (p, q - 1), vert[(p, q)].scale(
                ring.el(-1 if p % 2 else 1)).matrix

    return _totalize(ring, pieces, operator.add, blocks, check=True)
