"""Finitely presented modules over a Ring and the basic functor calculus.

A module is coker(A^s -> A^g): `ngens` generators and a list of relation
columns.  Maps are matrices on generators, validated to carry relations to
relations.  Everything reduces to the two linear-algebra primitives
(syzygies and lifts), so the same code runs over Z, fields, polynomial
rings, quotients, localizations, and completed rings at precision.
"""

from .errors import InvalidInput, UnsupportedRing
from .linalg import (lift_through, mat_vec, membership_test,
                     smith_normal_form, syzygies, vec_is_zero)


class FPModule:
    def __init__(self, ring, ngens, relations=(), name=None):
        self.ring = ring
        self.ngens = ngens
        rels = []
        seen = set()
        for col in relations:
            col = tuple(ring.el(e) for e in col)
            if len(col) != ngens:
                raise InvalidInput("relation column length != generator count")
            if vec_is_zero(col):
                continue
            key = tuple((e.num, e.dexp) for e in col)
            if key not in seen:
                seen.add(key)
                rels.append(col)
        self.relations = rels
        self.name = name
        self._decomp = None
        self._member = None   # membership in the relations' span

    # -- constructors -------------------------------------------------------

    @classmethod
    def free(cls, ring, n, name=None):
        return cls(ring, n, (), name=name)

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0, ())

    @classmethod
    def cyclic(cls, ring, annihilators, name=None):
        """A / (annihilators)."""
        return cls(ring, 1, [(ring.el(a),) for a in annihilators], name=name)

    # -- membership and elements --------------------------------------------

    def zero_vec(self):
        return tuple(self.ring.zero() for _ in range(self.ngens))

    def gen(self, i):
        return tuple(self.ring.one() if j == i else self.ring.zero()
                     for j in range(self.ngens))

    def contains_in_relations(self, vec):
        if self._member is None:
            self._member = membership_test(self.ring, self.relations, self.ngens)
        return self._member(tuple(vec))

    def submodule(self, gens):
        """The submodule generated by the vectors gens, presented on them:
        its relations are the combinations of gens that die here."""
        syz = syzygies(self.ring, gens + self.relations, self.ngens) if gens else []
        return FPModule(self.ring, len(gens), [s[:len(gens)] for s in syz])

    def el_eq(self, v, w):
        return self.contains_in_relations(tuple(a - b for a, b in zip(v, w)))

    def is_zero(self):
        if self.ngens == 0:
            return True
        return all(self.contains_in_relations(self.gen(i)) for i in range(self.ngens))

    # -- canonical data ------------------------------------------------------

    def decomposition(self):
        """(torsion invariant factors, free rank) over a euclidean ring."""
        if not self.ring.is_euclidean:
            raise UnsupportedRing("invariant factors need a euclidean ring")
        if self._decomp is None:
            from .linalg import invariant_factors
            self._decomp = invariant_factors(self.ring, self.relations, self.ngens)
        return self._decomp

    def canonical_presentation(self):
        """(M_can, iso M->M_can, iso M_can->M) over a euclidean ring."""
        if not self.relations:
            return self, identity_map(self), identity_map(self)
        from .linalg import cols_to_mat
        R = cols_to_mat(self.ring, self.relations, self.ngens)
        U, D, V, Uinv, Vinv = smith_normal_form(self.ring, R)
        cols = []
        rank_bound = min(self.ngens, len(self.relations))
        for j in range(rank_bound):
            if not D[j][j].is_zero() and not D[j][j].is_unit():
                cols.append(tuple(D[i][j] for i in range(self.ngens)))
            elif D[j][j].is_unit():
                cols.append(tuple(D[i][j] for i in range(self.ngens)))
        can = FPModule(self.ring, self.ngens, cols)
        fwd = ModuleMap(self, can, U, check=False)
        bwd = ModuleMap(can, self, Uinv, check=False)
        return can, fwd, bwd

    def describe(self):
        """Stable human/JSON description of the isomorphism type when known."""
        if self.ring.is_euclidean:
            factors, rank = self.decomposition()
            return {"free_rank": rank,
                    "torsion": sorted(f.render() for f in factors)}
        return {"generators": self.ngens,
                "relations": sorted([e.render() for e in col]
                                    for col in self.relations)}

    def __repr__(self):
        tag = f" '{self.name}'" if self.name else ""
        return f"<FPModule{tag} {self.ngens} gens, {len(self.relations)} rels over {self.ring}>"


def minimize_presentation(M):
    """(M_min, fwd, bwd): eliminate generators via unit relation entries.

    fwd: M -> M_min and bwd: M_min -> M are mutually inverse isomorphisms;
    the module is unchanged up to this explicit change of presentation.
    """
    ring = M.ring
    gens = list(range(M.ngens))
    rels = [list(col) for col in M.relations]
    # expr[g] = expression of original generator g in the current generators
    expr = {g: {g: ring.one()} for g in gens}
    # values already found to be nonunits: a rescan does not ask them again
    nonunits = set()
    changed = True
    while changed:
        changed = False
        for ci, col in enumerate(rels):
            unit_at = None
            for pos, g in enumerate(gens):
                e = col[pos]
                if e.is_zero() or (e.num, e.dexp) in nonunits:
                    continue
                inv = ring.unit_inverse(e)  # one question: unit and inverse
                if inv is not None:
                    unit_at = (pos, g, inv)
                    break
                nonunits.add((e.num, e.dexp))
            if unit_at is None:
                continue
            pos, g, inv = unit_at
            # g = -inv * sum_{h != g} col_h * h
            subst = {}
            for p2, h in enumerate(gens):
                if h != g and not col[p2].is_zero():
                    subst[h] = ring.zero() - inv * col[p2]
            for other in rels:
                if other is col:
                    continue
                c = other[pos]
                if c.is_zero():
                    continue
                for p2, h in enumerate(gens):
                    if h in subst:  # adding c * 0 changes nothing
                        other[p2] = other[p2] + c * subst[h]
                other[pos] = ring.zero()
            for src, e_map in expr.items():
                c = e_map.pop(g, None)
                if c is not None and not c.is_zero():
                    for h, s in subst.items():
                        e_map[h] = e_map.get(h, ring.zero()) + c * s
            rels.pop(ci)
            for other in rels:
                other.pop(pos)
            gens.pop(pos)
            changed = True
            break
    new_index = {g: i for i, g in enumerate(gens)}
    cols = []
    for col in rels:
        vec = tuple(col[i] for i in range(len(gens)))
        if not vec_is_zero(vec):
            cols.append(vec)
    Mmin = FPModule(ring, len(gens), cols)
    fwd_mat = [[ring.zero()] * M.ngens for _ in range(len(gens))]
    for src in range(M.ngens):
        for h, c in expr[src].items():
            fwd_mat[new_index[h]][src] = c
    bwd_mat = [[ring.one() if i == g else ring.zero() for g in gens]
               for i in range(M.ngens)]
    fwd = ModuleMap(M, Mmin, fwd_mat, check=False)
    bwd = ModuleMap(Mmin, M, bwd_mat, check=False)
    return Mmin, fwd, bwd


def identity_map(M):
    one, zero = M.ring.one(), M.ring.zero()
    mat = [[one if i == j else zero for j in range(M.ngens)] for i in range(M.ngens)]
    return ModuleMap(M, M, mat, check=False)


def zero_map(M, N):
    mat = [[N.ring.zero() for _ in range(M.ngens)] for _ in range(N.ngens)]
    return ModuleMap(M, N, mat, check=False)


class ModuleMap:
    """matrix[i][j] = coefficient of target gen i in the image of source gen j."""

    def __init__(self, source, target, matrix, check=True):
        if source.ring != target.ring:
            raise InvalidInput("source and target live over different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.matrix = [[self.ring.el(e) for e in row] for row in matrix]
        if len(self.matrix) != target.ngens or (
                self.matrix and any(len(r) != source.ngens for r in self.matrix)):
            if target.ngens != 0 or source.ngens != 0:
                if len(self.matrix) != target.ngens:
                    raise InvalidInput("matrix has wrong number of rows")
                for r in self.matrix:
                    if len(r) != source.ngens:
                        raise InvalidInput("matrix has wrong number of columns")
        if check:
            self._check_relations()

    def _check_relations(self):
        for col in self.source.relations:
            img = self.apply(col)
            if not self.target.contains_in_relations(img):
                raise InvalidInput(
                    "matrix does not carry relations to relations: "
                    f"{[e.render() for e in col]}")

    def apply(self, vec):
        if self.target.ngens == 0:
            return ()
        if self.source.ngens == 0:
            return self.target.zero_vec()
        return mat_vec(self.ring, self.matrix, tuple(vec))

    def col(self, j):
        return tuple(self.matrix[i][j] for i in range(self.target.ngens))

    def cols(self):
        return [self.col(j) for j in range(self.source.ngens)]

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target.ngens != self.source.ngens:
            raise InvalidInput("composition mismatch")
        cols = [self.apply(other.col(j)) for j in range(other.source.ngens)]
        mat = [[cols[j][i] for j in range(other.source.ngens)]
               for i in range(self.target.ngens)]
        return ModuleMap(other.source, self.target, mat, check=False)

    def __add__(self, other):
        mat = [[a + b for a, b in zip(r1, r2)]
               for r1, r2 in zip(self.matrix, other.matrix)]
        return ModuleMap(self.source, self.target, mat, check=False)

    def __sub__(self, other):
        mat = [[a - b for a, b in zip(r1, r2)]
               for r1, r2 in zip(self.matrix, other.matrix)]
        return ModuleMap(self.source, self.target, mat, check=False)

    def scale(self, c):
        c = self.ring.el(c)
        mat = [[c * a for a in row] for row in self.matrix]
        return ModuleMap(self.source, self.target, mat, check=False)

    def is_zero_map(self):
        return all(self.target.contains_in_relations(self.col(j))
                   for j in range(self.source.ngens))

    def equals(self, other):
        return (self - other).is_zero_map()

    # -- subquotients --------------------------------------------------------

    def kernel(self):
        """(K, inclusion K -> source)."""
        cols = self.cols() + self.target.relations
        if self.target.ngens == 0:
            gens = [self.source.gen(i) for i in range(self.source.ngens)]
        else:
            heads = (s[:self.source.ngens]
                     for s in syzygies(self.ring, cols, self.target.ngens))
            gens = [h for h in heads if not vec_is_zero(h)]
        K = self.source.submodule(gens)
        mat = [[gens[j][i] for j in range(len(gens))] for i in range(self.source.ngens)]
        return K, ModuleMap(K, self.source, mat, check=False)

    def image(self):
        """(I, inclusion I -> target, projection source -> I)."""
        gens = self.cols()
        I = self.target.submodule(gens)
        incl = ModuleMap(I, self.target,
                         [[gens[j][i] for j in range(len(gens))]
                          for i in range(self.target.ngens)], check=False)
        # I is generated by the images of the source's generators
        proj = ModuleMap(self.source, I, identity_map(self.source).matrix,
                         check=False)
        return I, incl, proj

    def cokernel(self):
        """(C, projection target -> C)."""
        C = FPModule(self.ring, self.target.ngens,
                     self.target.relations + self.cols())
        return C, ModuleMap(self.target, C, identity_map(self.target).matrix, check=False)

    def lift_element(self, vec):
        """x in source with f(x) = vec in target, or None."""
        cols = self.cols() + self.target.relations
        if self.target.ngens == 0:
            return self.source.zero_vec()
        sol = lift_through(self.ring, cols, tuple(vec), self.target.ngens)
        if sol is None:
            return None
        return tuple(sol[:self.source.ngens])

    def factor_through(self, other):
        """g with self = other . g, when the images allow it (other injective on need)."""
        cols = other.cols() + self.target.relations
        out_cols = []
        for j in range(self.source.ngens):
            sol = lift_through(self.ring, cols, self.col(j), self.target.ngens)
            if sol is None:
                return None
            out_cols.append(tuple(sol[:other.source.ngens]))
        mat = [[out_cols[j][i] for j in range(self.source.ngens)]
               for i in range(other.source.ngens)]
        return ModuleMap(self.source, other.source, mat, check=False)

    def __repr__(self):
        return f"<ModuleMap {self.source.ngens}->{self.target.ngens} over {self.ring}>"


def subquotient(f, which):
    """kernel | cokernel | image of a map, with its structure map.

    Exactness of kernel -> source -> cokernel is verified internally.
    """
    if which == "kernel":
        K, incl = f.kernel()
        _check_middle_exactness(f, K, incl)
        return K, incl
    if which == "image":
        I, incl, _ = f.image()
        return I, incl
    if which == "cokernel":
        C, proj = f.cokernel()
        return C, proj
    raise InvalidInput(f"unknown subquotient kind {which!r}")


def _check_middle_exactness(f, K, incl):
    C, proj = f.cokernel()
    comp = proj.compose(f)
    assert comp.is_zero_map(), "source -> cokernel must kill the image"
    assert f.compose(incl).is_zero_map(), "kernel must die in the target"


def direct_sum(M, N):
    ring = M.ring
    g = M.ngens + N.ngens
    rels = [tuple(col) + tuple(ring.zero() for _ in range(N.ngens))
            for col in M.relations]
    rels += [tuple(ring.zero() for _ in range(M.ngens)) + tuple(col)
             for col in N.relations]
    S = FPModule(ring, g, rels)
    one, zero = ring.one(), ring.zero()
    inc1 = ModuleMap(M, S, [[one if i == j else zero for j in range(M.ngens)]
                            for i in range(g)], check=False)
    inc2 = ModuleMap(N, S, [[one if i - M.ngens == j else zero for j in range(N.ngens)]
                            for i in range(g)], check=False)
    return S, inc1, inc2


def tensor(M, N):
    """M (x) N by the standard block presentation; gen (i,j) -> i*N.ngens + j."""
    if M.ring != N.ring:
        raise InvalidInput("tensor needs a common ring")
    ring = M.ring
    g = M.ngens * N.ngens
    rels = []
    for col in M.relations:
        for j in range(N.ngens):
            vec = [ring.zero()] * g
            for i in range(M.ngens):
                vec[i * N.ngens + j] = col[i]
            rels.append(tuple(vec))
    for col in N.relations:
        for i in range(M.ngens):
            vec = [ring.zero()] * g
            for j in range(N.ngens):
                vec[i * N.ngens + j] = col[j]
            rels.append(tuple(vec))
    return FPModule(ring, g, rels)


def tensor_map(f, N):
    """f (x) id_N."""
    ring = f.ring
    S = tensor(f.source, N)
    T = tensor(f.target, N)
    mat = [[ring.zero()] * S.ngens for _ in range(T.ngens)]
    for i in range(f.target.ngens):
        for j in range(f.source.ngens):
            c = f.matrix[i][j]
            if c.is_zero():
                continue
            for t in range(N.ngens):
                mat[i * N.ngens + t][j * N.ngens + t] = c
    return ModuleMap(S, T, mat, check=False)


class HomModule:
    """Hom(M, N) as an FPModule plus translations between maps and coordinates.

    Elements of N^(M.ngens) are flattened as (i, j) -> i*N.ngens + j, i.e.
    column i of the would-be matrix followed by the next column.
    """

    def __init__(self, M, N):
        if M.ring != N.ring:
            raise InvalidInput("hom needs a common ring")
        ring = M.ring
        self.M, self.N, self.ring = M, N, ring
        gN, gM = N.ngens, M.ngens
        big = gM * gN
        rels = []
        for i in range(gM):
            for col in N.relations:
                vec = [ring.zero()] * big
                for j in range(gN):
                    vec[i * gN + j] = col[j]
                rels.append(tuple(vec))
        self.ambient = FPModule(ring, big, rels)     # Hom(A^gM, N) = N^gM
        sM = len(M.relations)
        if sM == 0:
            self.module = self.ambient
            self.gens_as_vecs = [self.module.gen(t) for t in range(big)]
        else:
            rels_t = []
            for t in range(sM):
                for col in N.relations:
                    vec = [ring.zero()] * (sM * gN)
                    for j in range(gN):
                        vec[t * gN + j] = col[j]
                    rels_t.append(tuple(vec))
            NS = FPModule(ring, sM * gN, rels_t)     # Hom(A^sM, N) = N^sM
            mat = [[ring.zero()] * big for _ in range(NS.ngens)]
            for t, col in enumerate(M.relations):
                for i in range(gM):
                    c = col[i]
                    if c.is_zero():
                        continue
                    for j in range(gN):
                        mat[t * gN + j][i * gN + j] = c
            restrict = ModuleMap(self.ambient, NS, mat, check=False)
            self.module, incl = restrict.kernel()
            self.gens_as_vecs = [incl.col(t) for t in range(self.module.ngens)]

    def flat_of_map(self, f):
        return tuple(f.matrix[j][i] for i in range(self.M.ngens)
                     for j in range(self.N.ngens))

    def interp(self, vec):
        ring, gM, gN = self.ring, self.M.ngens, self.N.ngens
        flat = [ring.zero()] * (gM * gN)
        for t, c in enumerate(vec):
            if c.is_zero():
                continue
            for b in range(gM * gN):
                flat[b] = flat[b] + c * self.gens_as_vecs[t][b]
        mat = [[flat[i * gN + j] for i in range(gM)] for j in range(gN)]
        return ModuleMap(self.M, self.N, mat, check=False)

    def coords(self, f):
        """Coordinates of a ModuleMap in Hom(M, N), or None if not valid."""
        cols = self.gens_as_vecs + self.ambient.relations
        sol = lift_through(self.ring, cols, self.flat_of_map(f), self.ambient.ngens)
        if sol is None:
            return None
        return tuple(sol[:self.module.ngens])


def hom_module(M, N):
    """(H, interp) with H = Hom(M, N) and interp(vec) a ModuleMap M -> N."""
    hm = HomModule(M, N)
    return hm.module, hm.interp


def hom_or_tensor(kind, M, N):
    if kind == "tensor":
        return tensor(M, N)
    if kind == "hom":
        H, _ = hom_module(M, N)
        return H
    raise InvalidInput(f"unknown kind {kind!r}")


def free_resolution(M, length):
    """F_length -> ... -> F_0 with H_0 = M, exact in middle degrees."""
    from .complexes import ChainComplex
    ring = M.ring
    mods = {0: FPModule.free(ring, M.ngens)}
    maps = {}
    current_cols = list(M.relations)
    for n in range(1, length + 1):
        F = FPModule.free(ring, len(current_cols))
        mods[n] = F
        prev = mods[n - 1]
        mat = [[current_cols[j][i] for j in range(len(current_cols))]
               for i in range(prev.ngens)]
        maps[n] = ModuleMap(F, prev, mat, check=False)
        if not current_cols:
            current_cols = []
            continue
        current_cols = [tuple(s) for s in syzygies(ring, current_cols, prev.ngens)]
    return ChainComplex(ring, mods, maps)


def tor(M, N, s):
    """Tor_s(M, N) = H_s(F(M) (x) N)."""
    if s < 0:
        raise InvalidInput("Tor degree must be >= 0")
    res = free_resolution(M, s + 1)
    tensored = res.tensor_module(N)
    return tensored.homology(s)


def ext(M, N, s):
    """Ext^s(M, N) = H^s Hom(F(M), N)."""
    if s < 0:
        raise InvalidInput("Ext degree must be >= 0")
    res = free_resolution(M, s + 1)
    cochain = res.hom_into_module(N)
    return cochain.homology(-s)


class IsoVerdict:
    def __init__(self, isomorphic, reason, witness=None):
        self.isomorphic = isomorphic
        self.reason = reason
        self.witness = witness

    def __bool__(self):
        return self.isomorphic

    def __repr__(self):
        return f"<iso={self.isomorphic}: {self.reason}>"


def iso_check(M, N, witness=None):
    """Isomorphism test: canonical forms over euclidean rings, else a witness.

    A witness map is certified by checking its kernel and cokernel vanish;
    over completed rings that certificate is exact because an approximate
    inverse of a map of complete modules is invertible.
    """
    if M.ring != N.ring:
        return IsoVerdict(False, "different rings")
    if witness is None:
        if M.ring.is_euclidean:
            fm, rm = M.decomposition()
            fn, rn = N.decomposition()
            same = (rm == rn and sorted(x.render() for x in fm)
                    == sorted(x.render() for x in fn))
            return IsoVerdict(same, "invariant factors compared")
        if M.is_zero() and N.is_zero():
            return IsoVerdict(True, "both zero")
        raise InvalidInput("witness required over non-euclidean rings")
    if witness.source is not M or witness.target is not N:
        witness = ModuleMap(M, N, witness.matrix)
    K, _ = witness.kernel()
    if not K.is_zero():
        return IsoVerdict(False, "witness has nonzero kernel", witness)
    C, _ = witness.cokernel()
    if not C.is_zero():
        return IsoVerdict(False, "witness has nonzero cokernel", witness)
    return IsoVerdict(True, "witness certified: kernel and cokernel vanish", witness)
