"""Finitely presented modules over a Ring and the basic functor calculus.

A module is coker(A^s -> A^g): `ngens` generators and a list of relation
columns.  Maps are matrices on generators, validated to carry relations to
relations.  Everything reduces to the two linear-algebra primitives
(syzygies and lifts), so the same code runs over Z, fields, polynomial
rings, quotients, localizations, and completed rings at precision.
"""

from functools import cached_property
from itertools import combinations_with_replacement

from .errors import InternalInconsistency, InvalidInput, UnsupportedRing
from .linalg import (cols_to_mat, invariant_factors, lift_through, mat_vec,
                     member, membership_test, smith_form, syzygies)
from .ring import power_products, prefix_products


class FPModule:
    def __init__(self, ring, ngens, relations=(), name=None):
        self.ring = ring
        self.ngens = ngens
        vec_key = ring.vec_key
        rels = {}   # the first column of each key, in order
        for col in relations:
            col = tuple(map(ring.el, col))
            if len(col) != ngens:
                raise InvalidInput("relation column length != generator count")
            rels.setdefault(vec_key(col), col)
        rels.pop(vec_key((ring.zero(),) * ngens), None)
        self.relations = list(rels.values())
        self.name = name
        self._decomp = None
        self._invariants = None   # (free rank, sorted rendered factors)
        self._member = None   # membership in the relations' span

    # -- constructors -------------------------------------------------------

    @classmethod
    def free(cls, ring, n):
        return cls(ring, n, ())

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0, ())

    @classmethod
    def cyclic(cls, ring, annihilators):
        """A / (annihilators)."""
        return cls(ring, 1, [(ring.el(a),) for a in annihilators])

    # -- membership and elements --------------------------------------------

    def gen(self, i):
        return tuple(self.ring.one() if j == i else self.ring.zero()
                     for j in range(self.ngens))

    def contains_in_relations(self, vec):
        if self._member is None:
            self._member = membership_test(self.ring, self.relations, self.ngens)
        return self._member(tuple(vec))

    def submodule(self, gens):
        """The submodule generated by the vectors gens, presented on them:
        its relations are the combinations of gens that die here, the heads
        of the syzygies of gens and the relations.  Those syzygies come from
        the span of every column, which tracks the relations' coordinates
        too, so a map's image asks the span its kernel asks."""
        syz = syzygies(self.ring, gens + self.relations, self.ngens,
                       len(gens)) if gens else []
        return FPModule(self.ring, len(gens), syz)

    def el_eq(self, v, w):
        return self.contains_in_relations(tuple(a - b for a, b in zip(v, w)))

    def is_zero(self):
        """Whether every generator dies.  Over a euclidean ring this is read
        off the memoized decomposition (no free part and no nonunit
        invariant factor); over any other ring each generator asks
        membership in the relations' span."""
        if self.ngens == 0:
            return True
        if self.ring.is_euclidean:
            return self.decomposition() == ([], 0)
        return all(self.contains_in_relations(self.gen(i)) for i in range(self.ngens))

    # -- canonical data ------------------------------------------------------

    def decomposition(self):
        """(torsion invariant factors, free rank) over a euclidean ring,
        read off the Smith form of the relations once and memoized; the
        zero test and ``invariants`` read it too."""
        if not self.ring.is_euclidean:
            raise UnsupportedRing("invariant factors need a euclidean ring")
        if self._decomp is None:
            self._decomp = invariant_factors(self.ring, self.relations, self.ngens)
        return self._decomp

    def canonical_presentation(self):
        """(M_can, iso M->M_can, iso M_can->M) over a euclidean ring."""
        if not self.relations:
            return self, identity_map(self), identity_map(self)
        U, D, V, Uinv, Vinv = smith_form(self.ring, self.relations, self.ngens)
        cols = []
        rank_bound = min(self.ngens, len(self.relations))
        for j in range(rank_bound):
            if not D[j][j].is_zero():
                cols.append(tuple(D[i][j] for i in range(self.ngens)))
        can = FPModule(self.ring, self.ngens, cols)
        fwd = ModuleMap(self, can, U, check=False)
        bwd = ModuleMap(can, self, Uinv, check=False)
        return can, fwd, bwd

    def invariants(self):
        """(free rank, sorted rendered torsion factors) over a euclidean
        ring: equal exactly when the modules are isomorphic.  The factors
        are rendered and sorted once per module; each call returns a fresh
        list."""
        if self._invariants is None:
            factors, rank = self.decomposition()
            self._invariants = rank, tuple(sorted(f.render() for f in factors))
        rank, torsion = self._invariants
        return rank, list(torsion)

    def describe(self):
        """Stable human/JSON description of the isomorphism type when known."""
        if self.ring.is_euclidean:
            rank, torsion = self.invariants()
            return {"free_rank": rank, "torsion": torsion}
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

    Relation columns are held sparse, as {original generator: nonzero
    entry}, so elimination touches nonzero entries only.  The pivot is the
    first unit entry, in generator order, of the first relation that has
    one.  Each elimination restarts that search, but only in the relations
    it changed and the ones not yet scanned: a relation once found
    unit-free keeps its entries until a substitution changes them, and a
    value once found to be a nonunit is not asked about again.  Each
    substitution updates an entry with one ``Ring._add_mul``.

    The elimination records its substitutions; fwd, each original
    generator's expression in the remaining ones, is built by replaying
    them on the first read of its matrix (``_ReplayedMap``), since most
    callers read only M_min and bwd.
    """
    ring = M.ring
    zero, add_mul = ring.zero(), ring._add_mul
    rels = [{g: e for g, e in enumerate(col) if not e.is_zero()}
            for col in M.relations]
    fresh = [True] * len(rels)   # not found unit-free since last changed
    nonunits = set()
    gens = list(range(M.ngens))
    steps = []   # (g, {h: coefficient of h in g}) of each elimination
    while True:
        pivot = _unit_entry(ring, rels, fresh, nonunits)
        if pivot is None:
            break
        ci, g, inv = pivot
        col = rels.pop(ci)
        del fresh[ci]
        gens.remove(g)
        # g = -inv * sum_{h != g} col_h * h
        subst = {h: zero - inv * c for h, c in col.items() if h != g}
        steps.append((g, subst))
        for i, vec in enumerate(rels):
            if _substitute(vec, g, subst, add_mul, zero):
                fresh[i] = True
    Mmin = FPModule(ring, len(gens), [tuple(col.get(g, zero) for g in gens)
                                      for col in rels if col])

    def fwd_matrix():
        one, at = ring.one(), {g: i for i, g in enumerate(gens)}
        mat = [[zero] * M.ngens for _ in gens]
        for src in range(M.ngens):
            vec = {src: one}
            for g, subst in steps:
                _substitute(vec, g, subst, add_mul, zero)
            for h, c in vec.items():
                mat[at[h]][src] = c
        return mat

    bwd_mat = [[ring.one() if i == g else zero for g in gens]
               for i in range(M.ngens)]
    fwd = _ReplayedMap(M, Mmin, fwd_matrix)
    bwd = ModuleMap(Mmin, M, bwd_mat, check=False)
    return Mmin, fwd, bwd


def _substitute(vec, g, subst, add_mul, zero):
    """Replace generator g in the sparse vector vec, in place, by its
    expression ``subst``; whether vec held g and so changed."""
    c = vec.pop(g, None)
    if c is None:
        return False
    for h, s in subst.items():
        e = add_mul(vec.get(h, zero), c, s)
        if e.is_zero():
            vec.pop(h, None)
        else:
            vec[h] = e
    return True


def _unit_entry(ring, rels, fresh, nonunits):
    """(relation index, generator, inverse) of the first unit entry of the
    sparse relations, or None.  Relations not marked ``fresh`` were found
    unit-free and are skipped; a fresh one found unit-free is unmarked, and
    nonunits met on the way are added to the set ``nonunits``."""
    for ci, col in enumerate(rels):
        if not fresh[ci]:
            continue
        for g in sorted(col):
            e = col[g]
            if e not in nonunits:
                inv = ring.unit_inverse(e)  # one question: unit and inverse
                if inv is not None:
                    return ci, g, inv
                nonunits.add(e)
        fresh[ci] = False
    return None


def identity_map(M):
    return scalar_map(M, M.ring.one())


def zero_map(M, N):
    mat = [[N.ring.zero() for _ in range(M.ngens)] for _ in range(N.ngens)]
    return ModuleMap(M, N, mat, check=False)


# -- block layouts --------------------------------------------------------------
#
# The only code that knows how block presentations and block matrices are
# laid out.  In a sum of modules block b follows block b - 1, generators
# and relations alike; in N^r, in M (x) N and in Hom(A^r, N) generator
# (i, j) is number i * N.ngens + j.  Builders place entries and never
# multiply them.


def block_matrix(ring, row_sizes, col_sizes, blocks):
    """The matrix cut into row blocks of ``row_sizes`` and column blocks of
    ``col_sizes``, zero but for ``blocks``: {(row block, column block):
    block matrix}."""
    row_at, col_at = _starts(row_sizes), _starts(col_sizes)
    zero = ring.zero()
    mat = [[zero] * col_at[-1] for _ in range(row_at[-1])]
    for (bi, bj), block in blocks.items():
        for i, row in enumerate(block):
            mat[row_at[bi] + i][col_at[bj]:col_at[bj] + len(row)] = row
    return mat


def _starts(sizes):
    """Where each block starts, then the total."""
    out = [0]
    for size in sizes:
        out.append(out[-1] + size)
    return out


def kron_identity(ring, A, n):
    """A (x) I_n: entry A[i][j] at (i*n + t, j*n + t) for every t < n."""
    zero = ring.zero()
    out = []
    for row in A:
        for t in range(n):
            new = [zero] * (len(row) * n)
            new[t::n] = row
            out.append(new)
    return out


def identity_kron(ring, n, B):
    """I_n (x) B: n copies of B down the diagonal."""
    width = len(B[0]) if B else 0
    zero = ring.zero()
    out = []
    for b in range(n):
        for row in B:
            new = [zero] * (n * width)
            new[b * width:(b + 1) * width] = row
            out.append(new)
    return out


def block_sum(mods):
    """The direct sum of a nonempty list of modules over one ring; a sum of
    one module is that module."""
    if len(mods) == 1:
        return mods[0]
    rels = block_matrix(mods[0].ring, [len(M.relations) for M in mods],
                        [M.ngens for M in mods],
                        {(b, b): M.relations for b, M in enumerate(mods)})
    return FPModule(mods[0].ring, sum(M.ngens for M in mods), rels)


def power(N, r):
    """N^r, with generator (i, j) numbered i * N.ngens + j."""
    return block_sum([N] * r) if r else FPModule.zero(N.ring)


def scalar_matrix(ring, n, x):
    """x . I_n; being diagonal, its rows are also its columns."""
    zero = ring.zero()
    mat = [[zero] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = x
    return mat


def scalar_map(M, x):
    """x . id_M."""
    return ModuleMap(M, M, scalar_matrix(M.ring, M.ngens, x), check=False)


def quotient_by_ideal_power(M, gens, k):
    """M/(I^k)M with the same generators."""
    ring = M.ring
    prods = power_products([ring.el(g) for g in gens], k)
    extra = [col for f in prods for col in scalar_matrix(ring, M.ngens, f)]
    return FPModule(ring, M.ngens, M.relations + extra)


def base_change(M, ring):
    """The presentation of M read over ``ring``: a completion of M's ring,
    the same completion at another precision, or the ring it completes
    (M itself over its own ring)."""
    if M.ring is ring:
        return M
    return FPModule(ring, M.ngens, base_change_rows(M.relations, ring))


def base_change_rows(rows, ring):
    """The entries of a matrix or of a list of columns read over ``ring``."""
    return [tuple(map(ring.el, row)) for row in rows]


class ModuleMap:
    """matrix[i][j] = coefficient of target gen i in the image of source gen j."""

    def __init__(self, source, target, matrix, check=True):
        if source.ring != target.ring:
            raise InvalidInput("source and target live over different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.matrix = [[self.ring.el(e) for e in row] for row in matrix]
        if len(self.matrix) != target.ngens:
            raise InvalidInput("matrix has wrong number of rows")
        if any(len(r) != source.ngens for r in self.matrix):
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
        return ModuleMap(other.source, self.target,
                         cols_to_mat(cols, self.target.ngens), check=False)

    def __sub__(self, other):
        mat = [[a - b for a, b in zip(r1, r2)]
               for r1, r2 in zip(self.matrix, other.matrix)]
        return ModuleMap(self.source, self.target, mat, check=False)

    def scale(self, c):
        c = self.ring.el(c)
        mat = [[c * a for a in row] for row in self.matrix]
        return ModuleMap(self.source, self.target, mat, check=False)

    def is_iso(self):
        """Kernel and cokernel both vanish; the cokernel, the cheaper test
        and usually the deciding one, is asked first."""
        return self.cokernel()[0].is_zero() and self.kernel()[0].is_zero()

    def is_zero_map(self):
        return all(self.target.contains_in_relations(self.col(j))
                   for j in range(self.source.ngens))

    def equals(self, other):
        return (self - other).is_zero_map()

    # -- subquotients --------------------------------------------------------

    def kernel(self):
        """(K, inclusion K -> source).

        K is generated by the nonzero source heads of the distinct syzygies
        of the columns and the target's relations.  Two distinct syzygies
        may share a head, and K keeps it twice: the syzygies are those of a
        basis that tracks every column, the relations' too, and a basis
        tracking the heads alone would merge such rows and present K on
        other generators."""
        if 0 in (self.source.ngens, self.target.ngens):
            # all of the source, which has no generators or maps to zero
            gens = [self.source.gen(i) for i in range(self.source.ngens)]
        else:
            gens = syzygies(self.ring, self.cols() + self.target.relations,
                            self.target.ngens, self.source.ngens)
        K = self.source.submodule(gens)
        return K, ModuleMap(K, self.source,
                            cols_to_mat(gens, self.source.ngens), check=False)

    def image(self):
        """(I, inclusion I -> target, projection source -> I)."""
        gens = self.cols()
        I = self.target.submodule(gens)
        incl = ModuleMap(I, self.target, cols_to_mat(gens, self.target.ngens),
                         check=False)
        # I is generated by the images of the source's generators
        proj = ModuleMap(self.source, I, scalar_matrix(
            self.ring, self.source.ngens, self.ring.one()), check=False)
        return I, incl, proj

    def cokernel(self):
        """(C, projection target -> C)."""
        C = FPModule(self.ring, self.target.ngens,
                     self.target.relations + self.cols())
        return C, ModuleMap(self.target, C, scalar_matrix(
            self.ring, self.target.ngens, self.ring.one()), check=False)

    def lift_element(self, vec):
        """x in source with f(x) = vec in target, or None."""
        cols = self.cols() + self.target.relations
        sol = lift_through(self.ring, cols, tuple(vec), self.target.ngens)
        if sol is None:
            return None
        return tuple(sol[:self.source.ngens])

    def factor_through(self, other):
        """g with self = other . g, when the images allow it (other injective on need)."""
        out_cols = [other.lift_element(col) for col in self.cols()]
        if None in out_cols:
            return None
        return ModuleMap(self.source, other.source,
                         cols_to_mat(out_cols, other.source.ngens), check=False)

    def __repr__(self):
        return f"<ModuleMap {self.source.ngens}->{self.target.ngens} over {self.ring}>"


class _ReplayedMap(ModuleMap):
    """A ModuleMap whose matrix ``build()`` makes on its first read."""

    def __init__(self, source, target, build):
        self.source = source
        self.target = target
        self.ring = source.ring
        self._build = build

    @cached_property
    def matrix(self):
        return self._build()


def subquotient(f, which):
    """kernel | cokernel | image of a map, with its structure map.

    Exactness of kernel -> source -> cokernel is verified internally.
    """
    if which == "kernel":
        K, incl = f.kernel()
        _check_middle_exactness(f, incl)
        return K, incl
    if which == "image":
        I, incl, _ = f.image()
        return I, incl
    if which == "cokernel":
        C, proj = f.cokernel()
        return C, proj
    raise InvalidInput(f"unknown subquotient kind {which!r}")


def _check_middle_exactness(f, incl):
    if not f.cokernel()[1].compose(f).is_zero_map():
        raise InternalInconsistency("source -> cokernel must kill the image")
    if not f.compose(incl).is_zero_map():
        raise InternalInconsistency("kernel must die in the target")


def direct_sum(M, N):
    ring, sizes, one = M.ring, [M.ngens, N.ngens], M.ring.one()
    S = block_sum([M, N])
    inc1 = ModuleMap(M, S, block_matrix(ring, sizes, [M.ngens], {
        (0, 0): scalar_matrix(ring, M.ngens, one)}), check=False)
    inc2 = ModuleMap(N, S, block_matrix(ring, sizes, [N.ngens], {
        (1, 0): scalar_matrix(ring, N.ngens, one)}), check=False)
    return S, inc1, inc2


def tensor(M, N):
    """M (x) N by the standard block presentation; gen (i,j) -> i*N.ngens + j."""
    if M.ring != N.ring:
        raise InvalidInput("tensor needs a common ring")
    ring = M.ring
    rels = kron_identity(ring, M.relations, N.ngens)
    # then I_(M.ngens) (x) the relations of N, relation by relation
    s = len(N.relations)
    spread = identity_kron(ring, M.ngens, N.relations)
    rels += [row for c in range(s) for row in spread[c::s]]
    return FPModule(ring, M.ngens * N.ngens, rels)


def tensor_map(f, N):
    """f (x) id_N."""
    return ModuleMap(tensor(f.source, N), tensor(f.target, N),
                     kron_identity(f.ring, f.matrix, N.ngens), check=False)


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
        self.ambient = power(N, M.ngens)     # Hom(A^gM, N) = N^gM
        if not M.relations:
            self.module = self.ambient
            self.gens_as_vecs = [self.module.gen(t)
                                 for t in range(self.module.ngens)]
        else:
            # restriction to the relations, into Hom(A^sM, N) = N^sM
            restrict = ModuleMap(self.ambient, power(N, len(M.relations)),
                                 kron_identity(ring, M.relations, N.ngens),
                                 check=False)
            self.module, incl = restrict.kernel()
            self.gens_as_vecs = [incl.col(t) for t in range(self.module.ngens)]

    def flat_of_map(self, f):
        return tuple(f.matrix[j][i] for i in range(self.M.ngens)
                     for j in range(self.N.ngens))

    def interp(self, vec):
        gM, gN = self.M.ngens, self.N.ngens
        flat = mat_vec(self.ring, cols_to_mat(self.gens_as_vecs, gM * gN), vec)
        mat = [[flat[i * gN + j] for i in range(gM)] for j in range(gN)]
        return ModuleMap(self.M, self.N, mat, check=False)

    def coords(self, f):
        """Coordinates of a ModuleMap in Hom(M, N), or None if not valid."""
        cols = self.gens_as_vecs + self.ambient.relations
        sol = lift_through(self.ring, cols, self.flat_of_map(f), self.ambient.ngens)
        if sol is None:
            return None
        return tuple(sol[:self.module.ngens])


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
        maps[n] = ModuleMap(F, prev, cols_to_mat(current_cols, prev.ngens),
                            check=False)
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
            return IsoVerdict(M.invariants() == N.invariants(),
                              "invariant factors compared")
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


def _same_presentation(Ma, Mb):
    """Equal relation spans on the same generators, or both modules zero."""
    if Ma.ngens != Mb.ngens:
        # fall back to mutual witness-free zero test
        return Ma.is_zero() and Mb.is_zero()
    # same generators: mutual containment of relation lattices
    return (all(Mb.contains_in_relations(col) for col in Ma.relations)
            and all(Ma.contains_in_relations(col) for col in Mb.relations))


def _same_module(Ma, Mb):
    """The one rule by which computed module values are compared: invariant
    factors over euclidean rings, else the same presentation."""
    if Ma.ring.is_euclidean and Mb.ring.is_euclidean:
        return Ma.invariants() == Mb.invariants()
    return _same_presentation(Ma, Mb)


def stable_submodule(M, chain, bound):
    """(k, gens) for the first k <= bound at which the submodules of M
    spanned by chain(k - 1) and chain(k) agree, gens being the vectors of
    chain(k - 1) that are not zero in M; None when the chain does not
    stabilize within ``bound``.  ``M.submodule(gens)`` is the submodule."""
    ring, n, prev = M.ring, M.ngens, None
    for k in range(1, bound + 1):
        gens = chain(k)
        if prev is not None and all(
                member(ring, prev + M.relations, g, n) for g in gens) and all(
                member(ring, gens + M.relations, g, n) for g in prev):
            return k, [g for g in prev if not M.contains_in_relations(g)]
        prev = gens
    return None


# -- nilpotence -------------------------------------------------------------------


def _killing_power(M, gens, bound):
    """The least j <= bound with I^j M = 0 for I = (gens), or None.

    I^j M = 0 implies I^(j+1) M = 0, so degrees are tried in turn.  Within
    a degree the products come in combinations_with_replacement order, each
    built from its prefix when first needed, and each is tested alone in
    every generator's coordinate; the first one outside the relations ends
    the degree.  When degree 1 fails, the cap's first product gens[0]^bound
    is tried first: if it does not kill M then I^bound M != 0, so no degree
    up to the bound does.  The cap is one ``**`` where that is the
    left-to-right product's canonical element and runs no normal form: on
    rings with no modulus and no inverted element, Z and Z_p among them
    (``_IntArith.pow`` reduces by p^N as each product does).  Quotients,
    completions with variables and localizations, Z_p[1/u] with its
    precision seam among them, build it as the left-to-right product.
    """
    ring = M.ring
    els = [ring.el(g) for g in gens]
    prod = prefix_products(els)

    def kills(f):
        return all(M.contains_in_relations(col)
                   for col in scalar_matrix(ring, M.ngens, f))

    def cap():
        if not ring.modulus and ring.inverted is None:
            return els[0] ** bound
        return prod((0,) * bound)

    for j in range(1, bound + 1):
        combos = combinations_with_replacement(range(len(gens)), j)
        if all(kills(prod(c)) for c in combos):
            return j
        if j == 1 and bound > 1 and not kills(cap()):
            return None
    return None


def _capped_killing_power(M, gens):
    """``_killing_power`` up to 24, where over a completed ring only
    exponents below the precision N are evidence: I^j M = 0 at precision N
    with j < N implies I^j M = 0 exactly, since I^N M lies in I . I^j M
    (Nakayama)."""
    bound = 24
    if M.ring.is_completed:
        bound = min(bound, (M.ring.precision or 1) - 1)
    return _killing_power(M, gens, bound)
