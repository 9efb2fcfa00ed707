"""Koszul complexes on powers of a sequence, with the standard transitions.

Bases of the exterior powers are sorted index subsets.  The chain complex
on (x_1^k, ..., x_n^k) sits in homological degrees n..0; the cochain version
sits in degrees -n..0 so that homology(-s) is the s-th Koszul cohomology.
Transition maps multiply a basis vector e_S by prod_{i in S} x_i, giving the
inverse system Kos(x^(k+1)) -> Kos(x^k).
"""

from itertools import combinations

from .complexes import ChainComplex, ChainMap
from .modules import FPModule, ModuleMap


def _subsets(n, j):
    return list(combinations(range(n), j))


def koszul_chain(ring, gens, k=1):
    """Koszul chain complex on (g^k for g in gens), degrees n..0."""
    gens = [ring.el(g) for g in gens]
    n = len(gens)
    mods = {j: FPModule.free(ring, len(_subsets(n, j))) for j in range(n + 1)}
    diffs = {}
    for j in range(1, n + 1):
        src, tgt = _subsets(n, j), _subsets(n, j - 1)
        tgt_index = {S: i for i, S in enumerate(tgt)}
        mat = [[ring.zero()] * len(src) for _ in range(len(tgt))]
        for col, S in enumerate(src):
            for pos, i in enumerate(S):
                rest = tuple(x for x in S if x != i)
                sign = ring.el(-1 if pos % 2 else 1)
                mat[tgt_index[rest]][col] = sign * gens[i] ** k
        diffs[j] = ModuleMap(mods[j], mods[j - 1], mat, check=False)
    return ChainComplex(ring, mods, diffs, check=True)


def koszul_transition(ring, gens, k, C_next, C_this):
    """Chain map Kos(x^(k+1)) -> Kos(x^k): e_S -> (prod_{i in S} x_i) e_S."""
    gens = [ring.el(g) for g in gens]
    n = len(gens)
    maps = {}
    for j in range(n + 1):
        subs = _subsets(n, j)
        mat = [[ring.zero()] * len(subs) for _ in range(len(subs))]
        for idx, S in enumerate(subs):
            f = ring.one()
            for i in S:
                f = f * gens[i]
            mat[idx][idx] = f
        maps[j] = ModuleMap(C_next.module(j), C_this.module(j), mat, check=False)
    return ChainMap(C_next, C_this, maps, check=True)


def koszul_cochain(ring, gens, k=1):
    """Dual Koszul complex Hom(Kos(x^k), A) in homological degrees -n..0;
    homology(-s) = H^s."""
    dual = koszul_chain(ring, gens, k).hom_into_module(FPModule.free(ring, 1))
    return ChainComplex(ring, dual.modules, dual.diffs, check=True)
