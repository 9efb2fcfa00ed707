"""Buchberger engine for ideals and submodules of free modules.

Works over field coefficients (Q, F_p); over Z only computations whose
leading coefficients stay units are supported, and anything else raises
UnsupportedRing.  Every basis element carries its cofactor expression over
the original generators, which gives membership certificates, lifts, and
syzygies (via Schreyer's theorem) in one pass.

Inside a basis a vector is one flat dict {(coord, mono): coeff}, as in
Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, ch. 2; a
basis stores each element and cofactor once in that form.  The public
interface takes and returns tuples of Poly, one per free-module coordinate:
``elements`` and ``cofactors`` are built from the flat store on each access.
Leading terms use position-over-term order with coordinate 0 largest, and
each element's leading term is cached.  One reduction loop serves
construction, inter-reduction, normal forms, membership and lifts; it takes
each next leading term from a heap of term keys.  S-pairs wait in a heap
keyed by the normal strategy with a deterministic tie-break, so output is
stable.

The budget counts reduction steps, one ``_tick`` call each.  A construction
may take ``budget`` steps in all, and every later query on the finished
basis (normal form, membership, lift) may take ``budget`` steps of its own,
``budget`` being the one in force when it runs (``context.budget``); a query
refuses a basis built in more steps than that, as a new build would fail.
"""

import heapq
from operator import add, le, sub

from . import context
from .errors import BudgetExceeded, UnsupportedRing
from .poly import Poly, descending_key, mono_div, mono_lcm, order_key


def _flat(v):
    """Tuple of Poly -> {(coord, mono): coeff}; zero coordinates are
    skipped before their terms are asked for."""
    return {(i, m): c for i, p in enumerate(v) if p.terms
            for m, c in p.terms.items()}


def _scaled(v, s, p):
    """v * s, stored as in _sub_shifted."""
    if p is not None:
        return {k: c * s % p for k, c in v.items()}
    out = {k: c * s for k, c in v.items()}
    return {k: c if type(c) is int or c.denominator != 1 else c.numerator
            for k, c in out.items()}


def _sub_shifted(v, g, q, f, p, heap=None, hkey=None):
    """v -= f * x^q * g in place; new terms of v are pushed onto heap.

    Over F_p every value is reduced mod p, and over Q an integral value is
    stored as an int, as in Poly (over Z every value is an int)."""
    for (i, gm), gc in g.items():
        k = (i, tuple(map(add, q, gm)))
        old = v.get(k)
        c = -f * gc if old is None else old - f * gc
        if p is not None:
            c %= p
        elif type(c) is not int and c.denominator == 1:
            c = c.numerator
        if c:
            v[k] = c
            if old is None and heap is not None:
                heapq.heappush(heap, (hkey(k), k))
        else:
            del v[k]


class GBasis:
    """A Groebner basis of a submodule of A^nrows with cofactor data."""

    def __init__(self, gens, nrows, order="grevlex", track=True):
        if not gens:
            raise ValueError("need at least one generator (possibly zero)")
        self.nrows = nrows
        self.order = order
        self.key = order_key(order)
        desc = descending_key(order)
        self._hkey = lambda t: (t[0], desc(t[1]))
        self.dom = gens[0][0].dom
        self.nvars = gens[0][0].nvars
        self._p = self.dom.p if self.dom.kind == "F" else None
        self.gens = [tuple(g) for g in gens]
        self.track = track
        self.budget = context.budget()
        self._steps = 0          # reduction steps of the construction
        self._vecs = []          # basis vectors, flat
        self._cofs = []          # {(j, m): c}, _vecs[i] = sum c*m*gens[j]
        self._leads = []         # ((coord, mono), coeff) of each _vecs[i]
        self._by_coord = {}      # coord -> [(i, mono, coeff)] in index order
        self._syz = []           # syzygies over the original generators, flat
        self._run()

    def _tick(self, steps, budget):
        if steps > budget:
            raise BudgetExceeded("groebner budget exceeded",
                                 partial=[list(e) for e in self.elements])

    def _unit_coeff(self, c):
        if self.dom.kind == "Z" and c not in (1, -1):
            raise UnsupportedRing(
                "Groebner over Z is restricted to unit leading coefficients")
        return c

    def _reduce(self, v, cof, steps, budget, skip=None):
        """Full normal form of the flat vector v against the basis.

        Element ``skip`` is left out of the reducers.  v is consumed and cof
        (None when untracked) is updated in place.  The reducer of a term is
        the lowest-index element whose lead divides it; each step, reducing
        or moving a term to the remainder, counts one tick from ``steps``.
        Returns (remainder, cof, steps); the remainder's terms are inserted
        in descending order, so its first key is its leading term.
        """
        p, dom, hkey = self._p, self.dom, self._hkey
        heap = [(hkey(t), t) for t in v]
        heapq.heapify(heap)
        out = {}
        while heap:
            t = heapq.heappop(heap)[1]
            c = v.get(t)
            if c is None:
                continue  # cancelled after it was pushed
            steps += 1
            self._tick(steps, budget)
            coord, m = t
            for idx, gm, gc in self._by_coord.get(coord, ()):
                if idx != skip and all(map(le, gm, m)):
                    break
            else:
                out[t] = c
                del v[t]
                continue
            factor = dom.exact_div(c, gc)
            if factor is None:
                # over Z with a lead that is no unit, which this refuses
                self._unit_coeff(gc)
            q = tuple(map(sub, m, gm))
            _sub_shifted(v, self._vecs[idx], q, factor, p, heap, hkey)
            if cof is not None:
                _sub_shifted(cof, self._cofs[idx], q, factor, p)
        return out, cof, steps

    def _add(self, v, cof):
        """Reduce v; keep the monic remainder as a new element.

        A zero remainder leaves its cofactor, when nonzero, as a syzygy:
        0 = cof . gens.  Returns whether an element was added.
        """
        nf, cof, self._steps = self._reduce(v, cof, self._steps, self.budget)
        if not nf:
            if cof:
                self._syz.append(cof)
            return False
        lead = next(iter(nf))
        c = nf[lead]
        if self.dom.kind != "Z":
            # keeping reducers monic tames coefficient growth over Q
            inv = self.dom.inv(c)
            nf = _scaled(nf, inv, self._p)
            if cof is not None:
                cof = _scaled(cof, inv, self._p)
            c = nf[lead]
        idx = len(self._vecs)
        self._vecs.append(nf)
        self._cofs.append(cof)
        self._leads.append((lead, c))
        self._by_coord.setdefault(lead[0], []).append((idx, lead[1], c))
        return True

    def _run(self):
        one = self.dom.normalize(1)
        zero = (0,) * self.nvars
        for j, g in enumerate(self.gens):
            self._add(_flat(g), {(j, zero): one} if self.track else None)
        # pair keys end in (i, j), so they are unique: the heap pops pairs in
        # the order of a fully sorted list
        pairs, pending = [], set()
        for new in range(len(self._vecs)):
            self._push_pairs(new, pairs, pending)
        while pairs:
            i, j = heapq.heappop(pairs)[-2:]
            pending.discard((i, j))
            if self._chain_criterion(i, j, pending):
                continue
            if self._add(*self._spair(i, j)):
                self._push_pairs(len(self._vecs) - 1, pairs, pending)
        self._make_reduced()

    def _push_pairs(self, new, pairs, pending):
        """Queue (t, new) for every earlier element t in new's coordinate."""
        (cn, mn), _ = self._leads[new]
        for t, mt, _ in self._by_coord[cn]:
            if t >= new:
                break
            lcm = mono_lcm(mt, mn)
            heapq.heappush(pairs, (sum(lcm), self.key(lcm), cn, t, new))
            pending.add((t, new))

    def _chain_criterion(self, i, j, pending):
        (ci, mi), _ = self._leads[i]
        lcm = mono_lcm(mi, self._leads[j][0][1])
        for t, mt, _ in self._by_coord[ci]:
            if t == i or t == j or not all(map(le, mt, lcm)):
                continue
            if (min(i, t), max(i, t)) not in pending and \
                    (min(j, t), max(j, t)) not in pending:
                return True
        return False

    def _spair(self, i, j):
        (_, mi), cci = self._leads[i]
        (_, mj), ccj = self._leads[j]
        lcm = mono_lcm(mi, mj)
        qi, qj = mono_div(lcm, mi), mono_div(lcm, mj)
        if self.dom.kind == "Z":
            self._unit_coeff(cci)
            self._unit_coeff(ccj)
            ai, aj = ccj, cci
        else:
            ai, aj = self.dom.inv(cci), self.dom.inv(ccj)
        p = self._p
        sv = {}
        _sub_shifted(sv, self._vecs[i], qi, -ai, p)
        _sub_shifted(sv, self._vecs[j], qj, aj, p)
        if not self.track:
            return sv, None
        sc = {}
        _sub_shifted(sc, self._cofs[i], qi, -ai, p)
        _sub_shifted(sc, self._cofs[j], qj, aj, p)
        return sv, sc

    def _make_reduced(self):
        # minimalize (of equal leads the earliest stays), then inter-reduce
        # tails and normalize; sort for stability
        keep = [i for i, ((ci, mi), _) in enumerate(self._leads)
                if not any(j != i and all(map(le, mj, mi))
                           and (mj != mi or j < i)
                           for j, mj, _ in self._by_coord[ci])]
        self._select(keep)
        for i in range(len(self._vecs)):
            # a minimal element's lead is reduced by no other element, so the
            # cached lead and the reducer table stay valid
            self._vecs[i], self._cofs[i], self._steps = self._reduce(
                self._vecs[i], self._cofs[i], self._steps, self.budget, skip=i)
        if self.dom.kind == "Z":
            # field elements are monic already; over Z fix the sign
            for i, (lead, c) in enumerate(self._leads):
                if c < 0:
                    self._vecs[i] = _scaled(self._vecs[i], -1, None)
                    if self.track:
                        self._cofs[i] = _scaled(self._cofs[i], -1, None)
                    self._leads[i] = (lead, -c)
        key = self.key
        self._select(sorted(range(len(self._vecs)),
                            key=lambda i: (self._leads[i][0][0],
                                           key(self._leads[i][0][1]))))

    def _select(self, order):
        """Keep the elements at the given indices, in that order."""
        self._vecs = [self._vecs[i] for i in order]
        self._cofs = [self._cofs[i] for i in order]
        self._leads = [self._leads[i] for i in order]
        self._by_coord = {}
        for idx, ((coord, m), c) in enumerate(self._leads):
            self._by_coord.setdefault(coord, []).append((idx, m, c))

    def _polys(self, v, n):
        """{(coord, mono): coeff} -> tuple of the first n coordinates as
        Poly; later coordinates are dropped without building a Poly."""
        rows = [{} for _ in range(n)]
        for (i, m), c in v.items():
            if i < n:
                rows[i][m] = c
        zero = Poly._raw(self.dom, self.nvars, {})  # one for every empty row
        return tuple(Poly._raw(self.dom, self.nvars, r) if r else zero
                     for r in rows)

    def _lift_flat(self, v):
        """Flat cofactor c with v = -sum c.gens, or None when v is not in
        the module."""
        nf, cof, _ = self._reduce(_flat(v), {}, 0, self.within_budget())
        return None if nf else cof

    # public interface ----------------------------------------------------

    @property
    def elements(self):
        """The reduced basis, as tuples of Poly (built on each access)."""
        return [self._polys(v, self.nrows) for v in self._vecs]

    @property
    def cofactors(self):
        """elements[i] = sum_j cofactors[i][j] * gens[j]; None untracked."""
        if not self.track:
            return None
        return [self._polys(c, len(self.gens)) for c in self._cofs]

    @property
    def leads(self):
        """(coord, mono) of the leading term of each element."""
        return [lead for lead, _ in self._leads]

    def within_budget(self):
        """The budget in force, once the construction is seen to fit it."""
        budget = context.budget()
        self._tick(self._steps, budget)
        return budget

    def normal_form(self, v):
        nf, _, _ = self._reduce(_flat(v), None, 0, self.within_budget())
        return self._polys(nf, self.nrows)

    def contains(self, v):
        return not self._reduce(_flat(v), None, 0, self.within_budget())[0]

    def lift(self, v):
        """Coefficients c with v = sum_j c[j] * gens[j], or None."""
        if not self.track:
            raise UnsupportedRing("this basis was built without cofactors")
        cof = self._lift_flat(v)
        if cof is None:
            return None
        return self._polys(_scaled(cof, -1, self._p), len(self.gens))

    def syzygies(self, ncoords=None):
        """Generators of the syzygy module of the original generators; each
        cut to its first ncoords coordinates when given."""
        if not self.track:
            raise UnsupportedRing("this basis was built without cofactors")
        ngen = len(self.gens) if ncoords is None else ncoords
        out = [self._polys(s, ngen) for s in self._syz]
        # relations expressing each original generator over the basis give
        # extra syzygies e_j - lift(gen_j) = e_j + row
        one, zero = self.dom.normalize(1), (0,) * self.nvars
        for j, g in enumerate(self.gens):
            row = self._lift_flat(g)
            assert row is not None
            _sub_shifted(row, {(j, zero): one}, zero, -1, self._p)
            if row:
                out.append(self._polys(row, ngen))
        return out


def groebner_ideal(polys, order="grevlex"):
    """Reduced Groebner basis of the ideal generated by polys (rank 1)."""
    gens = [(p,) for p in polys]
    return GBasis(gens, 1, order=order)


def ideal_basis_polys(gb):
    return [e[0] for e in gb.elements]
