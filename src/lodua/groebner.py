"""Buchberger engine for ideals and submodules of free modules.

Works over field coefficients (Q, F_p); over Z only computations whose
leading coefficients stay units are supported, and anything else raises
UnsupportedRing.  Every basis element carries its cofactor expression over
the original generators, which gives membership certificates, lifts, and
syzygies (via Schreyer's theorem) in one pass.

Inside a basis a vector is one flat dict {term key: coeff}, as in
Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, ch. 2; a
basis stores each element and cofactor once in that form.  A term key is
one int packing the coordinate above the monomial's order fields, as
Singular packs exponent vectors (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998; see
``_TermKeys``): ascending keys are descending terms, a term times x^q is
its key plus one shift, and divisibility is one masked subtraction.  Every
field has a guard bit, and every key the kernel makes is checked against
the guard mask, so an exponent too large for its field raises
UnsupportedRing and never wraps into a wrong answer.  Keys are made from
Polys only in ``_flat`` and turned back only in ``_polys``.  The public
interface takes and returns tuples of Poly, one per free-module coordinate:
``elements`` and ``cofactors`` are built from the flat store on each access.
Leading terms use position-over-term order with coordinate 0 largest, and
each element's leading term is cached.  One reduction loop serves
construction, inter-reduction, normal forms, membership and lifts; it takes
each next leading term from a heap of term keys.  S-pairs wait in a heap
keyed by the normal strategy with a deterministic tie-break, so output is
stable.  Its coefficient update over Q runs on numerators and denominators,
one gcd per stored value (``poly.qcoeff``), and on native ints while every
operand is an int.

A basis may track the cofactor coordinates of its first few generators
only (``track``); a caller that reads no other coordinate then carries no
other one through the reductions.

The syzygies are the cofactors of the construction's zero remainders and
then e_j - lift(gen_j) for each generator, as flat rows over the tracked
coordinates (``syzygy_rows``).  A row equal to an earlier one is left out
before any Poly is made, and ``_polys`` makes only the coordinates a
caller asks for.

The budget counts reduction steps, one ``_tick`` call each.  A construction
may take ``budget`` steps in all, and every later query on the finished
basis (normal form, membership, lift, syzygies) may take ``budget`` steps
of its own, ``budget`` being the one in force when it runs
(``context.budget``, read once per query, once for all the lifts of the
syzygies); a query refuses a basis built in more steps than that, as a new
build would fail.
"""

import heapq
from operator import le, mul

from . import context
from .errors import BudgetExceeded, UnsupportedRing
from .poly import Poly, fraction, mono_div, mono_lcm, order_key, qcoeff

_FIELD = 16                   # bits of one order field, its guard bit included
_TOP = (1 << _FIELD) - 1      # every bit of a field
_GUARD = 1 << (_FIELD - 1)
_LIMIT = _GUARD - 1           # the largest exponent or degree a field holds


class _TermKeys:
    """The term keys of one basis: nvars variables in one monomial order.

    Fields of ``_FIELD`` bits hold the order's sort key, most significant
    first, below the coordinate:

    * grevlex: _TOP - degree, then the exponents of x_(n-1) .. x_0;
    * lex: _TOP - e_0 .. _TOP - e_(n-1).

    So ascending keys run through coordinates in ascending order and, in one
    coordinate, from the largest monomial down.  A key is linear in the
    exponents, so x^q moves every key by ``shift(q)``.  Every field value of
    a valid key is at most ``_LIMIT`` (an exponent or degree) or at least
    _TOP - _LIMIT (a complement); an exponent field that overflows sets its
    guard bit and a complement field that underflows clears it, each within
    its own field, so a key is valid exactly when ``key & gmask == gpat``.
    With valid keys t and g in one coordinate, g's monomial divides t's
    exactly when ``(sign*t - sign*g) & dmask`` is zero: the subtraction
    borrows out of an exponent field, setting its guard bit, exactly where
    g's exponent is the larger.
    """

    __slots__ = ("lex", "cshift", "base", "weights", "shifts", "gmask",
                 "gpat", "dmask", "sign")

    def __init__(self, nvars, order):
        self.lex = order == "lex"
        if self.lex:
            self.shifts = tuple((nvars - 1 - j) * _FIELD for j in range(nvars))
            self.weights = tuple(-(1 << s) for s in self.shifts)
            self.base = sum(_TOP << s for s in self.shifts)
            self.gmask = self.gpat = self.dmask = sum(
                _GUARD << s for s in self.shifts)
            self.cshift = nvars * _FIELD
            self.sign = -1
        else:
            top = nvars * _FIELD      # the degree field
            self.shifts = tuple(j * _FIELD for j in range(nvars))
            self.weights = tuple((1 << s) - (1 << top) for s in self.shifts)
            self.base = _TOP << top
            self.dmask = sum(_GUARD << s for s in self.shifts)
            self.gpat = _GUARD << top
            self.gmask = self.dmask | self.gpat
            self.cshift = top + _FIELD
            self.sign = 1

    def key(self, coord, m):
        """The key of the term m in coordinate coord; m is a monomial a
        valid key has held, or 1 (``_flat`` checks the others)."""
        return (coord << self.cshift) + self.base + sum(map(mul, m,
                                                            self.weights))

    def shift(self, q):
        """What multiplying by x^q adds to a key."""
        return sum(map(mul, q, self.weights))

    def split(self, k):
        """(coord, monomial) of the key k."""
        coord = k >> self.cshift
        if self.lex:
            k = ~k    # each field is then its exponent
        return coord, tuple([k >> s & _TOP for s in self.shifts])


def _overflow():
    raise UnsupportedRing(
        f"Groebner exponents are limited to {_LIMIT} (degree {_LIMIT} in "
        "grevlex)")


def _scaled(v, s, p):
    """v * s, stored as in _sub_shifted."""
    if p is not None:
        return {k: c * s % p for k, c in v.items()}
    sn, sd = (s, 1) if type(s) is int else (s._numerator, s._denominator)
    return {k: c * sn if type(c) is int and sd == 1 else
            qcoeff(c * sn, sd) if type(c) is int else
            qcoeff(c._numerator * sn, c._denominator * sd)
            for k, c in v.items()}


def _sub_shifted(v, g, d, f, p, keys, heap=None):
    """v -= f * x^q * g in place, d being ``keys.shift(q)``; new terms of v
    are pushed onto heap.  Every key made is checked against the guard.

    Over F_p every value is reduced mod p.  Over Q (and Z, where every value
    is an int) the values are ints while f and the terms involved are, and
    otherwise each new value is one numerator/denominator sum, reduced by
    one gcd; an integral value is stored as an int, as in Poly."""
    gmask, gpat = keys.gmask, keys.gpat
    get = v.get
    if p is not None:
        nf = -f % p
        for gk, gc in g.items():
            k = gk + d
            if k & gmask != gpat:
                _overflow()
            old = get(k)
            if old is None:
                v[k] = nf * gc % p    # p is prime: nf * gc is no multiple
                if heap is not None:
                    heapq.heappush(heap, k)
            elif c := (old + nf * gc) % p:
                v[k] = c
            else:
                del v[k]
        return
    if type(f) is int:
        fn, fd = f, 1
    else:
        fn, fd = f._numerator, f._denominator
    for gk, gc in g.items():
        k = gk + d
        if k & gmask != gpat:
            _overflow()
        old = get(k)
        # f * gc = pn/pd, not yet reduced
        if type(gc) is int:
            pn, pd = fn * gc, fd
        else:
            pn, pd = fn * gc._numerator, fd * gc._denominator
        if old is None:
            v[k] = -pn if pd == 1 else qcoeff(-pn, pd)
            if heap is not None:
                heapq.heappush(heap, k)
            continue
        if type(old) is int:
            c = old - pn if pd == 1 else qcoeff(old * pd - pn, pd)
        elif pd == 1:
            # a non-integral value minus an integer: still in lowest terms
            od = old._denominator
            v[k] = fraction(old._numerator - pn * od, od)
            continue
        else:
            od = old._denominator
            c = qcoeff(old._numerator * pd - pn * od, od * pd)
        if type(c) is int and not c:
            del v[k]
        else:
            v[k] = c


class GBasis:
    """A Groebner basis of a submodule of A^nrows with cofactor data.

    ``track`` is True to keep every generator's cofactor coordinate, False
    to keep no cofactors, or a number n to keep those of the first n
    generators only: cofactors, lifts and syzygies then have n coordinates,
    and a syzygy that is zero on them is left out."""

    def __init__(self, gens, nrows, order="grevlex", track=True):
        if not gens:
            raise ValueError("need at least one generator (possibly zero)")
        self.nrows = nrows
        self.order = order
        self.key = order_key(order)
        self.dom = gens[0][0].dom
        self.nvars = gens[0][0].nvars
        self._keys = _TermKeys(self.nvars, order)
        self._p = self.dom.p if self.dom.kind == "F" else None
        self.gens = [tuple(g) for g in gens]
        self.track = len(self.gens) if track is True else track
        self.budget = context.budget()
        self._steps = 0          # reduction steps of the construction
        self._vecs = []          # basis vectors, flat
        self._cofs = []          # {key of (j, m): c}, _vecs[i] = sum c*m*gens[j]
        self._leads = []         # ((coord, mono), coeff) of each _vecs[i]
        # coord -> [(i, mono, coeff, sign * key)] in index order
        self._by_coord = {}
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

    def _flat(self, v):
        """Tuple of Poly -> {key: coeff}; zero coordinates are skipped
        before their terms are asked for."""
        keys = self._keys
        lex, cshift, base, weights = (keys.lex, keys.cshift, keys.base,
                                      keys.weights)
        out = {}
        for i, p in enumerate(v):
            if not p.terms:
                continue
            ibase = (i << cshift) + base
            for m, c in p.terms.items():
                if (max(m, default=0) if lex else sum(m)) > _LIMIT:
                    _overflow()
                out[ibase + sum(map(mul, m, weights))] = c
        return out

    def _reduce(self, v, cof, steps, budget, skip=None):
        """Full normal form of the flat vector v against the basis.

        Element ``skip`` is left out of the reducers.  v is consumed and cof
        (None when untracked) is updated in place.  The reducer of a term is
        the lowest-index element whose lead divides it; each step, reducing
        or moving a term to the remainder, counts one tick from ``steps``.
        Returns (remainder, cof, steps); the remainder's terms are inserted
        in descending order, so its first key is its leading term.
        """
        p, dom, keys, by_coord = self._p, self.dom, self._keys, self._by_coord
        cshift, dmask, sign = keys.cshift, keys.dmask, keys.sign
        heap = list(v)
        heapq.heapify(heap)
        out = {}
        while heap:
            t = heapq.heappop(heap)
            c = v.get(t)
            if c is None:
                continue  # cancelled after it was pushed
            steps += 1
            self._tick(steps, budget)
            st = sign * t
            for idx, _, gc, sg in by_coord.get(t >> cshift, ()):
                if idx != skip and not (diff := st - sg) & dmask:
                    break
            else:
                out[t] = c
                del v[t]
                continue
            factor = dom.exact_div(c, gc)
            if factor is None:
                # over Z with a lead that is no unit, which this refuses
                self._unit_coeff(gc)
            d = sign * diff   # the lead's key moved onto t
            _sub_shifted(v, self._vecs[idx], d, factor, p, keys, heap)
            if cof is not None:
                _sub_shifted(cof, self._cofs[idx], d, factor, p, keys)
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
        lk = next(iter(nf))
        c = nf[lk]
        if self.dom.kind != "Z":
            # keeping reducers monic tames coefficient growth over Q
            inv = self.dom.inv(c)
            nf = _scaled(nf, inv, self._p)
            if cof is not None:
                cof = _scaled(cof, inv, self._p)
            c = nf[lk]
        idx = len(self._vecs)
        lead = self._keys.split(lk)
        self._vecs.append(nf)
        self._cofs.append(cof)
        self._leads.append((lead, c))
        self._by_coord.setdefault(lead[0], []).append(
            (idx, lead[1], c, self._keys.sign * lk))
        return True

    def _run(self):
        one = self.dom.normalize(1)
        zero = (0,) * self.nvars
        key = self._keys.key
        for j, g in enumerate(self.gens):
            if not self.track:
                cof = None
            elif j < self.track:
                cof = {key(j, zero): one}
            else:
                cof = {}
            self._add(self._flat(g), cof)
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
        for t, mt, _, _ in self._by_coord[cn]:
            if t >= new:
                break
            lcm = mono_lcm(mt, mn)
            heapq.heappush(pairs, (sum(lcm), self.key(lcm), cn, t, new))
            pending.add((t, new))

    def _chain_criterion(self, i, j, pending):
        (ci, mi), _ = self._leads[i]
        lcm = mono_lcm(mi, self._leads[j][0][1])
        for t, mt, _, _ in self._by_coord[ci]:
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
        shift = self._keys.shift
        di, dj = shift(mono_div(lcm, mi)), shift(mono_div(lcm, mj))
        if self.dom.kind == "Z":
            self._unit_coeff(cci)
            self._unit_coeff(ccj)
            ai, aj = ccj, cci
        else:
            ai, aj = self.dom.inv(cci), self.dom.inv(ccj)
        p, keys = self._p, self._keys
        sv = {}
        _sub_shifted(sv, self._vecs[i], di, -ai, p, keys)
        _sub_shifted(sv, self._vecs[j], dj, aj, p, keys)
        if not self.track:
            return sv, None
        sc = {}
        _sub_shifted(sc, self._cofs[i], di, -ai, p, keys)
        _sub_shifted(sc, self._cofs[j], dj, aj, p, keys)
        return sv, sc

    def _make_reduced(self):
        # minimalize (of equal leads the earliest stays), then inter-reduce
        # tails and normalize; sort for stability
        keep = [i for i, ((ci, mi), _) in enumerate(self._leads)
                if not any(j != i and all(map(le, mj, mi))
                           and (mj != mi or j < i)
                           for j, mj, _, _ in self._by_coord[ci])]
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
        key, sign = self._keys.key, self._keys.sign
        for idx, ((coord, m), c) in enumerate(self._leads):
            self._by_coord.setdefault(coord, []).append(
                (idx, m, c, sign * key(coord, m)))

    def _polys(self, v, n, lo=0):
        """{key: coeff} -> tuple of coordinates lo .. n-1 as Poly; other
        coordinates are dropped without building a Poly."""
        keys = self._keys
        cshift, shifts, lex = keys.cshift, keys.shifts, keys.lex
        rows = [{} for _ in range(lo, n)]
        for k, c in v.items():
            i = (k >> cshift) - lo
            if 0 <= i < n - lo:
                if lex:
                    k = ~k    # each field is then its exponent
                rows[i][tuple([k >> s & _TOP for s in shifts])] = c
        zero = Poly._raw(self.dom, self.nvars, {})  # one for every empty row
        return tuple([Poly._raw(self.dom, self.nvars, r) if r else zero
                      for r in rows])

    def _lift_flat(self, v, budget):
        """Flat cofactor c with v = -sum c.gens, or None when v is not in
        the module; the query may take ``budget`` steps."""
        nf, cof, _ = self._reduce(self._flat(v), {}, 0, budget)
        return None if nf else cof

    # public interface ----------------------------------------------------

    @property
    def elements(self):
        """The reduced basis, as tuples of Poly (built on each access)."""
        return [self._polys(v, self.nrows) for v in self._vecs]

    @property
    def cofactors(self):
        """elements[i] = sum_j cofactors[i][j] * gens[j] (over the tracked
        generators); None untracked."""
        if not self.track:
            return None
        return [self._polys(c, self.track) for c in self._cofs]

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
        nf, _, _ = self._reduce(self._flat(v), None, 0, self.within_budget())
        return self._polys(nf, self.nrows)

    def contains(self, v):
        return not self._reduce(self._flat(v), None, 0,
                                self.within_budget())[0]

    def lift(self, v):
        """Coefficients c with v = sum_j c[j] * gens[j], or None."""
        if not self.track:
            raise UnsupportedRing("this basis was built without cofactors")
        cof = self._lift_flat(v, self.within_budget())
        if cof is None:
            return None
        return self._polys(_scaled(cof, -1, self._p), self.track)

    def syzygy_rows(self):
        """The distinct rows of ``syzygies``, flat, over the tracked
        generators: the construction's cofactors of zero remainders, then
        e_j - lift(gen_j) for each generator (Schreyer), a row equal to an
        earlier one left out; the rows are the basis's own, to be read
        only.  The budget is read once, for every lift."""
        if not self.track:
            raise UnsupportedRing("this basis was built without cofactors")
        budget = self.within_budget()
        rows, seen = [], set()

        def keep(row):
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                rows.append(row)

        for row in self._syz:
            keep(row)
        one, zero = self.dom.normalize(1), (0,) * self.nvars
        for j, g in enumerate(self.gens):
            row = self._lift_flat(g, budget)
            assert row is not None
            if j < self.track:
                _sub_shifted(row, {self._keys.key(j, zero): one}, 0, -1,
                             self._p, self._keys)
            if row:
                keep(row)
        return rows

    def syzygies(self):
        """Generators of the syzygy module of the original generators, one
        per row of ``syzygy_rows``."""
        return [self._polys(s, self.track) for s in self.syzygy_rows()]


def groebner_ideal(polys, order="grevlex"):
    """Reduced Groebner basis of the ideal generated by polys (rank 1)."""
    gens = [(p,) for p in polys]
    return GBasis(gens, 1, order=order)


def ideal_basis_polys(gb):
    return [e[0] for e in gb.elements]
