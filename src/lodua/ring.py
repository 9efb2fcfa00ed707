"""Computable commutative rings with canonical-form arithmetic.

Supported rings: Z, Q, F_p, polynomial rings over these, quotients by an
ideal (with Groebner normal forms), localization at one non-zerodivisor
(denominators are powers of that element), and ideal-adic completions
tracked at a fixed finite precision N (arithmetic modulo I^N, every answer
stamped with N).  Two elements are equal iff their canonical representatives
coincide, up to the stated precision for completed rings.

When quotient + I^N is generated by monomials (for instance k[[x, y]] at
(x, y), which is truncated power series) the canonical form keeps the terms
no generator divides.  That is the Groebner normal form, which is unique
modulo a monomial ideal, computed without a Groebner basis.  It is
linear, so ``Ring._add_mul`` gives a + b * c one canonical form where the
two operators would give two.

Z and Z_p compute on plain ints.  Each holds one ``_IntArith`` as
``Ring.int_arith``, built with the ring: element sums, differences,
products, negation and powers, ``Ring.el`` of a number and ``from_key``
compute there and build the canonical element directly, with no ``Poly``
arithmetic and no ``_normal``.  ``_IntArith`` is the one home of the mod p^N
rule of Z_p (the numerators of Z_p[1/u] are reduced by Z_p's record).

The ring is the one home of euclidean arithmetic: every euclidean ring
holds one record ``Ring.euclid``, and the Smith loop of ``linalg`` runs on
it.  Z and Z_p hold their ``_IntArith``; u^-1 Z and Z_p[1/u] share
``_LocalArith``; fields and k[t] share ``_LeadArith``.  The last two take
their value operations (zero, one, negation, products) from
``_ElementArith``, the ring's own operators on RingElements.  ``divmod_el``,
``unit_part``, ``is_unit_el`` and ``unit_inverse`` each make one call to
the record.

Lifts and syzygies are asked of ``linalg``'s spans (``unit_inverse`` off
power series, ``_divide_exact`` over a quotient, ``_reject_zerodivisor``);
the one Groebner basis the ring builds is that of its canonical form
(``reduction_basis``).
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from operator import le
import re

from .context import DEFAULT_PRECISION, at_least
from .errors import InvalidInput, PrecisionMismatch, UnsupportedRing
from .expr import parse_poly
from .groebner import GBasis
from .linalg import lift_through, syzygies
from .poly import GF, Poly, QQ, ZZ


# Ring.get interns every ring here, so equal rings are one object and
# Ring.__eq__, Ring.__hash__ and every span key of linalg._span are cheap.
# The table is not bounded: a process meets few rings, and a ring that has
# been built is needed again.  After the seed-1 op list of each benchmark
# workload it holds 2 rings (integer-sweep: Z and Z_5), 8 (poly-sweep: Q and
# F_7 [x,y], each completed at two ideals, and the C2 documents' three
# precisions) and 7 (completed-grid: Q and F_7 [x,y] and their completions
# at (x, y) to the grid's precisions); repeating verbs adds none
# (tests/test_ring.py).  Evicting a ring would leave live elements on an
# object that a later Ring.get no longer returns, so every comparison with
# them would fall back to the structural test.
_RING_CACHE = {}

# A plain integer literal: Ring.el reads it with int(), not the parser.  Only
# ASCII digits, so "2_5", "+5" and " 5" still go to the parser as before.
_INTEGER = re.compile(r"-?[0-9]+")


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prefix_products(gens):
    """prod(c) = gens[c[0]] * ... * gens[c[-1]] for a non-empty index tuple c.

    Each product is built from its prefix, prod(c) = prod(c[:-1]) *
    gens[c[-1]], and remembered, so it costs one multiplication once its
    prefix is known; the values are those of the left-to-right product.
    """
    memo = {(i,): g for i, g in enumerate(gens)}

    def prod(c):
        i = len(c)
        while c[:i] not in memo:
            i -= 1
        f = memo[c[:i]]
        for t in range(i, len(c)):
            f = f * gens[c[t]]
            memo[c[:t + 1]] = f
        return f
    return prod


def power_products(gens, k):
    """Generators of I^k (k >= 1): all degree-k products of the given
    generators, in combinations_with_replacement order."""
    prod = prefix_products(gens)
    return [prod(c) for c in combinations_with_replacement(range(len(gens)), k)]


class Ring:
    def __init__(self, base, p, names, quotient, inverted, completion):
        self.base = base            # 'Z' | 'Q' | 'F'
        self.p = p
        self.names = tuple(names)
        self.quotient = tuple(quotient)
        self.inverted = inverted    # Poly or None
        self.completion = completion  # (tuple of Poly, precision) or None
        self.dom = {"Z": ZZ, "Q": QQ}.get(base) or GF(p)
        self.nvars = len(self.names)
        self._modulus = None
        self._modulus_vectors = {}
        self._reduction = None
        self._monomials = None
        self._series = None
        self._zero = None
        self._one = None
        self._kind = _classify(base, self.nvars, inverted, completion)
        self._hash = hash(self._key())
        self._validate()
        # the euclidean arithmetic of Z or Z_p on plain ints, None on every
        # other ring: a plain attribute, so an operation on a polynomial
        # ring pays one attribute read for the test
        self.int_arith = _IntArith(self) if self._kind in (
            "int", "int_completed") else None
        # the rules of every euclidean ring (divmod, size, unit, inverse)
        self.euclid = self.int_arith or (
            _LocalArith(self) if self._kind == "int_localized" else
            _LeadArith(self) if self._kind == "field" or (
                self._kind == "poly" and self.nvars == 1 and not quotient
                and completion is None) else None)

    # -- construction and interning ----------------------------------------

    @classmethod
    def get(cls, base, p=None, names=(), quotient=(), inverted=None,
            completion=None):
        completion = completion and (tuple(completion[0]), completion[1])
        key = (base, p, tuple(names), tuple(quotient), inverted, completion)
        hit = _RING_CACHE.get(key)
        if hit is None:
            hit = _RING_CACHE[key] = cls(*key)
        return hit

    def _validate(self):
        """Refuse a ring the engine cannot compute in; run on construction,
        so ``Ring.get`` never interns such a ring."""
        if self.completion is not None:
            gens, prec = self.completion
            if prec < 1:
                raise InvalidInput("completion precision must be >= 1")
            if self.base == "Z" and self.nvars == 0:
                if len(gens) != 1 or not gens[0].is_constant():
                    raise InvalidInput("Z-completion needs one integer generator")
                if not _is_prime(self.int_prime):
                    raise UnsupportedRing("Z-completions are supported at primes only")
            elif self.base == "Z":
                raise UnsupportedRing("completion of Z[x...] is not supported")
            elif self.inverted is not None:
                # kernels and lifts work in the Rabinowitsch model, which has
                # no completed form
                raise UnsupportedRing(
                    "localized completed polynomial rings unsupported")
        if self.quotient and self.nvars == 0:
            # the canonical forms reduce by a Groebner basis in the variables
            raise UnsupportedRing(
                "quotients of a ring without variables are not supported; "
                "present the quotient as a cyclic module")
        if self.inverted is not None and self.inverted.is_zero():
            raise InvalidInput("cannot invert zero")

    # -- structural helpers -------------------------------------------------

    @property
    def is_completed(self):
        return self.completion is not None

    @property
    def precision(self):
        return self.completion[1] if self.completion else None

    def underlying(self):
        """The ring with the completion stripped (itself when discrete)."""
        if not self.is_completed:
            return self
        return Ring.get(self.base, self.p, self.names, self.quotient,
                        self.inverted, None)

    def without_inversion(self):
        return Ring.get(self.base, self.p, self.names, self.quotient,
                        None, self.completion)

    def rabinowitsch_model(self):
        """The Rabinowitsch model A[t]/(t*u - 1) of a localized polynomial
        ring u^-1 A (never completed: ``_validate``), t the last variable."""
        nv = self.nvars + 1

        def pad(p, d=0):  # p times t^d
            return Poly(self.dom, nv, {m + (d,): c for m, c in p.terms.items()})

        relation = pad(self.inverted, 1) - Poly.const(self.dom, nv, 1)
        return Ring.get(self.base, self.p, self.names + ("_t",),
                        tuple(map(pad, self.quotient)) + (relation,),
                        None, None)

    def completed(self, gens, precision):
        gens = tuple(g.num if isinstance(g, RingElement) else g for g in gens)
        return Ring.get(self.base, self.p, self.names, self.quotient,
                        self.inverted, (gens, precision))

    def localized(self, x):
        x = self.el(x)
        if x.dexp:
            raise InvalidInput("element is already a denominator power")
        if self.is_unit_el(x):
            return self  # inverting a unit changes nothing
        return Ring.get(self.base, self.p, self.names, self.quotient,
                        x.num, self.completion)

    def at_precision(self, n):
        if not self.is_completed:
            raise PrecisionMismatch("ring is not completed")
        gens, _ = self.completion
        return self.completed(gens, n)

    @property
    def int_prime(self):
        """p over Z_p and Z_p[1/u]: the generator of the completion ideal."""
        return abs(int(self.completion[0][0].constant()))

    @property
    def modulus(self):
        """quotient + I^N as polynomials: what the canonical form reduces by.

        Over Z_p (no variables) the I^N part is the integer modulus instead.
        """
        if self._modulus is None:
            mod = self.quotient
            if self.is_completed and self.nvars > 0:
                cgens, prec = self.completion
                mod += tuple(power_products(cgens, prec))
            self._modulus = mod
        return self._modulus

    def modulus_vectors(self, nrows):
        """Each modulus generator in each coordinate of A^nrows, generator
        by generator, as tuples of Poly; built once per nrows."""
        if nrows not in self._modulus_vectors:
            zero = Poly.zero(self.dom, self.nvars)
            self._modulus_vectors[nrows] = tuple(
                (zero,) * i + (m,) + (zero,) * (nrows - i - 1)
                for m in self.modulus for i in range(nrows))
        return self._modulus_vectors[nrows]

    @property
    def monomial_modulus(self):
        """The minimal exponents of quotient + I^N when every generator is
        one term with a unit coefficient (a monomial ideal), else None.

        Localizations and Z_p keep their own canonical forms.
        """
        if self._monomials is None:
            mod = self.modulus
            mons = False
            if (self.nvars > 0 and self.inverted is None and mod
                    and all(len(g.terms) == 1 and self.dom.is_unit(c)
                            for g in mod for c in g.terms.values())):
                exps = sorted(dict.fromkeys(m for g in mod for m in g.terms),
                              key=sum)
                mons = []
                for m in exps:
                    if not any(all(map(le, g, m)) for g in mons):
                        mons.append(m)
                mons = tuple(mons)
            self._monomials = mons
        return self._monomials or None

    @property
    def is_power_series(self):
        """k[[x_1..x_n]] at precision N: a field base, no quotient, no
        inversion, and completed at the ideal of all the variables, so
        A^/I is the coefficient field and units are the series with a
        nonzero constant term."""
        if self._series is None:
            gens = self.completion[0] if self.is_completed else ()
            linear = {m for g in gens for m in g.terms if sum(m) == 1}
            self._series = (
                self.dom.kind != "Z" and not self.quotient
                and self.inverted is None and self.nvars > 0
                and self.monomial_modulus is not None
                and len(linear) == self.nvars
                and all(sum(m) >= 1 for g in gens for m in g.terms))
        return self._series

    def reduction_basis(self):
        """GB of quotient + I^N, the modulus of the canonical form."""
        if self._reduction is None:
            gens = list(self.modulus)
            if gens and self.nvars > 0:
                self._reduction = GBasis([(g,) for g in gens], 1, track=False)
            else:
                self._reduction = False
        return self._reduction or None

    def classify(self):
        """Engine dispatch key.

        'field' | 'int' | 'int_completed' | 'int_localized' | 'poly' |
        'poly_z' | 'poly_localized'.  Every Z with an element inverted,
        completed or not, is 'int_localized' (see ``_LocalArith``).
        """
        return self._kind

    @property
    def is_euclidean(self):
        return self.euclid is not None

    # -- element construction ------------------------------------------------

    def el(self, x, dexp=0):
        if isinstance(x, RingElement):
            if x.ring is self:
                return x
            return self._coerce(x)
        if isinstance(x, str):
            x = int(x) if _INTEGER.fullmatch(x) else \
                parse_poly(x, self.names, self.dom)
        if isinstance(x, Poly):
            num = x if x.dom == self.dom else Poly(self.dom, self.nvars, x.terms)
        elif isinstance(x, (int, Fraction)):
            ar = self.int_arith
            if ar is not None:
                return ar.to_el(ar.reduce(self.dom.normalize(x)))
            num = Poly.const(self.dom, self.nvars, x)
        else:
            raise InvalidInput(f"cannot interpret {x!r} as a ring element")
        return self._normal(num, dexp)

    def _coerce(self, x):
        # same variable list and base: reinterpret the canonical
        # representative (used for completion and localization maps)
        if x.ring.names != self.names or x.ring.base != self.base or x.ring.p != self.p:
            raise InvalidInput(f"cannot coerce from {x.ring} to {self}")
        if x.dexp and self.inverted != x.ring.inverted:
            raise InvalidInput(
                "cannot coerce an element with denominators into a ring "
                "that does not invert the same element")
        return self.el(x.num, x.dexp)

    def zero(self):
        if self._zero is None:
            self._zero = self.el(0)
        return self._zero

    def one(self):
        if self._one is None:
            self._one = self.el(1)
        return self._one

    def var(self, name):
        return self.el(Poly.var(self.dom, self.nvars, self.names.index(name)))

    # -- the canonical form --------------------------------------------------

    def _reduce_num(self, num):
        if self.nvars == 0:
            if self.inverted is not None and self.is_completed:
                # Z_p[1/u]: a numerator is an element of Z_p
                return self.without_inversion().el(num).num
            return num
        mons = self.monomial_modulus
        if mons is not None:
            low = sum(mons[0])
            return Poly._raw(num.dom, num.nvars, {
                m: c for m, c in num.terms.items()
                if sum(m) < low or not any(all(map(le, g, m)) for g in mons)})
        gb = self.reduction_basis()
        if gb is not None:
            num = gb.normal_form((num,))[0]
        return num

    def _normal(self, num, dexp):
        ar = self.int_arith
        if ar is not None:
            # Z and Z_p invert nothing: dexp is 0
            return ar.to_el(ar.reduce(num.terms.get((), 0)))
        num = self._reduce_num(num)
        if num.is_zero():
            return RingElement(self, num, 0)
        if self.inverted is not None and dexp > 0:
            while dexp > 0:
                q = self._divide_exact(num, self.inverted)
                if q is None:
                    break
                # q * u is num modulo the ideal, so q is not zero either
                num, dexp = self._reduce_num(q), dexp - 1
        return RingElement(self, num, dexp)

    def _add_mul(self, a, b, c):
        """a + b * c, the element the two operators give.  Over Z and Z_p
        one ``_IntArith.add_mul``.  Where the canonical form takes no
        Groebner basis (no modulus, or a monomial one, with nothing
        inverted) one canonical form of the numerator a + b * c, which is
        that of the sum, since truncation is linear.  Elsewhere the two
        operators: a Groebner normal form of the unreduced a + b * c would
        take about the steps of both of theirs against one budget
        (``GBasis.within_budget``), and over Z_p[1/u] one normalization is
        not provably the same representative (the precision seam, ROADMAP
        item 1)."""
        ar = self.int_arith
        if ar is not None:
            return ar.to_el(ar.add_mul(a.num.terms.get((), 0),
                                       b.num.terms.get((), 0),
                                       c.num.terms.get((), 0)))
        if self.inverted is not None or (
                self.modulus and self.monomial_modulus is None):
            return a + b * c
        return self._normal(a.num._add_mul(b.num, c.num), 0)

    def vec_key(self, vec):
        """The canonical, hashable form of a vector of elements: integers
        over Z and Z_p, (numerator, denominator exponent) pairs over a
        localization, else the numerators.  ``from_key`` inverts one entry."""
        if self.int_arith is not None:
            return tuple([e.num.terms.get((), 0) for e in vec])
        if self.inverted is None:
            return tuple([e.num for e in vec])
        return tuple([(e.num, e.dexp) for e in vec])

    def from_key(self, k):
        """The element with canonical form k (an entry of ``vec_key``)."""
        ar = self.int_arith
        if ar is not None:
            return ar.to_el(k)
        if self.inverted is None:
            return RingElement(self, k, 0)
        return RingElement(self, *k)

    def _divide_exact(self, f, g):
        """f/g in the ring without inversion, or None when g does not
        divide f."""
        if self.nvars == 0:
            # numerators of u^-1 Z and Z_p[1/u] divide in Z or Z_p; a field
            # inverts no element, ``localized`` returns it as it is
            ints = self.without_inversion().int_arith
            q, r = ints.divmod(int(f.constant()), int(g.constant()))
            return None if r else Poly.const(self.dom, 0, q)
        if not self.quotient:
            # a Groebner lift over Z[x] refuses non-unit leading coefficients
            return f.exact_div(g)
        base = self.without_inversion()
        q = lift_through(base, [(base.el(g),)], (base.el(f),), 1)
        return None if q is None else q[0].num

    # -- units ---------------------------------------------------------------

    def is_unit_el(self, e):
        e = self.el(e)
        if e.num.is_zero():
            return False
        ar = self.euclid
        if ar is not None:
            return ar.is_unit(ar.from_el(e))
        if self.inverted is None and not self.modulus:  # plain polynomials
            return e.num.is_constant() and self.dom.is_unit(e.num.constant())
        if self.is_completed:
            return self._inverse_mod_ideal(e) is not None
        return self.unit_inverse(e) is not None

    def _inverse_mod_ideal(self, e):
        """v with v * e = 1 modulo the quotient and the completed ideal I,
        or None when e is not a unit of the completion."""
        if self.is_power_series:
            c = e.num.constant()
            return None if c == 0 else Poly.const(self.dom, self.nvars,
                                                  self.dom.inv(c))
        # one lift through e and the generators of I, not of I^N
        base = self.underlying()
        cols = [(base.el(g),) for g in (e.num,) + self.completion[0]]
        x = lift_through(base, cols, (base.one(),), 1)
        return None if x is None else x[0].num

    def inv_el(self, e):
        e = self.el(e)
        inv = self.unit_inverse(e)
        if inv is None:
            raise ZeroDivisionError(f"{e} is not a unit in {self}")
        return inv

    def unit_inverse(self, e):
        """The inverse of e, or None when e is not a unit."""
        e = self.el(e)
        ar = self.euclid
        if ar is not None:
            a = ar.from_el(e)
            return ar.to_el(ar.inv(a)) if ar.is_unit(a) else None
        if e.is_zero():
            return None
        if self.is_completed:
            # an inverse modulo I, and Newton lifting doubles the I-adic
            # accuracy each pass
            v, acc = self._inverse_mod_ideal(e), 1
            if v is None:
                return None
            two = Poly.const(self.dom, self.nvars, 2)
            while acc < self.precision:
                acc *= 2
                v = self._reduce_num(v * (two - e.num * v))
            return self.el(v)
        if self.inverted is not None or self.quotient:
            # x with e * x = 1 is the unique inverse
            x = lift_through(self, [(e,)], (self.one(),), 1)
            return None if x is None else x[0]
        if not self.is_unit_el(e):
            return None
        return self.el(self.dom.inv(e.num.constant()))  # k[x...], Z[x...]

    # -- euclidean rules for the Smith engine ----------------------------------

    def _euclidean(self, what):
        if self.euclid is None:
            raise UnsupportedRing(f"no {what} in {self}")
        return self.euclid

    def divmod_el(self, a, b):
        a, b = self.el(a), self.el(b)
        if b.is_zero():
            raise ZeroDivisionError("division by zero")
        ar = self._euclidean("euclidean division")
        q, r = ar.divmod(ar.from_el(a), ar.from_el(b))
        return ar.to_el(q), ar.to_el(r)

    def unit_part(self, d):
        """u with d = u * canonical(d), for nonzero d of a euclidean ring:
        the sign over Z, the part prime to p over Z_p, the unit that the
        record of u^-1 Z or Z_p[1/u] splits off, and the leading
        coefficient over a field or k[t]."""
        ar = self._euclidean("unit part")
        return ar.to_el(ar.unit(ar.from_el(d)))

    # -- misc -----------------------------------------------------------------

    def __repr__(self):
        base = {"Z": "ZZ", "Q": "QQ"}.get(self.base, f"GF({self.p})")
        s = base
        if self.names:
            s += "[" + ",".join(self.names) + "]"
        if self.quotient:
            s += "/(" + ", ".join(q.render(self.names) for q in self.quotient) + ")"
        if self.inverted is not None:
            s += f"[({self.inverted.render(self.names)})^-1]"
        if self.completion:
            gens, prec = self.completion
            s += " completed at (" + ", ".join(g.render(self.names) for g in gens) + \
                 f") to precision {prec}"
        return s

    def _key(self):
        return (self.base, self.p, self.names, self.quotient, self.inverted,
                self.completion)

    # Rings come only from Ring.get, which interns them, so equal rings are
    # almost always one object; the structural test is the fallback.
    def __eq__(self, other):
        return self is other or (
            isinstance(other, Ring) and self._key() == other._key())

    def __hash__(self):
        return self._hash


def _classify(base, nvars, inverted, completion):
    """The dispatch key of Ring.classify, fixed at construction."""
    if inverted is not None:  # over Z only: localizing a field returns it
        return "int_localized" if nvars == 0 else "poly_localized"
    if nvars == 0:
        if base == "Z":
            return "int_completed" if completion is not None else "int"
        return "field"
    if base == "Z":
        return "poly_z"
    return "poly"


class _IntArith:
    """Z, or Z_p at precision N with every value reduced mod p^N, on plain
    ints: the one copy of the canonical form and of each ring operation,
    division, size and unit rule of these rings (see the module docstring).
    A value is an int; over Z_p it lies in [0, p^N)."""

    __slots__ = ("ring", "dom", "m", "p")
    zero, one = 0, 1

    def __init__(self, ring):
        self.ring = ring
        self.dom = ring.dom
        self.m = self.p = None
        if ring.is_completed:
            # p^N: the canonical form of Z_p at precision N reduces by it
            self.p = ring.int_prime
            self.m = self.p ** ring.precision

    def reduce(self, a):
        """The value of the integer a: a mod p^N over Z_p, a over Z."""
        return a % self.m if self.m else a

    def from_el(self, e):
        return self.reduce(e.num.terms.get((), 0))

    def to_el(self, a):
        """The canonical element of the value a."""
        return RingElement(self.ring, Poly._raw_const(self.dom, a), 0)

    def add(self, a, b):
        return (a + b) % self.m if self.m else a + b

    def sub(self, a, b):
        return (a - b) % self.m if self.m else a - b

    def pow(self, a, n):
        return pow(a, n, self.m) if self.m else a ** n

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a % self.p != 0 if self.m else a in (1, -1)

    def val_unit(self, a):
        """(v, u) with a = p^v * u mod p^N, u prime to p; zero gets v = N."""
        a %= self.m
        if a == 0:
            return self.ring.precision, 1
        p, v = self.p, 0
        while a % p == 0:
            a //= p
            v += 1
        return v, a

    def size(self, a):
        if self.m:
            return self.val_unit(a)[0] + 1
        return abs(a)

    def divmod(self, a, b):
        m = self.m
        if m:
            if a % m == 0:
                return 0, 0  # zero divides to zero, not to p^(N-v)/u
            # a = p^va * ua and b = p^vb * ub: b divides a iff va >= vb
            va, ua = self.val_unit(a)
            vb, ub = self.val_unit(b)
            if va >= vb:
                return self.p ** (va - vb) * ua * pow(ub, -1, m) % m, 0
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

    def unit(self, d):
        """u with d = u * canonical(d): the sign, or the part prime to p."""
        if self.m:
            return self.val_unit(d)[1]
        return -1 if d < 0 else 1

    def inv(self, u):
        return pow(u, -1, self.m) if self.m else u


class _ElementArith:
    """The value operations of a record whose values are RingElements: the
    identity ``from_el``/``to_el`` and the ring's own operators."""

    __slots__ = ("ring",)

    def __init__(self, ring):
        self.ring = ring

    zero = property(lambda self: self.ring.zero())
    one = property(lambda self: self.ring.one())

    def from_el(self, e):
        return e

    to_el = from_el

    def is_zero(self, a):
        return a.is_zero()

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def add_mul(self, a, c, b):
        return a + c * b


class _LocalArith(_ElementArith):
    """u^-1 B for B = Z or Z_p, on RingElements: B's rules (its
    ``_IntArith``) on the numerator once every factor it shares with w, the
    part of u that B does not invert (|u| over Z, the power of p in u over
    Z_p), is divided out.  So Z_p[1/u] is Q_p when p | u, else Z_p."""

    __slots__ = ("ints", "u", "w")

    def __init__(self, ring):
        super().__init__(ring)
        self.u = int(ring.inverted.constant())
        self.ints = ints = ring.without_inversion().int_arith
        self.w = ints.mul(self.u, ints.inv(ints.unit(self.u)))
        if not self.w:  # u is 0 mod p^N, and u/u = 1 would be 0
            raise UnsupportedRing(f"{self.u} is 0 in {ring}")

    def _split(self, e):
        """(s, c, f) with e's numerator s * c * f: f the product of the
        factors it shares with w, c a unit and s canonical in B."""
        a, f = e.num.terms.get((), 0), 1
        while a and (g := gcd(a, self.w)) > 1:
            a, f = a // g, f * g
        c = self.ints.unit(a)
        return self.ints.mul(a, self.ints.inv(c)), c, f

    def is_unit(self, e):
        return self.ints.is_unit(self._split(e)[0])

    def size(self, e):
        return self.ints.size(self._split(e)[0])

    def divmod(self, a, b):
        q, r = self.ints.divmod(self._split(a)[0], self._split(b)[0])
        ua, el = self.unit(a), self.ring.el
        return el(q) * ua * self.inv(self.unit(b)), el(r) * ua

    def unit(self, d):
        _, c, f = self._split(d)
        return self.ring.el(c * f, d.dexp)

    def inv(self, e):
        """e = c * f / u^d has the inverse c^-1 * (u^(d+k) / f) / u^k, k
        the least with f | u^(d+k): canonical, so no numerator is divided.
        A non-unit, such as the zero that the precision seam of Z_p[1/u]
        can leave as an inverse, has none."""
        if not self.is_unit(e):
            raise ZeroDivisionError(f"{e} is not a unit in {self.ring}")
        (_, c, f), n = self._split(e), self.u ** e.dexp
        k = 0
        while n % f:
            n, k = n * self.u, k + 1
        return self.ring.el(self.ints.mul(self.ints.inv(c), n // f), k)


class _LeadArith(_ElementArith):
    """A field or k[t], on RingElements: one leading-term division, the
    degree plus one as the size (a nonzero element is a unit exactly when
    its size is 1) and the leading coefficient as the unit part."""

    __slots__ = ()

    def size(self, a):
        return a.num.total_degree() + 1

    def is_unit(self, a):
        return self.size(a) == 1

    def divmod(self, a, b):
        dom, nvars = self.ring.dom, self.ring.nvars
        (bm, bc), q, r = b.num.leading(sum), Poly.zero(dom, nvars), a.num
        while not r.is_zero():
            rm, rc = r.leading(sum)
            if sum(rm) < sum(bm):
                break
            t = Poly(dom, nvars, {tuple(x - y for x, y in zip(rm, bm)):
                                  rc * dom.inv(bc)})
            q, r = q + t, r - t * b.num
        return self.ring.el(q), self.ring.el(r)

    def unit(self, d):
        return self.ring.el(d.num.leading(sum)[1])

    def inv(self, u):
        return self.ring.el(self.ring.dom.inv(u.num.constant()))


class RingElement:
    __slots__ = ("ring", "num", "dexp")

    def __init__(self, ring, num, dexp):
        self.ring = ring
        self.num = num
        self.dexp = dexp

    def is_zero(self):
        return self.num.is_zero()

    def is_unit(self):
        return self.ring.is_unit_el(self)

    def inv(self):
        return self.ring.inv_el(self)

    def _match(self, other):
        if not isinstance(other, RingElement):
            other = self.ring.el(other)
        if other.ring is not self.ring and other.ring != self.ring:
            raise InvalidInput(f"mixed rings {self.ring} and {other.ring}")
        return other

    # Over Z and Z_p (``Ring.int_arith`` set) the operators compute on the
    # ints of ``_IntArith`` inside these same methods, so a wrapper that
    # counts an operator by name (perfbench's CallCounter) sees every call.

    def __add__(self, other):
        other = self._match(other)
        r = self.ring
        ar = r.int_arith
        if ar is not None:
            return ar.to_el(ar.add(self.num.terms.get((), 0),
                                   other.num.terms.get((), 0)))
        if self.dexp == other.dexp:
            return r._normal(self.num + other.num, self.dexp)
        lo, hi = sorted((self, other), key=lambda e: e.dexp)
        scaled = lo.num * r.inverted ** (hi.dexp - lo.dexp)
        return r._normal(scaled + hi.num, hi.dexp)

    __radd__ = __add__

    def __neg__(self):
        r = self.ring
        ar = r.int_arith
        if ar is not None:
            return ar.to_el(ar.neg(self.num.terms.get((), 0)))
        if r.nvars == 0 and r.completion is not None:
            # over Z_p[1/u] numerators stay in [0, p^N)
            return r._normal(-self.num, self.dexp)
        return RingElement(r, -self.num, self.dexp)

    def __sub__(self, other):
        other = self._match(other)
        ar = self.ring.int_arith
        if ar is not None:
            return ar.to_el(ar.sub(self.num.terms.get((), 0),
                                   other.num.terms.get((), 0)))
        return self + (-other)

    def __rsub__(self, other):
        return self._match(other) - self

    def __mul__(self, other):
        other = self._match(other)
        r = self.ring
        ar = r.int_arith
        if ar is not None:
            return ar.to_el(ar.mul(self.num.terms.get((), 0),
                                   other.num.terms.get((), 0)))
        return r._normal(self.num * other.num, self.dexp + other.dexp)

    __rmul__ = __mul__

    def __pow__(self, n):
        assert n >= 0
        r = self.ring
        ar = r.int_arith
        if ar is not None:
            return ar.to_el(ar.pow(self.num.terms.get((), 0), n))
        return r._normal(self.num ** n, self.dexp * n)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            try:
                other = self.ring.el(other)
            except Exception:
                return NotImplemented
        return (self.ring == other.ring and self.num == other.num
                and self.dexp == other.dexp)

    def __hash__(self):
        return hash((self.ring, self.num, self.dexp))

    def render(self):
        s = self.num.render(self.ring.names)
        if self.dexp:
            inv = self.ring.inverted.render(self.ring.names)
            s = f"({s})/({inv})^{self.dexp}" if self.dexp > 1 else f"({s})/({inv})"
        return s

    __repr__ = render


# -- descriptor front door ----------------------------------------------------


def make_ring(descriptor):
    """Build a Ring from a descriptor dict (the CLI JSON schema shape).

    Keys: base ('Z' | 'Q' | 'Fp'), p (with Fp only), vars, quotient,
    invert, completion {ideal, precision}.  Each is checked for type first:
    vars a list of names, quotient and the completion ideal lists of
    element expressions (the ideal nonempty), the precision an integer of
    at least 1.  Rejects inverting a provable zerodivisor (detected by a
    syzygy computation).
    """
    if not isinstance(descriptor, dict):
        raise InvalidInput(f"ring must be a JSON object, not {descriptor!r}")
    base = descriptor.get("base", "Z")
    p = descriptor.get("p")
    if base == "Fp":
        base = "F"
    if base not in ("Z", "Q", "F"):
        raise InvalidInput(f"unknown base {base!r}")
    # before Ring.get, whose coefficient domain asserts a prime
    if base == "F" and not (type(p) is int and _is_prime(p)):
        raise InvalidInput(f"characteristic {p!r} is not prime")
    if base != "F" and p is not None:
        raise InvalidInput(f"p is the characteristic of base Fp, not of "
                           f"{base}")
    names = _listed("ring vars", "names", descriptor.get("vars", []),
                    lambda v: isinstance(v, str) and v.isidentifier())
    if len(set(names)) != len(names):
        raise InvalidInput("duplicate variable names")
    plain = Ring.get(base, p, names)
    quotient = tuple(plain.el(q).num for q in _listed(
        "ring quotient", "element expressions", descriptor.get("quotient", []),
        _is_expression))
    ring = Ring.get(base, p, names, quotient)
    if quotient and ring.monomial_modulus is None:
        ring.reduction_basis().within_budget()  # fails early on budget problems
    comp = descriptor.get("completion")
    if comp is not None:
        if not isinstance(comp, dict) or "ideal" not in comp:
            raise InvalidInput("ring completion must be a JSON object with an "
                               f"'ideal', not {comp!r}")
        ideal = _listed("completion ideal", "element expressions",
                        comp["ideal"], _is_expression)
        if not ideal:
            raise InvalidInput("completion ideal must be nonempty")
        ring = ring.completed(
            tuple(ring.el(g).num for g in ideal),
            at_least("completion precision",
                     comp.get("precision", DEFAULT_PRECISION), 1))
    inv = descriptor.get("invert")
    if inv is not None:
        if not _is_expression(inv):
            raise InvalidInput(f"ring invert must be an element expression, "
                               f"not {inv!r}")
        x = ring.el(inv)
        if x.is_zero():
            raise InvalidInput("cannot invert zero")
        _reject_zerodivisor(ring, x)
        ring = ring.localized(x)
    return ring


def _is_expression(value):
    """An element expression of a document: a string or an integer, not a
    boolean."""
    return type(value) in (str, int)


def _listed(what, entries, value, check):
    """``value`` as a tuple, checked to be a list whose every entry passes
    ``check``."""
    if not isinstance(value, (list, tuple)) or not all(map(check, value)):
        raise InvalidInput(f"{what} must be a list of {entries}, not "
                           f"{value!r}")
    return tuple(value)


def _reject_zerodivisor(ring, x):
    """Certificate-based zerodivisor detection before localizing: the first
    nonzero w with w * x = 0 modulo the quotient, read off the syzygies."""
    if ring.nvars == 0 or not ring.quotient:
        return  # Z, Q, F_p, Z_p and polynomial rings over them are domains
    base = ring.underlying()
    for (w,) in syzygies(base, [(base.el(x.num),)], 1):
        witness = ring.el(w)
        if not witness.is_zero():
            raise InvalidInput(
                f"{x.render()} is a zerodivisor: {witness.render()} kills it")


def groebner_basis(ring, gens):
    """The reduced grevlex Groebner basis of an ideal, as ring elements.

    Deterministic: repeated calls return identical bases.  Budget overruns
    raise BudgetExceeded carrying the partial basis.
    """
    if ring.quotient or ring.is_completed or ring.inverted is not None:
        raise UnsupportedRing("groebner_basis expects a plain polynomial ring")
    polys = [ring.el(g).num if not isinstance(g, RingElement) else g.num
             for g in gens]
    gb = GBasis([(p,) for p in polys], 1, track=False)
    return [ring.el(p) for p, in gb.elements]
