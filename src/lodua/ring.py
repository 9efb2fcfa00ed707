"""Computable commutative rings with canonical-form arithmetic.

Supported rings: Z, Q, F_p, polynomial rings over these, quotients by an
ideal (with Groebner normal forms), localization at one non-zerodivisor
(denominators are powers of that element), and ideal-adic completions
tracked at a fixed finite precision N (arithmetic modulo I^N, every answer
stamped with N).  Two elements are equal iff their canonical representatives
coincide, up to the stated precision for completed rings.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import InvalidInput, PrecisionMismatch, UnsupportedRing
from .expr import parse_poly
from .groebner import GBasis, groebner_ideal, ideal_basis_polys
from .poly import GF, Poly, QQ, ZZ, order_key

DEFAULT_PRECISION = 20

_RING_CACHE = {}


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
    def __init__(self, base, p, names, quotient, inverted, completion, order):
        self.base = base            # 'Z' | 'Q' | 'F'
        self.p = p
        self.names = tuple(names)
        self.quotient = tuple(quotient)
        self.inverted = inverted    # Poly or None
        self.completion = completion  # (tuple of Poly, precision) or None
        self.order = order
        self.dom = {"Z": ZZ, "Q": QQ}.get(base) or GF(p)
        self.nvars = len(self.names)
        self._modulus = None
        self._reduction = None
        self._int_modulus = None

    # -- construction and interning ----------------------------------------

    @classmethod
    def get(cls, base, p=None, names=(), quotient=(), inverted=None,
            completion=None, order="grevlex"):
        key = (base, p, tuple(names), tuple(quotient), inverted,
               completion and (tuple(completion[0]), completion[1]), order)
        hit = _RING_CACHE.get(key)
        if hit is None:
            hit = cls(base, p, names, tuple(quotient), inverted,
                      completion and (tuple(completion[0]), completion[1]), order)
            _RING_CACHE[key] = hit
        return hit

    def _validate(self):
        if self.base == "F" and not _is_prime(self.p or 0):
            raise InvalidInput(f"characteristic {self.p} is not prime")
        if self.completion is not None:
            gens, prec = self.completion
            if prec < 1:
                raise InvalidInput("completion precision must be >= 1")
            if self.base == "Z" and self.nvars == 0:
                if len(gens) != 1 or not gens[0].is_constant():
                    raise InvalidInput("Z-completion needs one integer generator")
                m = abs(int(gens[0].constant()))
                if not _is_prime(m):
                    raise UnsupportedRing("Z-completions are supported at primes only")
            elif self.base == "Z":
                raise UnsupportedRing("completion of Z[x...] is not supported")
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
                        self.inverted, None, self.order)

    def without_inversion(self):
        if self.inverted is None:
            return self
        return Ring.get(self.base, self.p, self.names, self.quotient,
                        None, self.completion, self.order)

    def completed(self, gens, precision=DEFAULT_PRECISION):
        gens = tuple(g.num if isinstance(g, RingElement) else g for g in gens)
        r = Ring.get(self.base, self.p, self.names, self.quotient,
                     self.inverted, (gens, precision), self.order)
        r._validate()
        return r

    def localized(self, x):
        x = self.el(x)
        if x.dexp:
            raise InvalidInput("element is already a denominator power")
        if self.is_unit_el(x):
            return self  # inverting a unit changes nothing
        r = Ring.get(self.base, self.p, self.names, self.quotient,
                     x.num, self.completion, self.order)
        r._validate()
        return r

    def at_precision(self, n):
        if not self.is_completed:
            raise PrecisionMismatch("ring is not completed")
        gens, _ = self.completion
        return self.completed(gens, n)

    @property
    def int_modulus(self):
        """p^N over Z_p at precision N: the canonical form reduces by it."""
        if self._int_modulus is None:
            gens, prec = self.completion
            self._int_modulus = abs(int(gens[0].constant())) ** prec
        return self._int_modulus

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

    def reduction_basis(self):
        """GB of quotient + I^N, the modulus of the canonical form."""
        if self._reduction is None:
            gens = list(self.modulus)
            if gens and self.nvars > 0:
                self._reduction = groebner_ideal(gens, self.order)
            else:
                self._reduction = False
        return self._reduction or None

    def classify(self):
        """Engine dispatch key.

        'field' | 'int' | 'int_completed' | 'int_localized' | 'poly' |
        'poly_z' | 'poly_localized'.  A completed Z localized at its own
        prime (Q_p at precision) behaves as a field at precision.
        """
        if self.inverted is not None:
            if self.nvars == 0 and self.base == "Z":
                return "field" if self.is_completed else "int_localized"
            if self.nvars == 0:
                return "field"
            return "poly_localized"
        if self.nvars == 0:
            if self.base == "Z":
                return "int_completed" if self.is_completed else "int"
            return "field"
        if self.base == "Z":
            return "poly_z"
        return "poly"

    @property
    def is_euclidean(self):
        k = self.classify()
        if k in ("field", "int", "int_completed", "int_localized"):
            return True
        return (k == "poly" and self.nvars == 1 and not self.quotient
                and not self.is_completed)

    # -- element construction ------------------------------------------------

    def el(self, x, dexp=0):
        if isinstance(x, RingElement):
            if x.ring is self:
                return x
            return self._coerce(x)
        if isinstance(x, str):
            num = parse_poly(x, self.names, self.dom)
        elif isinstance(x, Poly):
            num = x if x.dom == self.dom else Poly(self.dom, self.nvars, x.terms)
        elif isinstance(x, (int, Fraction)):
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
        return self._normal(Poly(self.dom, self.nvars, x.num.terms), x.dexp)

    def zero(self):
        return self.el(0)

    def one(self):
        return self.el(1)

    def var(self, name):
        return self.el(Poly.var(self.dom, self.nvars, self.names.index(name)))

    # -- the canonical form --------------------------------------------------

    def _reduce_num(self, num):
        if self.nvars == 0:
            if self.classify() == "int_completed" or (
                    self.inverted is not None and self.is_completed):
                c = int(num.constant()) % self.int_modulus
                return Poly.const(self.dom, 0, c)
            return num
        gb = self.reduction_basis()
        if gb is not None:
            num = gb.normal_form((num,))[0]
        return num

    def _normal(self, num, dexp):
        num = self._reduce_num(num)
        if num.is_zero():
            return RingElement(self, num, 0)
        if self.inverted is not None and dexp > 0:
            while dexp > 0:
                q = self._divide_exact(num, self.inverted)
                if q is None:
                    break
                num, dexp = self._reduce_num(q), dexp - 1
                if num.is_zero():
                    return RingElement(self, num, 0)
        return RingElement(self, num, dexp)

    def _divide_exact(self, f, g):
        """f/g in the quotient ring, or None when g does not divide f."""
        if self.nvars == 0:
            a, b = f.constant(), g.constant()
            if self.classify() in ("int",) or (self.base == "Z" and not self.is_completed):
                q = self.dom.exact_div(a, b)
                return None if q is None else Poly.const(self.dom, 0, q)
            if self.base == "Z" and self.is_completed:
                m = self.int_modulus
                pgen = abs(int(self.completion[0][0].constant()))
                va, ua = _val_unit(int(a), pgen, m)
                vb, ub = _val_unit(int(b), pgen, m)
                if va < vb:
                    return None
                q = (pgen ** (va - vb)) * ua * pow(ub, -1, m) % m
                return Poly.const(self.dom, 0, q)
            return Poly.const(self.dom, 0, self.dom.exact_div(a, b))
        if not self.quotient and not self.is_completed:
            return f.exact_div(g, order_key(self.order))
        gb = GBasis([(g,)] + [(m,) for m in self.modulus], 1, order=self.order)
        cof = gb.lift((f,))
        return None if cof is None else cof[0]

    # -- units ---------------------------------------------------------------

    def is_unit_el(self, e):
        e = self.el(e)
        if e.num.is_zero():
            return False
        num = e.num
        if self.inverted is not None:
            base = self.without_inversion()
            while True:
                q = base._divide_exact(num, self.inverted)
                if q is None:
                    break
                num = q
            return base.is_unit_el(base.el(num))
        k = self.classify()
        if k == "int":
            return num.is_constant() and num.constant() in (1, -1)
        if k == "int_completed":
            return int(num.constant()) % abs(int(self.completion[0][0].constant())) != 0
        if k == "field":
            return True
        if not self.quotient and not self.is_completed:
            return num.is_constant() and self.dom.is_unit(num.constant())
        return self._unit_cofactor(num) is not None

    def _unit_cofactor(self, num):
        """c with c * num = 1 modulo quotient + I, or None for a nonunit.

        Over a completion a unit modulo I itself is a unit (Newton lifting).
        """
        mod = list(self.quotient)
        if self.is_completed:
            mod += list(self.completion[0])
        gb = GBasis([(num,)] + [(m,) for m in mod], 1, order=self.order)
        cof = gb.lift((Poly.const(self.dom, self.nvars, 1),))
        return None if cof is None else cof[0]

    def inv_el(self, e):
        e = self.el(e)
        inv = self.unit_inverse(e)
        if inv is None:
            raise ZeroDivisionError(f"{e} is not a unit in {self}")
        return inv

    def unit_inverse(self, e):
        """The inverse of e, or None when e is not a unit."""
        e = self.el(e)
        if self.inverted is None and self.nvars > 0 and (
                self.quotient or self.is_completed):
            # one Groebner basis answers both the unit test and the lift
            v = None if e.is_zero() else self._unit_cofactor(e.num)
            if v is None:
                return None
            if self.is_completed:
                # Newton lifting doubles I-adic accuracy each pass
                prec = self.completion[1]
                two = Poly.const(self.dom, self.nvars, 2)
                steps, acc = 0, 1
                while acc < prec:
                    acc, steps = acc * 2, steps + 1
                for _ in range(steps):
                    v = self._reduce_num(v * (two - e.num * v))
            return self.el(v)
        if not self.is_unit_el(e):
            return None
        if self.inverted is not None:
            base = self.without_inversion()
            num, extra = e.num, 0
            while True:
                q = base._divide_exact(num, self.inverted)
                if q is None:
                    break
                num, extra = q, extra + 1
            inv_base = base.inv_el(base.el(num))
            return self._normal(inv_base.num * self.inverted ** e.dexp,
                                extra + inv_base.dexp)
        k = self.classify()
        if k == "field" or k == "poly":
            return self.el(Poly.const(self.dom, self.nvars, self.dom.inv(e.num.constant())))
        if k == "int_completed":
            return self.el(pow(int(e.num.constant()), -1, self.int_modulus))
        return e  # the units of Z and Z[x...] are +-1

    # -- euclidean divmod for the Smith engine --------------------------------

    def strip_inverted(self, e):
        """(canonical part, unit) with e = unit * canonical part.

        Over u^-1 Z: strips all factors of u as well as the sign, so the
        canonical part is a positive integer prime to u.
        """
        e = self.el(e)
        if e.is_zero():
            return e, self.one()
        a = int(e.num.constant())
        u = abs(int(self.inverted.constant()))
        sign = -1 if a < 0 else 1
        a = abs(a)
        stripped_factor = 1
        g = _gcd(a, u)
        while g > 1:
            a //= g
            stripped_factor *= g
            g = _gcd(a, u)
        unit = self._normal(Poly.const(self.dom, 0, sign * stripped_factor), e.dexp)
        return self.el(a), unit

    def divmod_el(self, a, b):
        a, b = self.el(a), self.el(b)
        if b.is_zero():
            raise ZeroDivisionError("division by zero")
        k = self.classify()
        if k == "int_localized":
            sa, ua = self.strip_inverted(a)
            sb, ub = self.strip_inverted(b)
            ia, ib = int(sa.num.constant()), int(sb.num.constant())
            q0, r0 = divmod(ia, ib)
            if r0 != 0 and 2 * r0 > ib:
                q0, r0 = q0 + 1, r0 - ib
            return (self.el(q0) * ua * ub.inv(), self.el(r0) * ua)
        if k == "int":
            q, r = divmod(int(a.num.constant()), int(b.num.constant()))
            # prefer the remainder of smaller magnitude for faster descent
            if r != 0 and 2 * r > abs(int(b.num.constant())):
                q, r = q + 1, r - abs(int(b.num.constant()))
            return self.el(q), self.el(r)
        if k == "field":
            return a * self.inv_el(b), self.zero()
        if k == "int_completed":
            m = self.int_modulus
            pgen = abs(int(self.completion[0][0].constant()))
            va, ua = _val_unit(int(a.num.constant()), pgen, m)
            vb, ub = _val_unit(int(b.num.constant()), pgen, m)
            if va >= vb:
                q = pgen ** (va - vb) * ua * pow(ub, -1, m) % m
                return self.el(q), self.zero()
            return self.zero(), a
        if k == "poly" and self.is_euclidean:
            return self._poly_divmod(a, b)
        raise UnsupportedRing(f"no euclidean division in {self}")

    def _poly_divmod(self, a, b):
        key = order_key("lex")
        q = Poly.zero(self.dom, 1)
        r = a.num
        bm, bc = b.num.leading(key)
        while not r.is_zero():
            rm, rc = r.leading(key)
            if rm[0] < bm[0]:
                break
            t = Poly(self.dom, 1, {(rm[0] - bm[0],): self.dom.mul(rc, self.dom.inv(bc))})
            q = q + t
            r = r - t * b.num
        return self.el(q), self.el(r)

    def euclidean_size(self, a):
        a = self.el(a)
        if a.is_zero():
            return -1
        k = self.classify()
        if k == "int_localized":
            stripped, _ = self.strip_inverted(a)
            return abs(int(stripped.num.constant()))
        if k == "int":
            return abs(int(a.num.constant()))
        if k == "field":
            return 1
        if k == "int_completed":
            pgen = abs(int(self.completion[0][0].constant()))
            v, _ = _val_unit(int(a.num.constant()), pgen, self.int_modulus)
            return v + 1
        if k == "poly" and self.is_euclidean:
            return a.num.total_degree() + 1
        raise UnsupportedRing(f"no euclidean size in {self}")

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
                self.completion, self.order)

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def _val_unit(a, p, m):
    """(v, u) with a = p^v * u mod m, u prime to p; zero gets full valuation."""
    a %= m
    if a == 0:
        v = 0
        mm = m
        while mm > 1:
            mm //= p
            v += 1
        return v, 1
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


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
        if other.ring != self.ring:
            raise InvalidInput(f"mixed rings {self.ring} and {other.ring}")
        return other

    def __add__(self, other):
        other = self._match(other)
        r = self.ring
        if self.dexp == other.dexp:
            return r._normal(self.num + other.num, self.dexp)
        lo, hi = sorted((self, other), key=lambda e: e.dexp)
        scaled = lo.num * r.inverted ** (hi.dexp - lo.dexp)
        return r._normal(scaled + hi.num, hi.dexp)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, -self.num, self.dexp)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return self._match(other) + (-self)

    def __mul__(self, other):
        other = self._match(other)
        return self.ring._normal(self.num * other.num, self.dexp + other.dexp)

    __rmul__ = __mul__

    def __pow__(self, n):
        assert n >= 0
        return self.ring._normal(self.num ** n, self.dexp * n)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            try:
                other = self.ring.el(other)
            except Exception:
                return NotImplemented
        return (self.ring == other.ring and self.num == other.num
                and self.dexp == other.dexp)

    def __hash__(self):
        return hash((self.ring._key(), self.num, self.dexp))

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

    Keys: base ('Z' | 'Q' | 'Fp'), p, vars, quotient, invert,
    completion {ideal, precision}.  Rejects inverting a provable
    zerodivisor (detected by a syzygy computation).
    """
    base = descriptor.get("base", "Z")
    p = descriptor.get("p")
    if base == "Fp":
        base = "F"
    if base not in ("Z", "Q", "F"):
        raise InvalidInput(f"unknown base {base!r}")
    names = tuple(descriptor.get("vars", ()))
    if len(set(names)) != len(names):
        raise InvalidInput("duplicate variable names")
    plain = Ring.get(base, p, names)
    quotient = tuple(plain.el(q).num for q in descriptor.get("quotient", ()))
    ring = Ring.get(base, p, names, quotient)
    ring._validate()
    if quotient:
        ring.reduction_basis()  # fails early on budget problems
    comp = descriptor.get("completion")
    if comp:
        gens = tuple(ring.el(g).num for g in comp["ideal"])
        ring = ring.completed(gens, comp.get("precision", DEFAULT_PRECISION))
    inv = descriptor.get("invert")
    if inv is not None:
        x = ring.el(inv)
        if x.is_zero():
            raise InvalidInput("cannot invert zero")
        _reject_zerodivisor(ring, x)
        ring = ring.localized(x)
    return ring


def _reject_zerodivisor(ring, x):
    """Certificate-based zerodivisor detection before localizing."""
    if ring.nvars == 0:
        return  # domains (Z, Q, F_p) and valuation rings at a prime
    if not ring.quotient:
        return  # polynomial rings over domains are domains
    vecs = [(x.num,)] + [(q,) for q in ring.quotient]
    gb = GBasis(vecs, 1, order=ring.order)
    for syz in gb.syzygies():
        witness = ring.el(syz[0])
        if not witness.is_zero():
            raise InvalidInput(
                f"{x.render()} is a zerodivisor: {witness.render()} kills it")


def normal_form(ring, expression):
    """Canonical representative of an element expression; idempotent."""
    return ring.el(expression)


def groebner_basis(ring, gens, order=None, budget=None):
    """The reduced Groebner basis of an ideal, as ring elements.

    Deterministic: repeated calls return identical bases.  Budget overruns
    raise BudgetExceeded carrying the partial basis.
    """
    if ring.quotient or ring.is_completed or ring.inverted is not None:
        raise UnsupportedRing("groebner_basis expects a plain polynomial ring")
    order = order or ring.order
    polys = [ring.el(g).num if not isinstance(g, RingElement) else g.num
             for g in gens]
    gb = groebner_ideal(polys, order=order, budget=budget)
    return [ring.el(p) for p in ideal_basis_polys(gb)]
