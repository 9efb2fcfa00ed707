"""Exact multivariate polynomial arithmetic over Z, Q and prime fields.

Polynomials are dictionaries {exponent tuple: coefficient} with no zero
coefficients stored.  Everything here is immutable-by-convention: operations
return fresh Poly objects.

Coefficients have one canonical form per domain: over Z a Python int; over
F_p an int in 1..p-1; over Q an int when the value is integral and a
``Fraction`` only when its denominator is not 1, as Singular stores small
rationals.  Since ``Fraction(n) == n``, ``hash(Fraction(n)) == hash(n)`` and
``str(Fraction(n)) == str(n)``, the form changes no equality, hash or
rendering; it spares building a Fraction for the usual 1, -1 or 3.

The kernels (``+``, ``-``, ``*``, ``scale``, negation, and the fused
``_add_mul``, a + b * c) add and multiply canonical values with native
``+`` and ``*`` into one dict, and ``Poly._canon`` then reduces that dict
once per result: mod p over F_p, integral Fractions to int over Q, zeros
dropped.  Over Q, when a Fraction is among the operands, ``+``, ``-``,
``*``, ``_add_mul`` and ``scale`` run on numerators
and denominators instead (``_q_sum``, ``_q_product``): each stored value
costs one gcd (``qcoeff``), and a Fraction is built, without a second gcd
(``fraction``), only where a denominator remains.  ``Domain.inv`` and
``Domain.exact_div`` divide the same way (``int / int`` would give a
float), and ``groebner`` updates its vectors with the same two helpers.
"""

from fractions import Fraction
from math import gcd
from operator import add


class Domain:
    """Coefficient domain: the integers, the rationals, or a prime field."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        assert kind in ("Z", "Q", "F")
        if kind == "F":
            assert isinstance(p, int) and p >= 2
            for d in range(2, p):
                if d * d > p:
                    break
                if p % d == 0:
                    raise ValueError(f"{p} is not prime")
        self.kind = kind
        self.p = p

    def normalize(self, c):
        if self.kind == "Z":
            if type(c) is int:
                return c
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError(f"{c} is not an integer")
                return int(c)
            return int(c)
        if self.kind == "Q":
            if type(c) is int:
                return c
            if type(c) is not Fraction:
                c = Fraction(c)
            return c.numerator if c.denominator == 1 else c
        return int(c) % self.p

    def is_unit(self, a):
        if self.kind == "Z":
            return a in (1, -1)
        return a != 0

    def inv(self, a):
        if self.kind == "F":
            return pow(a, -1, self.p)
        if type(a) is not int:    # a Fraction, over Q
            n, d = a._numerator, a._denominator
            if n < 0:
                n, d = -n, -d
            return d if n == 1 else fraction(d, n)
        if a == 1 or a == -1:
            return a
        if self.kind == "Z" or not a:
            raise ZeroDivisionError(f"{a} is not a unit in {self.kind}")
        # the one division of coefficients: int / int would give a float
        return fraction(1, a) if a > 0 else fraction(-1, -a)

    def exact_div(self, a, b):
        """a/b when it exists in the domain, else None."""
        if self.kind == "Q":
            if type(b) is int:
                if b == 1:
                    return a
                if not b:
                    return None
                bn, bd = b, 1
            else:
                bn, bd = b._numerator, b._denominator
            if bn < 0:
                bn, bd = -bn, -bd
            if type(a) is int:
                return qcoeff(a * bd, bn)
            return qcoeff(a._numerator * bd, a._denominator * bn)
        if b == 0:
            return None
        if self.kind == "Z":
            q, r = divmod(a, b)
            return q if r == 0 else None
        return a * pow(b, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, Domain) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return {"Z": "ZZ", "Q": "QQ"}.get(self.kind, f"GF({self.p})")


ZZ = Domain("Z")
QQ = Domain("Q")


def GF(p):
    return Domain("F", p)


# Exact rationals on their numerators and denominators.  ``Fraction(n, d)``
# takes a gcd and several type tests; the kernels below know when n/d is
# already in lowest terms and build the Fraction directly, reading and
# setting the two slots fractions.Fraction keeps.

_new = object.__new__


def fraction(n, d):
    """The Fraction n/d of coprime ints n and d > 1, made without a gcd."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def qcoeff(n, d):
    """n/d (ints, d > 0) in the canonical form over Q, by one gcd: an int
    when d divides n, else a Fraction in lowest terms."""
    g = gcd(n, d)
    if g == d:
        return n // d
    if g != 1:
        n //= g
        d //= g
    return fraction(n, d)


def _parts(c):
    """(numerator, denominator) of an int or a Fraction."""
    return (c, 1) if type(c) is int else (c._numerator, c._denominator)


def _q_product(a, b):
    """The terms of a * b over Q: each product and sum on numerators and
    denominators, one gcd per stored value."""
    acc = {}
    get = acc.get
    right = [(m2,) + _parts(c2) for m2, c2 in b.items()]
    for m1, c1 in a.items():
        n1, d1 = _parts(c1)
        for m2, n2, d2 in right:
            m = tuple(map(add, m1, m2))
            n, d = n1 * n2, d1 * d2
            old = get(m)
            if old is None:
                acc[m] = (n, d)
            else:
                on, od = old
                acc[m] = (on + n, d) if od == d else (on * d + n * od, od * d)
    return {m: n if d == 1 else qcoeff(n, d)
            for m, (n, d) in acc.items() if n}


def _q_sum(t, items, sign):
    """t[m] += sign * c for (m, c) in items, in place, over canonical Q
    values: native while both values are ints, else by numerators and
    denominators with one gcd; zeros are deleted."""
    get = t.get
    for m, c in items:
        old = get(m)
        if old is None:
            if sign > 0:
                t[m] = c
            else:
                t[m] = -c if type(c) is int else fraction(-c._numerator,
                                                          c._denominator)
            continue
        if type(old) is int and type(c) is int:
            r = old + sign * c
        else:
            on, od = _parts(old)
            cn, cd = _parts(c)
            r = qcoeff(on * cd + sign * cn * od, od * cd)
        if type(r) is int and not r:
            del t[m]
        else:
            t[m] = r
    return t


def _mul_into(t, a, b):
    """t[m] += a[m1] * b[m2] for every m1 + m2 = m, in place, with native
    + and * (``Poly._canon`` then makes the values canonical)."""
    get = t.get
    right = b.items()
    for m1, c1 in a.items():
        for m2, c2 in right:
            m = tuple(map(add, m1, m2))
            t[m] = get(m, 0) + c1 * c2
    return t


# Monomials are exponent tuples, compared in grevlex, the one monomial
# order, via a sort key (bigger key means bigger monomial).

def mono_div(a, b):
    """a/b as a monomial, or None when b does not divide a."""
    q = tuple(x - y for x, y in zip(a, b))
    return None if any(e < 0 for e in q) else q


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


def grevlex_key(m):
    """The sort key of m in grevlex: degree first, ties broken by the
    rightmost difference, the smaller exponent winning."""
    return sum(m), tuple(-e for e in reversed(m))


class Poly:
    __slots__ = ("dom", "nvars", "terms", "_hash")

    def __init__(self, dom, nvars, terms):
        self.dom = dom
        self.nvars = nvars
        self._hash = None
        cleaned = {}
        for m, c in terms.items():
            c = dom.normalize(c)
            if c != 0:
                cleaned[m] = c
        self.terms = cleaned

    @classmethod
    def _raw(cls, dom, nvars, terms):
        """Terms already canonical and nonzero, in a dict of the caller's
        that nothing else writes to."""
        self = object.__new__(cls)
        self.dom = dom
        self.nvars = nvars
        self._hash = None
        self.terms = terms
        return self

    @classmethod
    def _raw_const(cls, dom, c):
        """The polynomial in no variables with canonical coefficient c."""
        self = object.__new__(cls)
        self.dom = dom
        self.nvars = 0
        self._hash = None
        self.terms = {(): c} if c else {}
        return self

    @classmethod
    def _canon(cls, dom, nvars, terms):
        """Terms computed with native + and * from canonical values, brought
        to the canonical form: reduced mod p over F_p, integral Fractions
        demoted to int over Q, zeros dropped."""
        self = object.__new__(cls)
        self.dom = dom
        self.nvars = nvars
        self._hash = None
        p = dom.p
        if p is not None:
            self.terms = {m: r for m, c in terms.items() if (r := c % p)}
        elif dom.kind == "Q":
            self.terms = {m: c if type(c) is int else
                          (c.numerator if c.denominator == 1 else c)
                          for m, c in terms.items() if c}
        else:
            self.terms = {m: c for m, c in terms.items() if c}
        return self

    @classmethod
    def zero(cls, dom, nvars):
        return cls(dom, nvars, {})

    @classmethod
    def const(cls, dom, nvars, c):
        return cls(dom, nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, dom, nvars, i):
        m = [0] * nvars
        m[i] = 1
        return cls(dom, nvars, {tuple(m): 1})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(mono_deg(m) == 0 for m in self.terms)

    def constant(self):
        return self.terms.get((0,) * self.nvars, self.dom.normalize(0))

    def total_degree(self):
        return max((mono_deg(m) for m in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        if self.dom.kind == "Q" and (
                Fraction in map(type, self.terms.values())
                or Fraction in map(type, other.terms.values())):
            return Poly._raw(self.dom, self.nvars, _q_sum(
                dict(self.terms), other.terms.items(), 1))
        t = dict(self.terms)
        get = t.get
        for m, c in other.terms.items():
            t[m] = get(m, 0) + c
        return Poly._canon(self.dom, self.nvars, t)

    def __neg__(self):
        return Poly._canon(self.dom, self.nvars,
                           {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if self.dom.kind == "Q" and (
                Fraction in map(type, self.terms.values())
                or Fraction in map(type, other.terms.values())):
            return Poly._raw(self.dom, self.nvars, _q_sum(
                dict(self.terms), other.terms.items(), -1))
        t = dict(self.terms)
        get = t.get
        for m, c in other.terms.items():
            t[m] = get(m, 0) - c
        return Poly._canon(self.dom, self.nvars, t)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.dom.kind == "Q" and (
                Fraction in map(type, self.terms.values())
                or Fraction in map(type, other.terms.values())):
            return Poly._raw(self.dom, self.nvars,
                             _q_product(self.terms, other.terms))
        return Poly._canon(self.dom, self.nvars,
                           _mul_into({}, self.terms, other.terms))

    def _add_mul(self, b, c):
        """self + b * c with one pass to the canonical form: the products
        are added into a copy of self's terms, so no Poly is built for b *
        c; over Q with a Fraction among the terms, on numerators and
        denominators as ``*`` and ``+`` do."""
        if self.dom.kind == "Q" and (
                Fraction in map(type, self.terms.values())
                or Fraction in map(type, b.terms.values())
                or Fraction in map(type, c.terms.values())):
            return Poly._raw(self.dom, self.nvars, _q_sum(
                dict(self.terms), _q_product(b.terms, c.terms).items(), 1))
        return Poly._canon(self.dom, self.nvars,
                           _mul_into(dict(self.terms), b.terms, c.terms))

    def scale(self, c):
        c = self.dom.normalize(c)
        if self.dom.kind == "Q" and (type(c) is not int or Fraction in map(
                type, self.terms.values())):
            if not c:
                return Poly._raw(self.dom, self.nvars, {})
            cn, cd = _parts(c)
            return Poly._raw(self.dom, self.nvars, {
                m: qcoeff(cn * tc, cd) if type(tc) is int else
                qcoeff(cn * tc._numerator, cd * tc._denominator)
                for m, tc in self.terms.items()})
        return Poly._canon(self.dom, self.nvars,
                           {m: cc * c for m, cc in self.terms.items()})

    def __pow__(self, n):
        assert n >= 0
        out = Poly.const(self.dom, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.dom == other.dom
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        # kept once computed: nothing writes to terms after construction
        if self._hash is None:
            self._hash = hash((self.dom, self.nvars,
                               frozenset(self.terms.items())))
        return self._hash

    def leading(self, key):
        """(monomial, coeff) of the leading term under the given order key."""
        m = max(self.terms, key=key)
        return m, self.terms[m]

    def substitute(self, images):
        """Evaluate with variable i replaced by images[i], Polys over the
        same domain in as many variables."""
        dom, nv = self.dom, self.nvars
        out = Poly.zero(dom, nv)
        for m, c in sorted(self.terms.items()):
            term = Poly.const(dom, nv, c)
            for i, e in enumerate(m):
                if e:
                    term = term * images[i] ** e
            out = out + term
        return out

    def exact_div(self, g):
        """Quotient self/g when self = q*g exactly, else None.

        Valid over integral-domain coefficients: grevlex leading terms must
        cancel at every step.
        """
        if g.is_zero():
            return None
        dom, nv = self.dom, self.nvars
        rem = self
        q = Poly.zero(dom, nv)
        gm, gc = g.leading(grevlex_key)
        while not rem.is_zero():
            rm, rc = rem.leading(grevlex_key)
            mq = mono_div(rm, gm)
            if mq is None:
                return None
            cq = dom.exact_div(rc, gc)
            if cq is None:
                return None
            t = Poly(dom, nv, {mq: cq})
            q = q + t
            rem = rem - t * g
        return q

    def render(self, names):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        s = parts[0]
        for part in parts[1:]:
            s += " - " + part[1:] if part.startswith("-") else " + " + part
        return s

    def __repr__(self):
        return self.render([f"v{i}" for i in range(self.nvars)])
