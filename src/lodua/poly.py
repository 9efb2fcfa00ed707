"""Exact multivariate polynomial arithmetic over Z, Q and prime fields.

Polynomials are dictionaries {exponent tuple: coefficient} with no zero
coefficients stored.  Everything here is immutable-by-convention: operations
return fresh Poly objects.

Coefficients have one canonical form per domain: over Z a Python int; over
F_p an int in 1..p-1; over Q an int when the value is integral and a
``Fraction`` only when its denominator is not 1, as Singular stores small
rationals.  Since ``Fraction(n) == n``, ``hash(Fraction(n)) == hash(n)`` and
``str(Fraction(n)) == str(n)``, the form changes no equality, hash or
rendering; it spares building a Fraction for the usual 1, -1 or 3.  Three
places keep it: ``Domain.normalize`` (any input), ``Domain.inv`` (the one
division of coefficients; ``int / int`` would give a float) and
``Poly._canon``.  The kernels (``+``, ``-``, ``*``, ``scale``, negation)
add and multiply canonical values with native ``+`` and ``*`` into one dict,
and ``Poly._canon`` then reduces that dict once per result: mod p over F_p,
integral Fractions to int over Q, zeros dropped.
"""

from fractions import Fraction
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
        if a == 1 or a == -1:
            return a
        if self.kind == "Z":
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        # the one division of coefficients: int / int would give a float
        q = Fraction(1) / a
        return q.numerator if q.denominator == 1 else q

    def exact_div(self, a, b):
        """a/b when it exists in the domain, else None."""
        if b == 0:
            return None
        if self.kind == "Z":
            q, r = divmod(a, b)
            return q if r == 0 else None
        return self.normalize(a * self.inv(b))

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


# Monomials are exponent tuples.  Orders compare via sort keys (bigger key
# means bigger monomial).

def mono_div(a, b):
    """a/b as a monomial, or None when b does not divide a."""
    q = tuple(x - y for x, y in zip(a, b))
    return None if any(e < 0 for e in q) else q


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


def order_key(order):
    if order == "lex":
        return lambda m: m
    if order == "grevlex":
        # degree first; ties broken by the rightmost difference, smaller wins
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    raise ValueError(f"unknown monomial order {order!r}")


def descending_key(order):
    """Sort key that puts bigger monomials first: ascending order of this
    key is descending order of ``order_key(order)``."""
    if order == "lex":
        return lambda m: tuple(-e for e in m)
    # grevlex: its one caller, GBasis, has refused other names by order_key
    return lambda m: (-sum(m), m[::-1])


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
        """Terms already canonical; only zero coefficients are dropped."""
        self = object.__new__(cls)
        self.dom = dom
        self.nvars = nvars
        self._hash = None
        self.terms = {m: c for m, c in terms.items() if c != 0}
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
        t = dict(self.terms)
        get = t.get
        for m, c in other.terms.items():
            t[m] = get(m, 0) + c
        return Poly._canon(self.dom, self.nvars, t)

    def __neg__(self):
        return Poly._canon(self.dom, self.nvars,
                           {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        t = dict(self.terms)
        get = t.get
        for m, c in other.terms.items():
            t[m] = get(m, 0) - c
        return Poly._canon(self.dom, self.nvars, t)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        t = {}
        get = t.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = tuple(map(add, m1, m2))
                t[m] = get(m, 0) + c1 * c2
        return Poly._canon(self.dom, self.nvars, t)

    def scale(self, c):
        c = self.dom.normalize(c)
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

    def monic(self, key):
        if self.is_zero():
            return self
        _, c = self.leading(key)
        if self.dom.kind == "Z":
            # over Z only sign normalization is available
            return self.scale(-1) if c < 0 else self
        return self.scale(self.dom.inv(c))

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

    def exact_div(self, g, key):
        """Quotient self/g when self = q*g exactly, else None.

        Valid over integral-domain coefficients: leading terms must cancel at
        every step.
        """
        if g.is_zero():
            return None
        dom, nv = self.dom, self.nvars
        rem = self
        q = Poly.zero(dom, nv)
        gm, gc = g.leading(key)
        while not rem.is_zero():
            rm, rc = rem.leading(key)
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
        key = order_key("grevlex")
        parts = []
        for m in sorted(self.terms, key=key, reverse=True):
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
