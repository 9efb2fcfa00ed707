"""Exact multivariate polynomial arithmetic over Z, Q and prime fields.

Polynomials are dictionaries {exponent tuple: coefficient} with no zero
coefficients stored.  Everything here is immutable-by-convention: operations
return fresh Poly objects.
"""

from fractions import Fraction


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
            if type(c) is Fraction:
                return c
            return Fraction(c)
        return int(c) % self.p

    def add(self, a, b):
        c = a + b
        return c % self.p if self.kind == "F" else c

    def mul(self, a, b):
        c = a * b
        return c % self.p if self.kind == "F" else c

    def neg(self, a):
        return (-a) % self.p if self.kind == "F" else -a

    def is_unit(self, a):
        if self.kind == "Z":
            return a in (1, -1)
        return a != 0

    def inv(self, a):
        if self.kind == "Z":
            if a in (1, -1):
                return a
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        if self.kind == "Q":
            return Fraction(1) / a
        return pow(a, -1, self.p)

    def exact_div(self, a, b):
        """a/b when it exists in the domain, else None."""
        if b == 0:
            return None
        if self.kind == "Z":
            q, r = divmod(a, b)
            return q if r == 0 else None
        return self.mul(a, self.inv(b))

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

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


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
    if order == "grevlex":
        return lambda m: (-sum(m), m[::-1])
    raise ValueError(f"unknown monomial order {order!r}")


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
        """Terms already normalized; only zero coefficients are dropped."""
        self = object.__new__(cls)
        self.dom = dom
        self.nvars = nvars
        self._hash = None
        self.terms = {m: c for m, c in terms.items() if c != 0}
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
        dom = self.dom
        for m, c in other.terms.items():
            t[m] = dom.add(t.get(m, 0), c)
        return Poly._raw(dom, self.nvars, t)

    def __neg__(self):
        dom = self.dom
        return Poly._raw(dom, self.nvars,
                         {m: dom.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        t = dict(self.terms)
        dom = self.dom
        for m, c in other.terms.items():
            t[m] = dom.add(t.get(m, 0), dom.neg(c))
        return Poly._raw(dom, self.nvars, t)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        dom = self.dom
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                t[m] = dom.add(t.get(m, 0), dom.mul(c1, c2))
        return Poly._raw(dom, self.nvars, t)

    def scale(self, c):
        dom = self.dom
        c = dom.normalize(c)
        return Poly._raw(dom, self.nvars,
                         {m: dom.mul(cc, c) for m, cc in self.terms.items()})

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

    def substitute(self, images, target=None):
        """Evaluate with variable i replaced by images[i] (Polys in the target)."""
        if target is None:
            target = self
        dom, nv = target.dom, target.nvars
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
