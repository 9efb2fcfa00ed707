"""Poly arithmetic against a term-by-term reference on Fraction, and the
coefficient rule: over Q a coefficient is stored as an int exactly when it
is integral, over F_p as an int in 1..p-1, over Z as an int."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lodua import make_ring
from lodua.groebner import GBasis
from lodua.poly import GF, QQ, ZZ, Poly

DOMAINS = (QQ, GF(7), ZZ)


def assert_canonical(dom, coeffs):
    for c in coeffs:
        assert c != 0
        if dom.kind == "Q":
            assert type(c) in (int, Fraction)
            assert (type(c) is int) == (Fraction(c).denominator == 1), repr(c)
        else:
            assert type(c) is int, repr(c)
            if dom.kind == "F":
                assert 0 < c < dom.p, c


# -- the reference: dicts of Fraction, computed term by term ------

def ref_reduce(dom, t):
    if dom.kind == "F":
        t = {m: Fraction(int(c) % dom.p) for m, c in t.items()}
    return {m: c for m, c in t.items() if c != 0}


def ref_of(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


def ref_add(dom, a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return ref_reduce(dom, out)


def ref_mul(dom, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_reduce(dom, out)


def ref_pow(dom, a, nvars, n):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(dom, out, a)
    return out


# -- strategies --------------------------------------------------

def coefficients(dom):
    ints = st.integers(-4, 4)
    if dom.kind != "Q":
        return ints
    # some fractional values, and some integral values given as Fraction
    return st.one_of(ints, st.fractions(-3, 3, max_denominator=4),
                     ints.map(Fraction))


def polys(dom, nvars, max_terms=4):
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(mono, coefficients(dom), max_size=max_terms).map(
        lambda t: Poly(dom, nvars, t))


@st.composite
def cases(draw, count=2):
    dom = draw(st.sampled_from(DOMAINS))
    nvars = draw(st.integers(1, 3))
    return (dom, nvars) + tuple(draw(polys(dom, nvars)) for _ in range(count))


# -- arithmetic --------------------------------------------------

@settings(max_examples=150)
@given(cases())
def test_ring_operations_match_the_reference(case):
    dom, _, a, b = case
    ra, rb = ref_of(a), ref_of(b)
    for p in (a, b):
        assert_canonical(dom, p.terms.values())
    results = [(a + b, ref_add(dom, ra, rb)),
               (a - b, ref_add(dom, ra, rb, -1)),
               (-a, ref_add(dom, {}, ra, -1)),
               (a * b, ref_mul(dom, ra, rb))]
    for got, want in results:
        assert got.terms == want
        assert_canonical(dom, got.terms.values())
        assert got.dom == dom


@settings(max_examples=100)
@given(cases(count=1), st.data())
def test_scale_and_power_match_the_reference(case, data):
    dom, nvars, a = case
    ra = ref_of(a)
    c = data.draw(coefficients(dom))
    got = a.scale(c)
    want = ref_reduce(dom, {m: v * Fraction(c) for m, v in ra.items()})
    assert got.terms == want
    assert_canonical(dom, got.terms.values())
    n = data.draw(st.integers(0, 3))
    got = a ** n
    assert got.terms == ref_pow(dom, ra, nvars, n)
    assert_canonical(dom, got.terms.values())


@settings(max_examples=80)
@given(cases(count=1), st.data())
def test_substitute_matches_the_reference(case, data):
    dom, nvars, a = case
    images = [data.draw(polys(dom, nvars, max_terms=2)) for _ in range(nvars)]
    want = {}
    for m, c in ref_of(a).items():
        term = {(0,) * nvars: c}
        for i, e in enumerate(m):
            power = ref_pow(dom, ref_of(images[i]), nvars, e)
            term = ref_mul(dom, term, power)
        want = ref_add(dom, want, term)
    got = a.substitute(images)
    assert got.terms == want
    assert_canonical(dom, got.terms.values())


@settings(max_examples=100)
@given(cases())
def test_exact_div_recovers_the_quotient(case):
    dom, _, q, g = case
    if g.is_zero():
        assert (q * g).exact_div(g) is None
        return
    f = Poly._raw(dom, q.nvars, ref_mul(dom, ref_of(q), ref_of(g)))
    got = f.exact_div(g)
    assert got is not None and got.terms == ref_of(q)
    assert_canonical(dom, got.terms.values())


def rationals():
    return st.one_of(st.integers(-20, 20),
                     st.fractions(-20, 20, max_denominator=12))


@st.composite
def rational_pairs(draw):
    """Two polys over Q in two variables; b is often -a or a, or a times a
    constant, with a few terms changed, so sums cancel to integers and
    zeros, and products mix ints with Fractions."""
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.dictionaries(mono, rationals(), max_size=5)
    a = draw(terms)
    b = draw(st.one_of(terms, st.builds(
        lambda f, extra: {**{m: f * c for m, c in a.items()}, **extra},
        st.sampled_from([-1, 1, 2, Fraction(-1, 2), Fraction(3, 4)]),
        st.dictionaries(mono, rationals(), max_size=2))))
    return Poly(QQ, 2, a), Poly(QQ, 2, b)


@settings(max_examples=200)
@given(rational_pairs(), rationals())
def test_rational_kernels_match_the_reference(pair, c):
    """Over Q, +, -, * and scale on numerators and denominators give the
    term-by-term Fraction answer, stored as an int when integral and with
    no zero coefficient."""
    a, b = pair
    ra, rb = ref_of(a), ref_of(b)
    for got, want in [(a + b, ref_add(QQ, ra, rb)),
                      (a - b, ref_add(QQ, ra, rb, -1)),
                      (b - a, ref_add(QQ, rb, ra, -1)),
                      (a * b, ref_mul(QQ, ra, rb)),
                      (a.scale(c), ref_reduce(QQ, {m: v * Fraction(c)
                                                   for m, v in ra.items()}))]:
        assert got.terms == want
        assert_canonical(QQ, got.terms.values())
    for x, y in zip(list(ra.values()) + [Fraction(c)],
                    list(rb.values()) + [Fraction(7, 3)]):
        x, y = QQ.normalize(x), QQ.normalize(y)
        q = QQ.exact_div(x, y)
        assert q == Fraction(x) / Fraction(y)
        assert_canonical(QQ, [q] if q else [])
        assert QQ.inv(y) == 1 / Fraction(y)
        assert_canonical(QQ, [QQ.inv(y)])


def test_domain_inverse_and_normal_form_follow_the_rule():
    assert type(QQ.normalize(Fraction(6, 3))) is int
    assert type(QQ.normalize(3)) is int
    assert QQ.normalize(Fraction(1, 2)) == Fraction(1, 2)
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert GF(7).exact_div(3, 5) == 2      # 5 * 2 = 10 = 3 mod 7
    assert ZZ.exact_div(6, 4) is None
    assert not hasattr(QQ, "add") and not hasattr(QQ, "mul") \
        and not hasattr(QQ, "neg")


# -- Groebner stores and power-series inverses --------------------

def assert_vectors_canonical(dom, vectors):
    for vec in vectors:
        for p in vec:
            assert_canonical(dom, p.terms.values())


@settings(max_examples=40)
@given(st.integers(1, 2), st.data())
def test_groebner_stores_follow_the_coefficient_rule(nrows, data):
    dom = QQ
    gens = [tuple(data.draw(polys(dom, 2, max_terms=3)) for _ in range(nrows))
            for _ in range(data.draw(st.integers(1, 3)))]
    gb = GBasis(gens, nrows)
    for v in gb._vecs + gb._cofs + gb._syz:
        assert_canonical(dom, v.values())
    assert_vectors_canonical(dom, gb.elements)
    assert_vectors_canonical(dom, gb.cofactors)
    syz = gb.syzygies()
    assert_vectors_canonical(dom, syz)
    for s in syz:
        total = [Poly.zero(dom, 2)] * nrows
        for c, g in zip(s, gens):
            total = [t + c * e for t, e in zip(total, g)]
        assert all(t.is_zero() for t in total)
    for target in gens[:1] + [tuple(e) for e in gb.elements[:1]]:
        lift = gb.lift(target)
        assert lift is not None
        assert_vectors_canonical(dom, [lift])


def test_groebner_keeps_integral_values_as_int():
    dom = QQ
    x, y = (Poly.var(dom, 2, i) for i in range(2))
    half = Fraction(1, 2)
    gens = [(x * x.scale(3) + y.scale(half),), (x * y.scale(2) - Poly.const(
        dom, 2, Fraction(3, 4)),), (y * y + x.scale(Fraction(2, 3)),)]
    gb = GBasis(gens, 1)
    for v in gb._vecs + gb._cofs + gb._syz:
        assert_canonical(dom, v.values())
    # over Q every element is monic, and its lead is stored as int 1
    assert all(type(c) is int and c == 1 for _, c in gb._leads)
    assert_vectors_canonical(dom, gb.syzygies())
    assert_vectors_canonical(dom, [gb.lift(gens[0])])


def test_power_series_inverse_follows_the_coefficient_rule():
    R = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x", "y"], "precision": 6}})
    for text in ("3 + x + 2*y^2 + x*y", "2 - x", "-6 + 3*x^2",
                 "1 + 4*x*y - y", "-1 + x - 2*y^3"):
        u = R.el(text)
        v = u.inv()
        assert v * u == R.one()
        assert_canonical(QQ, v.num.terms.values())
        if abs(u.num.constant()) == 1:
            # an integral unit of constant term +-1 has an integral inverse
            assert all(type(c) is int for c in v.num.terms.values())


def test_coefficient_rule_corners():
    import pytest
    assert ZZ.normalize(Fraction(6, 3)) == 2 and type(ZZ.normalize(True)) is int
    with pytest.raises(ValueError, match="1/2 is not an integer"):
        ZZ.normalize(Fraction(1, 2))
    assert QQ.normalize("1/3") == Fraction(1, 3)
    with pytest.raises(ValueError, match="4 is not prime"):
        GF(4)
    with pytest.raises(ZeroDivisionError, match="2 is not a unit in Z"):
        ZZ.inv(2)
    assert ZZ.exact_div(3, 0) is None and QQ.exact_div(3, 0) is None
    x = Poly(ZZ, 1, {(1,): 3})
    assert x * 2 == Poly(ZZ, 1, {(1,): 6})
    assert x.exact_div(Poly(ZZ, 1, {(1,): 2})) is None
