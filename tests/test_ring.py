import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lodua
from lodua import (BudgetExceeded, InvalidInput, PrecisionMismatch,
                   UnsupportedRing, make_ring)
from lodua.expr import ParseError, parse_poly
from lodua.linalg import lift_through, membership_test, syzygies
from lodua.poly import QQ, Poly
from lodua.ring import Ring, RingElement


def test_make_integers():
    Z = make_ring({"base": "Z"})
    assert Z.el(0).is_zero()
    assert (Z.el(2) + Z.el(3)) == Z.el(5)
    assert repr(Z) == "ZZ"


def test_make_f2_poly():
    R = make_ring({"base": "Fp", "p": 2, "vars": ["x", "y"]})
    x, y = R.var("x"), R.var("y")
    assert (x + y) ** 2 == x * x + y * y


def test_make_5adic_spot_checks():
    # 5-adic sums and products, checked by hand mod 5^3
    Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 3}})
    assert Z5.el(126) == Z5.el(1)
    assert Z5.el(100) + Z5.el(30) == Z5.el(5)       # 130 = 125 + 5
    assert Z5.el(26) * Z5.el(26) == Z5.el(51)       # 676 = 5*125 + 51
    assert Z5.el(124) + Z5.el(1) == Z5.el(0)


def test_nonprime_completion_rejected():
    with pytest.raises(UnsupportedRing):
        make_ring({"base": "Z", "completion": {"ideal": ["6"], "precision": 3}})


def test_bad_precision_rejected():
    with pytest.raises(InvalidInput):
        make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 0}})


def test_ring_get_refuses_a_completion_of_precision_zero():
    # make_ring refuses precision 0 before it reaches Ring.get; a direct
    # call meets the guard of Ring._validate, and no such ring is interned
    five = (make_ring({"base": "Z"}).el(5).num,)
    for _ in range(2):
        with pytest.raises(InvalidInput,
                           match="completion precision must be >= 1"):
            Ring.get("Z", completion=(five, 0))


def test_normal_form_quotient():
    # divide x^3 by x^2 - y by hand: x^3 = x(x^2 - y) + xy
    Q = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y"]})
    assert Q.el("x^3") == Q.el("x*y")
    assert Q.el("0").is_zero()


def test_normal_form_idempotent():
    Q = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y"]})
    for raw in ["x^3", "x^2*y - y^2 + 7", "(x + y)^3", "x^5 - x"]:
        once = Q.el(raw)
        assert Q.el(once.num) == once


def test_localization_canonical_form():
    Zl = make_ring({"base": "Z", "invert": "5"})
    assert Zl.el(10, dexp=1) == Zl.el(2)
    e = Zl.el(3, dexp=2)
    assert e.dexp == 2
    assert Zl.el(5).is_unit()
    assert Zl.el(5).inv() == Zl.el(1, dexp=1)
    assert (Zl.el(5) * Zl.el(5).inv()) == Zl.one()


def test_localizing_at_zero_divisor_rejected():
    # the witness is the first nonzero syzygy of x modulo the quotient,
    # read in the ring; over a completion one may vanish there
    cases = [({"quotient": ["x*y"], "invert": "x"}, "x", "-y"),
             ({"quotient": ["x^2*y - y"], "invert": "x - 1"}, "x - 1",
              "-x*y - y"),
             ({"quotient": ["x*y^2", "x^2*y"], "invert": "x + y"}, "x + y",
              "-x*y"),
             ({"quotient": ["x*y^3"], "invert": "x", "completion":
               {"ideal": ["x", "y"], "precision": 5}}, "x", "-y^3"),
             # y^3 is zero at precision 2, and no other witness is left
             ({"quotient": ["x*y^3"], "invert": "x", "completion":
               {"ideal": ["x", "y"], "precision": 2}}, "x", None)]
    for desc, x, witness in cases:
        if witness is None:
            error, message = UnsupportedRing, "localized completed"
        else:
            error = InvalidInput
            message = (rf"^{re.escape(x)} is a zerodivisor: "
                       rf"{re.escape(witness)} kills it$")
        with pytest.raises(error, match=message):
            make_ring({"base": "Q", "vars": ["x", "y"], **desc})


def test_localizing_unit_is_identity():
    Q = make_ring({"base": "Q", "vars": ["x"]})
    assert Q.localized(Q.el(3)) is Q


def test_completed_quotient_inverse():
    C = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x + y", "x*y"], "precision": 4}})
    u = C.el("1 + x")
    assert (u * u.inv()) == C.one()
    assert not C.el("x + y").is_unit()


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x + @", ("x",), QQ)
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        parse_poly("x + z", ("x",), QQ)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_poly("x^", ("x",), QQ)
    for text, pos, what in (("x 1", 2, "trailing input 1 "),
                            ("x + )", 4, "unexpected token '\\)'")):
        with pytest.raises(ParseError, match=what) as err:
            parse_poly(text, ("x",), QQ)
        assert err.value.pos == pos


def test_grammar_operations():
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    assert Q.el("(x + y)^2 - x^2 - y^2") == Q.el("2*x*y")
    assert Q.el("-x * -1") == Q.el("x")


def test_element_hash_and_equality():
    Z = make_ring({"base": "Z"})
    assert len({Z.el(3), Z.el(3), Z.el(4)}) == 2


def test_euclidean_division_int_localized():
    Zl = make_ring({"base": "Z", "invert": "5"})
    a, b = Zl.el(7), Zl.el(3)
    q, r = Zl.divmod_el(a, b)
    assert (q * b + r) == a
    assert Zl.euclid.size(r) < Zl.euclid.size(b)


def test_quotient_budget_rejection():
    # a quotient whose Groebner basis cannot be computed inside the budget
    # is rejected at ring construction, not silently accepted
    import pytest
    from lodua import BudgetExceeded
    import lodua.groebner as gb
    import os
    old = os.environ.get("LODUA_BUDGET")
    os.environ["LODUA_BUDGET"] = "2"
    try:
        from lodua.ring import _RING_CACHE
        _RING_CACHE.clear()
        with pytest.raises(BudgetExceeded):
            make_ring({"base": "Q", "vars": ["x", "y"],
                       "quotient": ["x^3 - 2*x*y + 1", "x^2*y - 2*y^2 + x"]})
    finally:
        if old is None:
            del os.environ["LODUA_BUDGET"]
        else:
            os.environ["LODUA_BUDGET"] = old
        from lodua.ring import _RING_CACHE
        _RING_CACHE.clear()


def test_inverse_over_completion_builds_one_basis(monkeypatch):
    import lodua.linalg as linalg
    R = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x", "y"], "precision": 4}})
    u = R.el("1 + x - 2*y")
    built = []
    real = linalg.GBasis

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "GBasis", counted)
    assert u * u.inv() == R.one()
    # Q[[x,y]] is truncated power series: no basis at all
    assert len(built) == 0
    with pytest.raises(ZeroDivisionError, match=r"^x \+ y is not a unit in "):
        R.el("x + y").inv()
    with pytest.raises(ZeroDivisionError, match="is not a unit"):
        R.zero().inv()


def test_inverse_over_non_monomial_completion_builds_one_basis(monkeypatch):
    import lodua.linalg as linalg
    R = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x + y", "x*y"], "precision": 4}})
    assert R.monomial_modulus is None and not R.is_power_series
    u = R.el("1 + x - 2*y")
    built = []
    real = linalg.GBasis

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "GBasis", counted)
    linalg._span.cache_clear()  # the span of u may be in the table already
    assert u * u.inv() == R.one()
    # u and the generators of I, not of I^4: Newton lifting does the rest
    assert len(built) == 1 and len(built[0][0]) == 3
    with pytest.raises(ZeroDivisionError, match=r"^x \+ y is not a unit in "):
        R.el("x + y").inv()


def test_modulus_is_quotient_plus_completion_power():
    from lodua.ring import power_products
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y^3"],
                   "completion": {"ideal": ["x", "y"], "precision": 3}})
    gens = [R.el("x").num, R.el("y").num]
    assert R.modulus == R.quotient + tuple(power_products(gens, 3))
    assert R.modulus is R.modulus
    Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 3}})
    assert Z5.modulus == ()


def _render_term(names, coeff, mono):
    factors = [f"{v}^{e}" for v, e in zip(names, mono) if e]
    return "*".join([str(coeff)] + factors)


@st.composite
def _monomial_rings(draw):
    """Q or F_7 in 1-3 variables: a quotient by 0-2 monomials, completed at
    some of the variables (scaled by units) to precision <= 5, or not at
    all."""
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    base = draw(st.sampled_from([{"base": "Q"}, {"base": "Fp", "p": 7}]))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    quotient = [_render_term(names, draw(st.integers(1, 3)), m)
                for m in draw(st.lists(exps.filter(any), max_size=2))]
    desc = {**base, "vars": list(names), "quotient": quotient}
    if not quotient or draw(st.booleans()):
        at = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        ideal = [f"{draw(st.integers(1, 3))}*{v}" for v in at]
        desc["completion"] = {"ideal": ideal,
                              "precision": draw(st.integers(1, 5))}
    poly = st.lists(st.tuples(st.integers(-3, 3),
                              st.tuples(*[st.integers(0, 6)] * len(names))),
                    max_size=6)
    polys = [" + ".join([str(draw(st.integers(-3, 3)))] +
                        [_render_term(names, c, m) for c, m in terms])
             for terms in (draw(poly), draw(poly))]
    return make_ring(desc), polys


@settings(max_examples=80)
@given(_monomial_rings())
def test_truncation_is_the_groebner_normal_form(case):
    R, (f, g) = case
    assert R.monomial_modulus is not None
    # the same ring with both shortcuts switched off: Groebner reduction and
    # the cofactor unit test, as for any other modulus
    slow = Ring(R.base, R.p, R.names, R.quotient, R.inverted, R.completion)
    slow._monomials = slow._series = False
    gb = R.reduction_basis()
    for h in (f, g):
        num = Poly(R.dom, R.nvars, slow.el(h).num.terms)
        raw = R.el(h).num
        assert raw == gb.normal_form((raw,))[0] == num
    assert R.el(f) * R.el(g) == slow.el(f) * slow.el(g)
    assert R.el(f) - R.el(g) == slow.el(f) - slow.el(g)
    assert R.is_power_series == (R.is_completed and not R.quotient and
                                 len(R.completion[0]) == R.nvars)
    for h in (f, g, f"1 + {f}"):
        assert R.is_unit_el(h) == slow.is_unit_el(h)
        assert R.unit_inverse(h) == slow.unit_inverse(h)


# Ring._add_mul's three paths: one normal form of a + b * c on a monomial
# modulus and on no modulus, the two operators on a Groebner modulus and
# on a localization
_ADD_MUL_RINGS = [make_ring(desc) for desc in (
    {"base": "Q", "vars": ["x", "y"], "quotient": ["x^3 - y^2"]},
    {"base": "Q", "vars": ["x", "y"],
     "completion": {"ideal": ["x + y", "x*y"], "precision": 3}},
    {"base": "Q", "vars": ["x", "y"],
     "completion": {"ideal": ["x", "y"], "precision": 3}},
    {"base": "Fp", "p": 7, "vars": ["x", "y"]},
    {"base": "Q", "vars": ["x", "y"], "invert": "x"},
)]
_ADD_MUL_POLYS = st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 5),
                                    st.integers(0, 5)), min_size=1, max_size=4)


@settings(max_examples=150)
@given(st.sampled_from(range(len(_ADD_MUL_RINGS))),
       st.lists(_ADD_MUL_POLYS, min_size=3, max_size=3), st.integers(1, 60))
# one normal form of the unreduced sum would take 5 steps on
# Q[x,y]/(x^3 - y^2), where each of the two operators' takes at most 4
@example(0, [[(5, 1, 2), (5, 0, 2)], [(4, 2, 1)], [(4, 0, 5), (2, 1, 1)]], 4)
def test_add_mul_is_the_two_operators_under_any_budget(which, polys, budget):
    R = _ADD_MUL_RINGS[which]
    a, b, c = (R.el(" + ".join(f"{k}*x^{i}*y^{j}" for k, i, j in terms))
               for terms in polys)

    def outcome(compute):
        try:
            with lodua.settings(budget=budget):
                return compute()
        except BudgetExceeded:
            return "refused"

    assert outcome(lambda: R._add_mul(a, b, c)) == outcome(lambda: a + b * c)


def test_monomial_modulus_is_decided_per_ring():
    series = make_ring({"base": "Q", "vars": ["x", "y"],
                        "completion": {"ideal": ["x", "y"], "precision": 3}})
    assert set(series.monomial_modulus) == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert series.is_power_series
    assert series.el("1 + x").is_unit() and not series.el("x - y^2").is_unit()
    # non-monomial moduli, localizations and Z_p keep their Groebner path
    for desc in ({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y"]},
                 {"base": "Q", "vars": ["x", "y"],
                  "completion": {"ideal": ["x + y", "x*y"], "precision": 3}},
                 {"base": "Q", "vars": ["x"], "invert": "x"},
                 {"base": "Z", "vars": ["x"], "quotient": ["2*x"]},
                 {"base": "Z", "completion": {"ideal": ["5"], "precision": 3}}):
        assert make_ring(desc).monomial_modulus is None
    # a monomial quotient alone is not a power series ring
    quot = make_ring({"base": "Fp", "p": 7, "vars": ["x"],
                      "quotient": ["x^4", "3*x^6"]})
    assert quot.monomial_modulus == ((4,),) and not quot.is_power_series
    assert quot.zero() is quot.zero() and quot.one() is quot.one()


def test_rings_are_interned_and_compare_by_identity(monkeypatch):
    Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}})
    assert make_ring({"base": "Z", "completion": {
        "ideal": ["5"], "precision": 20}}) is Z5
    # a ring built around Ring.get is still equal, structurally
    twin = Ring(Z5.base, Z5.p, Z5.names, Z5.quotient, Z5.inverted,
                Z5.completion)
    assert twin is not Z5 and twin == Z5 and hash(twin) == hash(Z5)
    assert hash(Z5.el(7)) == hash((Z5._key(), Z5.el(7).num, 0))

    # arithmetic, hashing and dispatch on interned rings build no ring key
    keys = []
    key = Ring._key
    monkeypatch.setattr(Ring, "_key", lambda self: (keys.append(self), key(self))[1])
    a, b = Z5.el(10), Z5.el(3)
    assert (a + b) * a - b == Z5.el(127)
    assert len({a, b, Z5.el(10)}) == 2 and Z5.classify() == "int_completed"
    assert keys == []
    assert twin == Z5 and len(keys) == 2   # the structural fallback


def test_repeated_integer_verbs_leave_the_tables_flat():
    # one process, 200 integer verbs: after the first pass over the verb
    # list neither the ring table nor the span table grows
    from lodua import cli, linalg
    from lodua.ring import _RING_CACHE
    doc = {"version": "1", "ring": {"base": "Z"}, "ideal": ["5"],
           "modules": {"M": {"generators": 2, "relations": [["0", "25"]]},
                       "N": {"generators": 1, "relations": [["25"]]}}}
    z5 = dict(doc, ring={"base": "Z", "completion": {
        "ideal": ["5"], "precision": 20}})
    verbs = [(d, verb, args) for d in (doc, z5) for verb, args in (
        ("localhom", {"target": "M", "s": 0}), ("tor", {"M": "M", "N": "N", "s": 1}),
        ("ext", {"M": "M", "N": "N", "s": 1}), ("complete", {"module": "N"}),
        ("localcoh", {"target": "N", "s": 0}))]
    first = [cli.run(*v) for v in verbs]
    rings, spans = len(_RING_CACHE), linalg._span.cache_info().currsize
    for k in range(200):
        d, verb, args = verbs[k % len(verbs)]
        assert cli.run(d, verb, args) == first[k % len(verbs)]
    assert len(_RING_CACHE) == rings
    assert linalg._span.cache_info().currsize == spans


def test_units_of_integers_with_a_composite_element_inverted():
    # in Z[1/6] every product of 2s and 3s is a unit, with either sign
    Z6 = make_ring({"base": "Z", "invert": "6"})
    one = Z6.one()
    assert Z6.el(2).is_unit() and Z6.el(-3).is_unit() and Z6.el(12).is_unit()
    assert not Z6.el(5).is_unit() and not Z6.el(10).is_unit()
    for a in (2, -3, 12, -18):
        assert Z6.el(a).inv() * Z6.el(a) == one
    assert Z6.el(-2, 3).inv() * Z6.el(-2, 3) == one
    assert Z6.unit_inverse(Z6.el(5)) is None
    with pytest.raises(ZeroDivisionError):
        Z6.el(10).inv()
    # a non-squarefree inverted element: Z[1/4] is Z[1/2]
    Z4 = make_ring({"base": "Z", "invert": "4"})
    assert Z4.el(2).is_unit() and Z4.el(2).inv() * Z4.el(2) == Z4.one()
    assert Z4.el(-8).inv() * Z4.el(-8) == Z4.one()
    assert not Z4.el(3).is_unit()


def test_canonical_keys_round_trip():
    rings = [make_ring({"base": "Z"}),
             make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 4}}),
             make_ring({"base": "Z", "invert": "6"}),
             make_ring({"base": "Q", "vars": ["x", "y"]})]
    for R in rings:
        vec = (R.zero(), R.one(), R.el(-7), R.el(10) * R.el(3))
        if R.inverted is not None:
            vec += (R.el(5, 2), R.el(12, 1))
        key = R.vec_key(vec)
        assert hash(key) == hash(R.vec_key(vec))
        assert tuple(map(R.from_key, key)) == vec
    # over Z_p a negation is keyed by its reduced value
    Z5 = rings[1]
    assert Z5.vec_key((-Z5.el(3),)) == Z5.vec_key((Z5.el(5 ** 4 - 3),))


def test_negation_over_z_p_is_canonical():
    # -1 and 5^20 - 1 are one element of Z_5, and of Z_5[1/5]
    Z5 = make_ring({"base": "Z",
                    "completion": {"ideal": ["5"], "precision": 20}})
    Q5 = make_ring({"base": "Z", "invert": "5",
                    "completion": {"ideal": ["5"], "precision": 20}})
    cases = [(Z5, a, 0) for a in (1, 7, 5 ** 19, 0)]
    cases += [(Q5, a, d) for a, d in ((1, 0), (3, 2), (-4, 1))]
    for R, a, d in cases:
        neg, want = -R.el(a, d), R.el(-a, d)
        assert neg == want and hash(neg) == hash(want)
        assert 0 <= neg.num.constant() < 5 ** 20
        assert (R.el(a, d) - R.el(a, d)).is_zero()


def test_units_of_a_localized_polynomial_ring():
    # in Q[x,y][1/(xy)] the factors of the inverted element are units too
    R = make_ring({"base": "Q", "vars": ["x", "y"], "invert": "x*y"})
    for a in ("x", "x*y", "-2*y^3"):
        e = R.el(a)
        assert e.is_unit() and e.inv() * e == R.one()
    assert R.el("x").inv() == R.el("y", 1)
    assert R.el("x").inv().render() == "(y)/(x*y)"
    assert not R.el("x + 1").is_unit()
    assert R.unit_inverse(R.el("x + 1")) is None
    with pytest.raises(ZeroDivisionError):
        R.el("x + 1").inv()


# rings whose inverses, and over the localization whose spans, the ring
# asks of linalg, each with an oracle for its units: Q[x,y]/(x^2 - y^3) is
# Q[t^2, t^3], whose units are the nonzero constants; a unit of
# Q[x,y][1/(xy)] has one term over a power of xy; Q[x,y] at (x + y, xy) has
# residue ring Q[x]/(x^2), so a unit is one with a nonzero constant term
_SPAN_RINGS = {
    "cusp": (make_ring({"base": "Q", "vars": ["x", "y"],
                        "quotient": ["x^2 - y^3"]}),
             lambda e: e.num.is_constant() and not e.is_zero()),
    "localized": (make_ring({"base": "Q", "vars": ["x", "y"],
                             "invert": "x*y"}),
                  lambda e: len(e.num.terms) == 1),
    "completed": (make_ring({"base": "Q", "vars": ["x", "y"], "completion": {
        "ideal": ["x + y", "x*y"], "precision": 3}}),
                  lambda e: e.num.constant() != 0),
}


@st.composite
def _elements(draw, R, n):
    x, y = R.var("x"), R.var("y")
    term = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2))

    def element():
        # a constant term and at most two more, so that units are drawn
        # often; over the localization, whose spans build Groebner bases
        # of fast growing size, one more times x^k over a power of xy
        e = R.el(draw(st.integers(-2, 2)))
        for c, i, j in draw(st.lists(term, max_size=1 if R.inverted else 2)):
            e = e + R.el(c) * x ** i * y ** j
        if R.inverted is not None:
            e = e * x ** draw(st.integers(0, 2)) * R.el(
                1, draw(st.integers(0, 2)))
        return e
    return [element() for _ in range(n)]


@pytest.mark.parametrize("name", sorted(_SPAN_RINGS))
@settings(max_examples=25)
@given(data=st.data())
def test_units_syzygies_and_lifts_satisfy_their_equations(name, data):
    R, is_unit = _SPAN_RINGS[name]
    e, f, g, h, a, b = data.draw(_elements(R, 6))
    inv = R.unit_inverse(e)
    assert e.is_unit() == (inv is not None) == is_unit(e)
    if inv is not None:
        assert e * inv == R.one()
    if R.inverted is None:
        return
    cols = [(e, f), (g, h), (f, e + g)]

    def image(x):
        return tuple(sum((x[j] * cols[j][i] for j in range(3)), R.zero())
                     for i in range(2))

    for s in syzygies(R, cols, 2):
        assert image(s) == (R.zero(), R.zero())
    target = image((a, b, a + b))
    x = lift_through(R, cols, target, 2)
    assert x is not None and image(x) == target
    for other in ((a, b), (R.one(), R.zero())):
        x = lift_through(R, cols, other, 2)
        assert membership_test(R, cols, 2)(other) == (x is not None)
        assert x is None or image(x) == other


def test_ring_layer_refuses_malformed_input():
    Z, Q = make_ring({"base": "Z"}), make_ring({"base": "Q", "vars": ["x", "y"]})
    refusals = [
        ({"base": "Fp", "p": 1}, InvalidInput, "characteristic 1 is not prime"),
        ({"base": "Fp", "p": 4}, InvalidInput, "characteristic 4 is not prime"),
        ({"base": "Fp", "p": "5"}, InvalidInput, "characteristic '5' is not"),
        ({"base": "Z", "completion": {"ideal": ["5", "7"]}}, InvalidInput,
         "Z-completion needs one integer generator"),
        ({"base": "Z", "vars": ["x"], "completion": {"ideal": ["x"]}},
         UnsupportedRing, "completion of Z\\[x...\\] is not supported"),
        ({"base": "Z", "invert": "0"}, InvalidInput, "cannot invert zero"),
        ({"base": "Q", "vars": ["x", "x"]}, InvalidInput,
         "duplicate variable names"),
    ]
    for spec, error, message in refusals:
        with pytest.raises(error, match=message):
            make_ring(spec)
    Zl = make_ring({"base": "Z", "invert": "5"})
    calls = [
        (lambda: Z.localized(0), InvalidInput, "cannot invert zero"),
        (lambda: Zl.localized(Zl.el(5).inv()), InvalidInput,
         "already a denominator power"),
        (lambda: Z.at_precision(3), PrecisionMismatch, "ring is not completed"),
        # 5 is 0 in Z_5 at precision 1: 5/5 = 1 would be 0
        (lambda: Zl.completed((Zl.el(5),), 1), UnsupportedRing, "5 is 0 in"),
        (lambda: Z.el([1]), InvalidInput, "cannot interpret \\[1\\]"),
        (lambda: Z.el(Q.el("x")), InvalidInput, "cannot coerce from"),
        (lambda: Z.el(Zl.el(5).inv()), InvalidInput,
         "does not invert the same element"),
        (lambda: Z.el(2) + Q.el("x"), InvalidInput, "mixed rings"),
        (lambda: Z.divmod_el(3, 0), ZeroDivisionError, "division by zero"),
        (lambda: Q.divmod_el("x", "y"), UnsupportedRing,
         "no euclidean division"),
        (lambda: Q.unit_part("x"), UnsupportedRing, "no unit part"),
    ]
    for call, error, message in calls:
        with pytest.raises(error, match=message):
            call()
    from lodua import groebner_basis
    with pytest.raises(UnsupportedRing, match="expects a plain polynomial"):
        groebner_basis(make_ring({"base": "Q", "vars": ["x"],
                                  "quotient": ["x^2"]}), ["x"])


def test_element_arithmetic_corners():
    Z = make_ring({"base": "Z"})
    assert 3 - Z.el(2) == Z.el(1) and Z.el(2) + 3 == Z.el(5)
    assert Z.el(2) == 2 and Z.el(2) != object()
    Zx = make_ring({"base": "Z", "vars": ["x"]})
    assert Zx.el(-1).inv() == Zx.el(-1)        # the units of Z[x] are +-1
    Zl = make_ring({"base": "Z", "invert": "5"})
    assert Zl.divmod_el(0, 7) == (Zl.zero(), Zl.zero())
    # Z_5[1/5]: divide out the powers of 5, invert the rest in Z_5
    Z5l = make_ring({"base": "Z", "invert": "5",
                     "completion": {"ideal": ["5"], "precision": 4}})
    assert Z5l.el(50).inv().render() == "(313)/(5)^2"
    assert Z5l.el(50) * Z5l.el(50).inv() == Z5l.one()
    # Z_5[1/10]: 15/10 is 3/2, and 2 is a unit of Z_5
    Z5l = make_ring({"base": "Z", "invert": "10",
                     "completion": {"ideal": ["5"], "precision": 2}})
    assert Z5l.el(15, dexp=1) == Z5l.el(3) * Z5l.el(2).inv()
    assert Z5l.el(20) * Z5l.el(20).inv() == Z5l.one()
    # denominators cancel over a quotient ring
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["y^2"],
                   "invert": "x"})
    assert R.el("x^2", dexp=1) == R.el("x")
    assert repr(make_ring({"base": "Q", "vars": ["x"],
                           "quotient": ["x^2"]})) == "QQ[x]/(x^2)"


def test_an_element_shares_a_prime_with_the_inverted_element_of_z5():
    # Z_5[1/25]: 5 is a unit, with the inverse 5/25
    R = make_ring({"base": "Z", "invert": "25",
                   "completion": {"ideal": ["5"], "precision": 3}})
    assert R.el(5).is_unit() and R.el(5).inv().render() == "(5)/(25)"
    assert R.el(5) * R.el(5).inv() == R.one()


def test_z_with_an_element_inverted_completed_at_another_prime_is_z_p():
    Z5 = make_ring({"base": "Z", "invert": "5"})
    R = Z5.completed((Z5.el(3),), 20)
    assert R.classify() == "int_localized" and R.is_euclidean
    assert not R.el(3).is_unit() and R.unit_inverse(R.el(3)) is None
    assert R.el(5).inv() * R.el(5) == R.one()
    assert R.divmod_el(48, 3) == (R.el(16), R.zero())


# -- one euclidean record per ring kind -----------------------------------------

# every euclidean kind: Z[1/u] with u of either sign over one prime, two
# primes and a prime power; Z_5[1/u] at precision 12 with v_5(u) = 0 (Z_5,
# reached only by completing Z[1/3]), 1 and 2 (Q_5); Q, F_7, Q[t], F_5[t]
_Z_INV3 = make_ring({"base": "Z", "invert": "3"})
_EUCLIDEAN_RINGS = {
    "Z[1/7]": make_ring({"base": "Z", "invert": "7"}),
    "Z[1/-10]": make_ring({"base": "Z", "invert": "-10"}),
    "Z[1/-8]": make_ring({"base": "Z", "invert": "-8"}),
    "Z[1/12]": make_ring({"base": "Z", "invert": "12"}),
    "Z5[1/3]": _Z_INV3.completed((_Z_INV3.el(5),), 12),
    "Z5[1/10]": make_ring({"base": "Z", "invert": "10", "completion": {
        "ideal": ["5"], "precision": 12}}),
    "Z5[1/75]": make_ring({"base": "Z", "invert": "75", "completion": {
        "ideal": ["5"], "precision": 12}}),
    "Q": make_ring({"base": "Q"}),
    "F7": make_ring({"base": "Fp", "p": 7}),
    "Q[t]": make_ring({"base": "Q", "vars": ["t"]}),
    "F5[t]": make_ring({"base": "Fp", "p": 5, "vars": ["t"]}),
}


@st.composite
def _euclidean_element(draw, R, top=4):
    """An element of R; over Z and Z_5 with an element inverted, +-2^i 3^j
    5^k m / u^d with i, j, k at most ``top`` and d at most top // 2."""
    if R.nvars:
        coeffs = draw(st.lists(st.integers(-3, 3), max_size=4))
        return R.el(Poly(R.dom, 1, {(i,): c for i, c in enumerate(coeffs)}))
    if R.base == "Q":
        return R.el(Fraction(draw(st.integers(-30, 30)),
                             draw(st.integers(1, 30))))
    if R.base == "F":
        return R.el(draw(st.integers(0, 6)))
    i, j, k = (draw(st.integers(0, top)) for _ in range(3))
    num = draw(st.sampled_from([1, -1])) * 2 ** i * 3 ** j * 5 ** k * draw(
        st.integers(0, 50))
    return R.el(num, draw(st.integers(0, top // 2)))


@pytest.mark.parametrize("name", sorted(_EUCLIDEAN_RINGS))
@settings(max_examples=40)
@given(data=st.data())
def test_euclidean_records_satisfy_their_equations(name, data):
    R = _EUCLIDEAN_RINGS[name]
    a, b = data.draw(_euclidean_element(R)), data.draw(_euclidean_element(R))
    # over Z_5[1/u] the inverse of e = a/u^d has u^d in its numerator, known
    # mod 5^N only: e * e^-1 = 1 needs e's valuation well below N/2, so e
    # is drawn with at most 5^2 (times m <= 50) over at most u^1 (N = 12)
    e = data.draw(_euclidean_element(R, top=2 if R.is_completed else 4))
    for x in (a, b, e):
        assert x.is_unit() == (R.unit_inverse(x) is not None)
    if e.is_unit():
        assert e * e.inv() == R.one()
    if b.is_zero():
        return
    q, r = R.divmod_el(a, b)
    assert r.is_zero() or R.euclid.size(r) < R.euclid.size(b)
    assert R.unit_part(b).is_unit()
    # over Q_5 the canonical form divides a numerator known mod 5^N by u
    # and so loses digits: q * b + r = a holds at precision N/2 there
    same = (R.at_precision(R.precision // 2).el
            if R.is_completed and R.el(5).is_unit() else R.el)
    assert same(q * b + r) == same(a)


# -- Z and Z_p on ints ----------------------------------------------------------

_ZZ = make_ring({"base": "Z"})
_Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}})
_M5 = 5 ** 20


def _poly_route(R, num):
    """The element of a constant Poly as the generic route built it: Z keeps
    the numerator, Z_5 reduces its constant mod 5^N."""
    if R.is_completed:
        num = Poly.const(R.dom, 0, int(num.constant()) % 5 ** R.precision)
    return RingElement(R, num, 0)


def _same_element(got, want):
    assert got.num.terms == want.num.terms and got.dexp == want.dexp
    assert got == want and hash(got) == hash(want)


_VALUES = st.one_of(st.sampled_from([0, 1, -1, _M5 - 1, _M5, -_M5, 2 * _M5 + 3]),
                    st.integers(-3 * _M5, 3 * _M5), st.integers(-30, 30))


@settings(max_examples=100)
@given(st.sampled_from([_ZZ, _Z5]), _VALUES, _VALUES, st.integers(0, 7))
def test_integer_arithmetic_is_the_polynomial_route(R, a, b, n):
    """Over Z and Z_5 (precision 20) every operation computes on ints and
    builds the element the Poly arithmetic and the old canonical form
    built: the same terms, denominator exponent, equality and hash."""
    pa, pb = Poly.const(R.dom, 0, a), Poly.const(R.dom, 0, b)
    ea, eb = R.el(a), R.el(b)
    _same_element(ea, _poly_route(R, pa))
    _same_element(R.from_key(R.vec_key([ea])[0]), ea)
    # each canonical operand is the Poly it stands for: Z_p keeps [0, p^N)
    qa, qb = ea.num, eb.num
    for got, want in [
            (ea + eb, qa + qb), (ea + b, qa + qb), (b + ea, qb + qa),
            (ea - eb, qa - qb), (ea - b, qa - qb), (b - ea, qb - qa),
            (ea * eb, qa * qb), (ea * b, qa * qb), (b * ea, qb * qa),
            (-ea, -qa), (ea ** n, qa ** n)]:
        _same_element(got, _poly_route(R, want))


@settings(max_examples=60)
@given(st.one_of(st.from_regex(r"-?[0-9]+", fullmatch=True),
                 st.sampled_from(["-0", "007", "-007", "0"])))
def test_integer_literals_are_read_as_the_parser_reads_them(text):
    QF = [make_ring({"base": "Q", "vars": ["x", "y"]}),
          make_ring({"base": "Fp", "p": 7, "vars": ["x"]})]
    for R in (_ZZ, _Z5):
        _same_element(R.el(text), _poly_route(R, parse_poly(text, (), R.dom)))
    for R in QF:
        _same_element(R.el(text),
                      R._normal(parse_poly(text, R.names, R.dom), 0))


def test_other_integer_spellings_keep_the_parser():
    for R in (_ZZ, _Z5, make_ring({"base": "Q", "vars": ["x"]})):
        for text in ("+5", "2_5", "5x"):
            with pytest.raises(ParseError):
                R.el(text)
        assert R.el(" 5") == R.el("5 ") == R.el("--5") == R.el(5)
