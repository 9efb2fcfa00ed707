import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodua import (InvalidInput, PrecisionMismatch, UnsupportedRing, make_ring,
                   normal_form)
from lodua.expr import ParseError, parse_poly
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


def test_normal_form_quotient():
    # divide x^3 by x^2 - y by hand: x^3 = x(x^2 - y) + xy
    Q = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y"]})
    assert normal_form(Q, "x^3") == Q.el("x*y")
    assert normal_form(Q, "0").is_zero()


def test_normal_form_idempotent():
    Q = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y"]})
    for raw in ["x^3", "x^2*y - y^2 + 7", "(x + y)^3", "x^5 - x"]:
        once = normal_form(Q, raw)
        assert normal_form(Q, once.num) == once


def test_localization_canonical_form():
    Zl = make_ring({"base": "Z", "invert": "5"})
    assert Zl.el(10, dexp=1) == Zl.el(2)
    e = Zl.el(3, dexp=2)
    assert e.dexp == 2
    assert Zl.el(5).is_unit()
    assert Zl.el(5).inv() == Zl.el(1, dexp=1)
    assert (Zl.el(5) * Zl.el(5).inv()) == Zl.one()


def test_localizing_at_zero_divisor_rejected():
    with pytest.raises(InvalidInput):
        make_ring({"base": "Q", "vars": ["x", "y"],
                   "quotient": ["x*y"], "invert": "x"})


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
    assert Zl.euclidean_size(r) < Zl.euclidean_size(b)


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
    import lodua.ring as ring_mod
    R = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x", "y"], "precision": 4}})
    u = R.el("1 + x - 2*y")
    built = []
    real = ring_mod.GBasis

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ring_mod, "GBasis", counted)
    assert u * u.inv() == R.one()
    # Q[[x,y]] is truncated power series: no basis at all
    assert len(built) == 0
    with pytest.raises(ZeroDivisionError, match=r"^x \+ y is not a unit in "):
        R.el("x + y").inv()
    with pytest.raises(ZeroDivisionError, match="is not a unit"):
        R.zero().inv()


def test_inverse_over_non_monomial_completion_builds_one_basis(monkeypatch):
    import lodua.ring as ring_mod
    R = make_ring({"base": "Q", "vars": ["x", "y"],
                   "completion": {"ideal": ["x + y", "x*y"], "precision": 4}})
    assert R.monomial_modulus is None and not R.is_power_series
    u = R.el("1 + x - 2*y")
    built = []
    real = ring_mod.GBasis

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ring_mod, "GBasis", counted)
    assert u * u.inv() == R.one()
    assert len(built) == 1
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
    slow = Ring(R.base, R.p, R.names, R.quotient, R.inverted, R.completion,
                R.order)
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
                Z5.completion, Z5.order)
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
        (lambda: Z.el([1]), InvalidInput, "cannot interpret \\[1\\]"),
        (lambda: Z.el(Q.el("x")), InvalidInput, "cannot coerce from"),
        (lambda: Z.el(Zl.el(5).inv()), InvalidInput,
         "does not invert the same element"),
        (lambda: Z.el(2) + Q.el("x"), InvalidInput, "mixed rings"),
        (lambda: Z.divmod_el(3, 0), ZeroDivisionError, "division by zero"),
        (lambda: Q.divmod_el("x", "y"), UnsupportedRing,
         "no euclidean division"),
        (lambda: Q.euclidean_size("x"), UnsupportedRing, "no euclidean size"),
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
    assert Z.euclidean_size(0) == -1
    Zx = make_ring({"base": "Z", "vars": ["x"]})
    assert Zx.el(-1).inv() == Zx.el(-1)        # the units of Z[x] are +-1
    Zl = make_ring({"base": "Z", "invert": "5"})
    assert Zl.strip_inverted(0) == (Zl.zero(), Zl.one())
    # Z_5[1/5]: divide out the powers of 5, invert the rest in Z_5
    Z5l = make_ring({"base": "Z", "invert": "5",
                     "completion": {"ideal": ["5"], "precision": 4}})
    assert Z5l.el(50).inv().render() == "(313)/(5)^2"
    assert Z5l.el(50) * Z5l.el(50).inv() == Z5l.one()
    # denominators cancel over a quotient ring
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["y^2"],
                   "invert": "x"})
    assert R.el("x^2", dexp=1) == R.el("x")
    assert repr(make_ring({"base": "Q", "vars": ["x"],
                           "quotient": ["x^2"]})) == "QQ[x]/(x^2)"


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
