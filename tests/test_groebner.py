import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lodua
from lodua import BudgetExceeded, Ring, UnsupportedRing
from lodua.groebner import _LIMIT, GBasis, _TermKeys
from lodua.poly import GF, QQ, Poly, grevlex_key, mono_lcm, mono_div


def qxy():
    """Q[x,y], to parse the elements whose bases the tests build."""
    return Ring.get("Q", None, ("x", "y"))


def ideal_basis(polys):
    """The basis of the ideal that polys generate (rank 1)."""
    return GBasis([(p,) for p in polys], 1)


def basis_polys(gb):
    return [p for p, in gb.elements]


def test_reduced_basis_grevlex():
    # Buchberger by hand on (x^2 - y, x*y - 1), grevlex x > y: the S-pair
    # y*(x^2 - y) - x*(x*y - 1) = x - y^2 has lead y^2, and every other pair
    # reduces to 0, so the leads x^2, x*y, y^2 leave 1, x, y: three points.
    R = qxy()
    g1, g2 = R.el("x^2 - y").num, R.el("x*y - 1").num
    gb = ideal_basis([g1, g2])
    got = [p.render(("x", "y")) for p in basis_polys(gb)]
    assert got == ["y^2 - x", "x*y - 1", "x^2 - y"]
    # membership cross-check
    assert gb.contains((g1,))
    assert gb.contains((g2,))


def test_single_generator_monic():
    R = qxy()
    gb = ideal_basis([R.el("2*x^2 - 2*y").num])
    polys = basis_polys(gb)
    assert len(polys) == 1
    assert polys[0] == R.el("x^2 - y").num


def test_unit_ideal():
    R = qxy()
    gb = ideal_basis([R.el("x").num, R.el("y").num, R.el("1").num])
    polys = basis_polys(gb)
    assert len(polys) == 1 and polys[0].is_constant()


def test_spolynomial_closure():
    """Every S-pair of the output reduces to zero: the defining property."""
    R = qxy()
    gens = [R.el("x^2 - y").num, R.el("y^2 - x").num, R.el("x*y - 1").num]
    gb = ideal_basis(gens)
    polys = basis_polys(gb)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            mi, ci = polys[i].leading(grevlex_key)
            mj, cj = polys[j].leading(grevlex_key)
            lcm = mono_lcm(mi, mj)
            qi, qj = mono_div(lcm, mi), mono_div(lcm, mj)
            dom = polys[i].dom
            spoly = polys[i] * Poly(dom, 2, {qi: dom.inv(ci)}) \
                - polys[j] * Poly(dom, 2, {qj: dom.inv(cj)})
            assert gb.contains((spoly,))


def test_determinism():
    R = qxy()
    gens = [R.el("x^2 + y^2 - 1").num, R.el("x*y - 2").num]
    one = [p.render(("x", "y")) for p in basis_polys(ideal_basis(gens))]
    two = [p.render(("x", "y")) for p in basis_polys(ideal_basis(gens))]
    assert one == two


def test_cofactor_lift():
    R = qxy()
    g1, g2 = R.el("x^2 - y").num, R.el("y^2 - x").num
    gb = GBasis([(g1,), (g2,)], 1)
    target = g1 * R.el("y").num + g2 * R.el("x^2").num
    cof = gb.lift((target,))
    assert cof is not None
    recon = cof[0] * g1 + cof[1] * g2
    assert recon == target


def test_syzygies_are_syzygies():
    R = Ring.get("Q", None, ("x", "y"))
    gens = [R.el("x").num, R.el("y").num, R.el("x + y").num]
    gb = GBasis([(g,) for g in gens], 1)
    syz = gb.syzygies()
    assert syz
    for s in syz:
        acc = Poly.zero(gens[0].dom, 2)
        for c, g in zip(s, gens):
            acc = acc + c * g
        assert acc.is_zero()


def test_budget_exceeded_carries_partial():
    R = qxy()
    gens = [R.el("x^3 - 2*x*y").num, R.el("x^2*y - 2*y^2 + x").num]
    with pytest.raises(BudgetExceeded) as err, lodua.settings(budget=3):
        ideal_basis(gens)
    assert err.value.partial is not None


def test_z_restricted_to_unit_leads():
    R = Ring.get("Z", None, ("x",))
    with pytest.raises(UnsupportedRing):
        ideal_basis([R.el("2*x").num, R.el("x + 3").num])
    # unit leading coefficients work
    gb = ideal_basis([R.el("x - 3").num])
    assert gb.contains((R.el("x - 3").num,))


def test_queries_count_their_own_steps():
    # every query gets the full budget: a finished basis keeps answering
    # however many queries it has served
    R = Ring.get("Q", None, ("x", "y"))
    with lodua.settings(budget=20):
        gb = GBasis([(R.el(s).num,) for s in ("x^2 - y", "y^2 - x")], 1)
        target = (R.el("x^3 + x^2*y + 3*x*y^2 + y").num,)
        for _ in range(1000):
            assert gb.normal_form(target) == (R.el("x*y + x + 4*y").num,)
        # but one query that needs more steps than the budget still stops
        with pytest.raises(BudgetExceeded):
            gb.normal_form((R.el("(x + y)^8").num,))
    # the budget of a query is the one in force when it runs
    assert gb.normal_form((R.el("(x + y)^8").num,))


def test_a_basis_over_the_budget_answers_no_query():
    """A basis built in more steps than the budget in force is refused, as
    building it afresh under that budget would be."""
    R = qxy()
    gb = ideal_basis([R.el("x^3 - 2*x*y").num,
                      R.el("x^2*y - 2*y^2 + x").num])
    g = gb.gens[0]
    with lodua.settings(budget=gb._steps):
        assert gb.contains(g)
    with lodua.settings(budget=gb._steps - 1):
        with pytest.raises(BudgetExceeded):
            gb.contains(g)


def test_a_syzygy_query_reads_the_budget_once(monkeypatch):
    """Extracting the syzygies reads the budget once for all its lifts, and
    refuses a basis built in more steps than that budget, as at every query:
    under ``settings`` and, with none in force, under LODUA_BUDGET as it
    reads when the query runs."""
    from lodua import context, linalg
    R = qxy()
    gens = [(R.el(g).num,) for g in ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x")]
    gb = GBasis(gens, 1)
    syz = gb.syzygies()
    reads, budget = [], context.budget
    monkeypatch.setattr(context, "budget",
                        lambda: (reads.append(1), budget())[1])
    # one read for the lifts of both generators
    assert gb.syzygies() == syz and reads == [1]
    with lodua.settings(budget=gb._steps - 1):
        with pytest.raises(BudgetExceeded):
            gb.syzygies()
    monkeypatch.setenv("LODUA_BUDGET", str(gb._steps - 1))
    with pytest.raises(BudgetExceeded):
        gb.syzygies()
    monkeypatch.setenv("LODUA_BUDGET", str(gb._steps))
    assert gb.syzygies() == syz
    # a span answers the second query from its memo, and still asks the
    # budget
    monkeypatch.delenv("LODUA_BUDGET")
    cols = [tuple(map(R.el, g)) for g in gens]
    linalg._span.cache_clear()
    heads = linalg.syzygies(R, cols, 1)
    steps = linalg._span_of(R, cols, 1).basis()._steps
    monkeypatch.setenv("LODUA_BUDGET", str(steps - 1))
    with pytest.raises(BudgetExceeded):
        linalg.syzygies(R, cols, 1)
    monkeypatch.setenv("LODUA_BUDGET", str(steps))
    assert linalg.syzygies(R, cols, 1) == heads


# -- the Buchberger path, pinned -------------------------------------------
# Exact reduced bases, cofactors, syzygies, lifts and construction step
# counts of three inputs.  A change to the pair order, the reducer choice,
# the chain criterion or the normalisation shows up here.

PINNED = {
    "q_completed_i3": {
        "steps": 16,
        "elements": [
            ("x - 3/2*y",),
            ("y^3",),
        ],
        "cofactors": [
            ("1/2", "0", "0", "0", "0"),
            ("-4/27*x^2 - 2/9*x*y - 1/3*y^2", "8/27", "0", "0", "0"),
        ],
        "syzygies": [
            ("1/3*x^2", "-2/3", "1", "0", "0"),
            ("2/9*x^2 + 1/3*x*y", "-4/9", "0", "1", "0"),
            ("4/27*x^2 + 2/9*x*y + 1/3*y^2", "-8/27", "0", "0", "1"),
            ("4/27*x^3", "-8/27*x + 4/9*y", "0", "0", "0"),
        ],
        "lifts": [
            ("-x^2 - x*y + 5", "2", "0", "0", "0"),
            None,
        ],
    },
    "f7_rank2_i2": {
        "steps": 44,
        "elements": [
            ("x + 2*y", "3*y"),
            ("y^2", "0"),
            ("0", "x + 6*y"),
            ("0", "y^2"),
        ],
        "cofactors": [
            ("1", "0", "0", "0", "0", "0", "0", "0"),
            ("0", "0", "0", "0", "1", "0", "0", "0"),
            ("0", "1", "0", "0", "6", "0", "0", "0"),
            ("5*y", "0", "0", "2", "4", "0", "0", "0"),
        ],
        "syzygies": [
            ("2*x", "6*x", "5", "3", "x", "1", "0", "0"),
            ("2*x", "0", "5", "3", "0", "0", "1", "0"),
            ("2*y", "0", "0", "5", "3", "0", "0", "1"),
            ("5*x + 2*y", "6*y", "2", "2", "y + 3", "0", "0", "0"),
            ("0", "0", "0", "y", "6*x", "0", "0", "0"),
            ("0", "0", "2*y", "5*x + 4*y", "3*x", "0", "0", "0"),
            ("6*x + y", "3*y", "1", "1", "4*y + 5", "0", "0", "0"),
            ("2*y", "6*x + 6*y", "0", "5", "x + y + 3", "1", "0", "0"),
            ("2*y", "6*y", "0", "5", "y + 3", "0", "1", "0"),
        ],
        "lifts": [
            None,
            ("y + 1", "0", "0", "0", "0", "0", "0", "0"),
            None,
        ],
    },
    "z_unit_leads": {
        "steps": 22,
        "elements": [
            ("x*y + y^2 - 1",),
            ("x^2 - 3*y",),
            ("y^3 - 3*y^2 + x - y",),
        ],
        "cofactors": [
            ("0", "1"),
            ("1", "0"),
            ("y", "-x + y"),
        ],
        "syzygies": [
            ("-x*y - y^2 + 1", "x^2 - 3*y"),
        ],
        "lifts": [
            None,
            ("x", "y"),
        ],
    },
}


def _pinned_case(name):
    """(ring, generators, nrows, lift targets) of a pinned case."""
    if name == "q_completed_i3":
        # the I^3 relations of Q[[x,y]] plus one linear relation
        R = Ring.get("Q", None, ("x", "y"))
        gens = ["2*x - 3*y", "x^3", "x^2*y", "x*y^2", "y^3"]
        targets = ["x^2*y + 3*x*y^2 + 10*x - 15*y", "x + 1"]
        return (R, [(R.el(g).num,) for g in gens], 1,
                [(R.el(t).num,) for t in targets])
    if name == "f7_rank2_i2":
        # a rank-2 F_7[x,y] module augmented by I^2 in each coordinate
        R = Ring.get("F", 7, ("x", "y"))
        z = Poly.zero(R.dom, 2)
        vec = lambda a, b: (R.el(a).num, R.el(b).num)
        i2 = [R.el(m).num for m in ("x^2", "x*y", "y^2")]
        gens = [vec("x + 2*y", "3*y"), vec("y^2", "x - y")]
        gens += [(m, z) for m in i2] + [(z, m) for m in i2]
        targets = [vec("x", "2*y"),
                   vec("x*y + 2*y^2 + x + 2*y", "3*y^2 + 3*y"),
                   vec("3*x + 6*y", "2*y + x")]
        return R, gens, 2, targets
    # over Z, with leading coefficients that stay units
    R = Ring.get("Z", None, ("x", "y"))
    gens = ["x^2 - 3*y", "x*y + y^2 - 1"]
    targets = ["x^3 + x*y^2 - 3*x*y", "x^3 - 3*x*y + x*y^2 + y^3 - y"]
    return (R, [(R.el(g).num,) for g in gens], 1,
            [(R.el(t).num,) for t in targets])


@pytest.mark.parametrize("name", ["q_completed_i3", "z_unit_leads"])
def test_every_reduction_step_ticks_once(monkeypatch, name):
    """``_tick`` runs once per reduction step (the benchmark counts Groebner
    steps by its calls): as many times as a construction's steps, and a
    query's steps come on top."""
    _, gens, nrows, targets = _pinned_case(name)
    ticks = []
    tick = GBasis._tick
    monkeypatch.setattr(GBasis, "_tick", lambda self, steps, budget: (
        ticks.append(steps), tick(self, steps, budget))[1])
    gb = GBasis(gens, nrows)
    assert ticks == list(range(1, gb._steps + 1))
    del ticks[:]
    gb.lift(targets[0])
    # one check of the construction, then the query's own steps from 1
    assert ticks[0] == gb._steps and ticks[1:] == list(range(1, len(ticks)))


@pytest.mark.parametrize("name", list(PINNED))
def test_buchberger_path_is_pinned(name):
    ring, gens, nrows, targets = _pinned_case(name)
    gb = GBasis(gens, nrows)

    def render(v):
        return None if v is None else tuple(p.render(ring.names) for p in v)

    want = PINNED[name]
    assert gb._steps == want["steps"]
    assert [render(e) for e in gb.elements] == want["elements"]
    assert [render(c) for c in gb.cofactors] == want["cofactors"]
    assert [render(s) for s in gb.syzygies()] == want["syzygies"]
    assert [render(gb.lift(t)) for t in targets] == want["lifts"]


# -- properties over small generator sets ------------------------------------


@st.composite
def generator_sets(draw):
    """(nrows, generators) over Q or F_7 in two variables, degree <= 2."""
    dom = draw(st.sampled_from([QQ, GF(7)]))
    nrows = draw(st.integers(1, 2))
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    poly = st.dictionaries(mono, st.integers(-3, 3), max_size=3).map(
        lambda terms: Poly(dom, 2, terms))
    gens = draw(st.lists(st.tuples(*[poly] * nrows), min_size=1, max_size=3))
    return nrows, gens


def _combine(coeffs, gens, nrows):
    """sum_j coeffs[j] * gens[j], coordinate by coordinate."""
    out = []
    for r in range(nrows):
        acc = Poly.zero(gens[0][0].dom, 2)
        for c, g in zip(coeffs, gens):
            acc = acc + c * g[r]
        out.append(acc)
    return tuple(out)


@settings(max_examples=60)
@given(generator_sets())
def test_basis_certificates_hold(case):
    nrows, gens = case
    gb = GBasis(gens, nrows)
    zero = tuple(Poly.zero(gens[0][0].dom, 2) for _ in range(nrows))
    for e, cof in zip(gb.elements, gb.cofactors):
        assert e == _combine(cof, gens, nrows)
    for s in gb.syzygies():
        assert all(p.is_zero() for p in _combine(s, gens, nrows))
    for g in gens:
        assert gb.contains(g)
        assert gb.normal_form(g) == zero
        assert _combine(gb.lift(g), gens, nrows) == g


@settings(max_examples=40)
@given(generator_sets(), st.data())
def test_a_basis_tracking_the_first_generators_cuts_the_full_one(case, data):
    """Cofactors, lifts and syzygies over the first k generators are the
    full ones cut to k coordinates, less the syzygies that are zero there
    and the repeats that the cut makes (full rows that differ only past k:
    [1, x, x] at k = 1)."""
    nrows, gens = case
    k = data.draw(st.integers(1, len(gens)))
    full, part = GBasis(gens, nrows), GBasis(gens, nrows, track=k)
    assert part.elements == full.elements and part._steps == full._steps
    assert part.cofactors == [c[:k] for c in full.cofactors]
    heads = [s[:k] for s in full.syzygies() if any(p.terms for p in s[:k])]
    assert list(dict.fromkeys(heads)) == part.syzygies()
    assert all(len(s) == k for s in part.syzygies())
    for g in gens:
        assert part.lift(g) == full.lift(g)[:k]


def test_exponents_beyond_the_term_key_field_are_refused():
    """An exponent too large for its key field raises UnsupportedRing, as
    given and as made in a reduction; one at the limit is kept."""
    R = qxy()
    x, y = R.el("x").num, R.el("y").num
    e = _LIMIT // 2 + 1
    with pytest.raises(UnsupportedRing, match="exponents are limited"):
        GBasis([(x ** (_LIMIT + 1),)], 1)
    top = GBasis([(x ** _LIMIT,)], 1)
    assert top.elements == [(x ** _LIMIT,)]
    # the degree field refuses a product above the limit, and an S-pair
    with pytest.raises(UnsupportedRing, match="exponents are limited"):
        top.contains((x ** e * y ** e,))
    with pytest.raises(UnsupportedRing, match="exponents are limited"):
        GBasis([(x ** e + y,), (y ** e + x,)], 1)


@st.composite
def term_pairs(draw):
    """(term keys, two terms (coord, monomial), a monomial q) in 1-3
    variables and coordinates 0-2, every degree small enough that the sums
    below stay valid keys."""
    n = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, _LIMIT // 9)] * n)
    term = st.tuples(st.integers(0, 2), mono)
    return _TermKeys(n), draw(term), draw(term), draw(mono)


@settings(max_examples=200)
@given(term_pairs(), st.data())
def test_term_keys_keep_the_invariants_the_reduction_relies_on(case, data):
    """Ascending keys are (coordinate ascending, grevlex descending); a key
    splits back into its term; x^q adds one shift; in one coordinate the
    masked subtraction decides divisibility; and a monomial of degree
    _LIMIT + 1 fails the guard."""
    keys, (c, m), (d, g), q = case
    n = len(m)
    t = keys.key(c, m)
    assert (t < keys.key(d, g)) == (
        c < d or c == d and grevlex_key(m) > grevlex_key(g))
    assert keys.split(t) == (c, m)
    mq, gq = (tuple(a + b for a, b in zip(v, q)) for v in (m, g))
    assert t + keys.shift(q) == keys.key(c, mq)
    # in coordinate c: g divides m exactly when the subtraction borrows out
    # of no exponent field, and always divides g * q
    gk = keys.key(c, g)
    assert (not (t - gk) & keys.dmask) == (mono_div(m, g) is not None)
    assert not (keys.key(c, gq) - gk) & keys.dmask
    for k in (t, gk, keys.key(c, mq), keys.key(c, gq)):
        assert k & keys.gmask == keys.gpat
    # a monomial of degree _LIMIT + 1, cut into n exponents
    cuts = sorted(data.draw(st.lists(st.integers(0, _LIMIT + 1),
                                     min_size=n - 1, max_size=n - 1)))
    big = tuple(b - a for a, b in zip([0] + cuts, cuts + [_LIMIT + 1]))
    assert sum(big) == _LIMIT + 1
    assert keys.key(c, big) & keys.gmask != keys.gpat


@settings(max_examples=60)
@given(st.data())
def test_reduced_basis_ignores_generator_order(data):
    nrows, gens = data.draw(generator_sets())
    shuffled = data.draw(st.permutations(gens))
    assert GBasis(shuffled, nrows).elements == GBasis(gens, nrows).elements


def test_budget_variable_is_parsed_once(monkeypatch):
    from lodua import InvalidInput
    from lodua.context import budget
    monkeypatch.delenv("LODUA_BUDGET", raising=False)
    assert budget() == 100000
    monkeypatch.setenv("LODUA_BUDGET", "7")
    assert budget() == 7
    assert GBasis([(Poly.var(QQ, 1, 0),)], 1).budget == 7
    with lodua.settings(budget=9):   # a set budget wins over the variable
        assert budget() == 9
    for bad in ("abc", "", "0", "-3", "2.5"):
        monkeypatch.setenv("LODUA_BUDGET", bad)
        with pytest.raises(InvalidInput, match="LODUA_BUDGET"):
            budget()


def test_basis_corners():
    Zx = Ring.get("Z", None, ("x",))
    x = Zx.el("x").num
    with pytest.raises(ValueError, match="need at least one generator"):
        GBasis([], 1)
    # over Z a negative leading coefficient is made positive
    gb = GBasis([(-x,)], 1)
    assert gb.elements == [(x,)] and gb.lift((x,)) == (-Zx.one().num,)
    untracked = GBasis([(x,)], 1, track=False)
    assert untracked.cofactors is None and untracked.contains((x * x,))
    for ask in (lambda: untracked.lift((x,)), untracked.syzygies):
        with pytest.raises(UnsupportedRing, match="built without cofactors"):
            ask()
