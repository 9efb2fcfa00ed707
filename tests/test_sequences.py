from fractions import Fraction
from itertools import product

from lodua import is_regular_sequence, make_ring
from lodua.poly import GF, Poly


def test_variables_are_regular(QQxy):
    assert is_regular_sequence(QQxy, ["x", "y"])


def test_repeated_variable_fails_with_witness(QQxy):
    v = is_regular_sequence(QQxy, ["x", "x"])
    assert not v
    assert v.stage == 2
    assert v.witness is not None
    # the witness is killed by x modulo (x): multiplication lands in (x)
    w = v.witness[0]
    assert not (w.is_zero())


def test_power_sums_are_regular(QQxy):
    # Q[x,y] is free of rank 2 over Q[x+y, xy]; on Q[x,y]/(x+y) = Q[x],
    # xy acts as -x^2, which is injective
    assert is_regular_sequence(QQxy, ["x + y", "x*y"])


def test_unit_quotient_fails(QQxy):
    v = is_regular_sequence(QQxy, ["x", "y", "x + y - 1"])
    assert not v
    assert v.quotient_nonzero is False


def test_zero_divisor_in_z(ZZ):
    assert is_regular_sequence(ZZ, [5])
    assert not is_regular_sequence(ZZ, [0])


def _completed(names, ideal, precision=3):
    return make_ring({"base": "Q", "vars": list(names),
                      "completion": {"ideal": list(ideal),
                                     "precision": precision}})


def test_completed_ring_certifies_injectivity_in_the_underlying_ring():
    # in the A/I^3 model x kills x^2, yet (x, y) is regular in Q[x,y] and
    # Q[[x,y]] is flat over it
    v = is_regular_sequence(_completed("xy", "xy"), ["x", "y"])
    assert v.regular and v.quotient_nonzero
    # a failing step carries its witness from the underlying ring
    v = is_regular_sequence(_completed("xy", "xy"), ["x", "x"])
    assert (v.regular, v.stage) == (False, 2)
    assert v.witness[0].ring == make_ring({"base": "Q", "vars": ["x", "y"]})


def test_completed_ring_decides_the_final_quotient_in_the_completion():
    # x - 1 is regular in Q[x] but a unit in Q[[x]]
    assert is_regular_sequence(make_ring({"base": "Q", "vars": ["x"]}),
                               ["x - 1"])
    v = is_regular_sequence(_completed("x", "x"), ["x - 1"])
    assert v.describe() == {"regular": False, "stage": 1,
                            "final_quotient_nonzero": False}


# brute-force oracle: truncate to polynomials of degree <= D over F_2 and
# check injectivity of multiplication as a finite-dimensional linear map

def _truncated_mult_injective(seq_polys, mult, D, nvars=2):
    """Is multiplication by `mult` injective on (F_2[x,y]/(seq))_(<=D)?

    Compares kernels of the degree-truncated multiplication map against
    membership in the truncated ideal; a kernel vector that is not visibly
    in the ideal at degree D + deg(mult) certifies a zerodivisor.
    """
    monos = [m for m in _all_monos(nvars, D)]
    big = [m for m in _all_monos(nvars, D + mult.total_degree() + 2)]
    big_index = {m: i for i, m in enumerate(big)}

    def to_vec(p, basis_index, size):
        v = [0] * size
        for m, c in p.terms.items():
            if m in basis_index:
                v[basis_index[m]] = c % 2
            else:
                return None
        return v

    # ideal span at the large degree
    span = []
    for g in seq_polys:
        for m in big:
            q = g * Poly(g.dom, nvars, {m: 1})
            v = to_vec(q, big_index, len(big))
            if v is not None:
                span.append(v)
    basis = _rref_f2(span, len(big))

    for m in monos:
        p = Poly(mult.dom, nvars, {m: 1}) * mult
        v = to_vec(p, big_index, len(big))
        red = _reduce_f2(v, basis)
        if not any(red):
            # mult kills this monomial mod the ideal: check the monomial
            # itself is not already in the ideal
            mv = to_vec(Poly(mult.dom, nvars, {m: 1}), big_index, len(big))
            if any(_reduce_f2(mv, basis)):
                return False
    return True


def _all_monos(nvars, D):
    out = []
    for degs in product(range(D + 1), repeat=nvars):
        if sum(degs) <= D:
            out.append(degs)
    return sorted(out)


def _rref_f2(rows, width):
    basis = {}
    for row in rows:
        row = row[:]
        for piv, brow in sorted(basis.items()):
            if row[piv]:
                row = [(a + b) % 2 for a, b in zip(row, brow)]
        lead = next((i for i, a in enumerate(row) if a), None)
        if lead is not None:
            basis[lead] = row
    return basis


def _reduce_f2(row, basis):
    row = row[:]
    for piv, brow in sorted(basis.items()):
        if row[piv]:
            row = [(a + b) % 2 for a, b in zip(row, brow)]
    return row


def test_brute_force_equivalence_small_grid(F2xy):
    """Engine verdicts agree with degree-truncated F_2 linear algebra."""
    names = ("x", "y")
    polys = {
        "x": F2xy.el("x"), "y": F2xy.el("y"), "x+y": F2xy.el("x + y"),
        "xy": F2xy.el("x*y"), "x2": F2xy.el("x^2"),
        "x2+y": F2xy.el("x^2 + y"),
    }
    for a in polys.values():
        for b in polys.values():
            engine = bool(is_regular_sequence(F2xy, [a, b]))
            # oracle: a regular on A, then b injective on A/(a), quotient != 0
            ok_a = _truncated_mult_injective([], a.num, 4)
            ok_b = _truncated_mult_injective([a.num], b.num, 4)
            big = _all_monos(2, 6)
            big_index = {m: i for i, m in enumerate(big)}
            span = []
            for g in (a.num, b.num):
                for m in big:
                    q = g * Poly(g.dom, 2, {m: 1})
                    v = [0] * len(big)
                    usable = True
                    for mm, c in q.terms.items():
                        if mm in big_index:
                            v[big_index[mm]] = c % 2
                        else:
                            usable = False
                    if usable:
                        span.append(v)
            basis = _rref_f2(span, len(big))
            one = [0] * len(big)
            one[big_index[(0, 0)]] = 1
            nonzero_quotient = any(_reduce_f2(one, basis))
            oracle = ok_a and ok_b and nonzero_quotient
            assert engine == oracle, (a, b, engine, oracle)


def test_verdicts_describe_their_evidence(ZZ, QQxy):
    import pytest
    from lodua import InvalidInput
    assert is_regular_sequence(QQxy, ["x", "y"]).describe() == {
        "regular": True, "final_quotient_nonzero": True}
    out = is_regular_sequence(QQxy, ["x", "x"]).describe()
    assert out["regular"] is False and out["stage"] == 2 and out["witness"]
    assert is_regular_sequence(ZZ, [1]).describe() == {
        "regular": False, "stage": 1, "final_quotient_nonzero": False}
    with pytest.raises(InvalidInput, match="need a nonempty sequence"):
        is_regular_sequence(ZZ, [])
