"""The run settings: defaults, validation, scope, and where they are read."""

import ast
import json
import os

import pytest

import lodua
import lodua.cli
import lodua.local
from lodua import (BudgetExceeded, FPModule, FPObj, IdealData, InvalidInput,
                   Tower, adic_completion, derived_completion, lim_lim1,
                   local_homology_Ls, make_ring)
from lodua.context import Settings, current

from conftest import zmod

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "lodua")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")


def test_settings_last_for_their_block():
    assert current() == Settings()
    with lodua.settings(K=1, lag=0):
        assert (current().K, current().lag) == (1, 0)
        with lodua.settings(precision="7"):
            assert current() == Settings(precision=7, K=1, lag=0)
        assert current().precision is None
    assert current() == Settings()


@pytest.mark.parametrize("key, value", [
    ("precision", 0), ("K", 0), ("lag", -1), ("budget", 0), ("K", "six"),
    ("lag", True), ("budget", 2.5), ("precision", None)])
def test_a_bad_setting_is_invalid_input(key, value):
    with pytest.raises(InvalidInput, match=key):
        with lodua.settings(**{key: value}):
            pass
    assert current() == Settings()


def test_lim_lim1_probes_within_the_settings(ZZ):
    """The Tor_1 tower of Z/5 at (5) vanishes at lag 1: the default probe
    finds that lag, and one held to K = 1, lag = 0 cannot."""
    def tower():
        return Tower.tor(FPObj(zmod(ZZ, 5)), [5], 1)
    assert lim_lim1(tower()).certificates == {"lag": 1}
    with lodua.settings(K=1, lag=0):
        res = lim_lim1(tower())
    assert res.basis == "artin-rees theorem"
    assert res.certificates["materialized"]["note"] == "lag bound 0 exhausted"


@pytest.mark.parametrize("memo", ["tower limits"])
def test_a_memo_gives_the_cold_answer_after_the_budget_drops(memo,
                                                             monkeypatch):
    """A warm answer at the default budget is not served at LODUA_BUDGET=3,
    where the computation runs out of steps, as it does cold."""
    Q = make_ring({"base": "Q", "vars": ["x", "y"]})
    d, M = IdealData(Q, ["x", "y"]), FPObj(FPModule.cyclic(Q, ["x^2 + y"]))

    def ask():
        return lim_lim1(Tower.tor(M, d.gens, 1))
    monkeypatch.setenv("LODUA_BUDGET", "100000")
    ask()
    monkeypatch.setenv("LODUA_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        ask()


def test_cli_run_restores_the_settings(monkeypatch):
    with open(os.path.join(FIXTURES, "z-mod-p-infty.json")) as fh:
        doc = json.load(fh)
    doc["options"] = {"precision": 3, "K": 2, "lag": 1}
    monkeypatch.setenv("LODUA_BUDGET", "5000")
    seen = []
    check = lodua.local.gm_ses_check

    def spy(d, desc, s):
        seen.append(current())
        return check(d, desc, s)

    monkeypatch.setattr(lodua.cli, "gm_ses_check", spy)
    assert lodua.cli.run(doc, "gm-check")[0] == 0
    assert seen == [Settings(precision=3, K=2, lag=1, budget=5000)]
    assert current() == Settings()
    with pytest.raises(InvalidInput, match="unknown object"):
        lodua.cli.run(doc, "gm-check", {"target": "nope"})
    assert current() == Settings()


def test_unset_precision_is_the_rings_own():
    """Over Z_5 at precision 3 every completion is taken at 3, not 20."""
    Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"],
                                                "precision": 3}})
    d = IdealData(Z5, [5])
    for M in (FPModule.free(Z5, 1), FPModule.cyclic(Z5, [25])):
        assert derived_completion(d, M).value(0).precision == 3
        assert local_homology_Ls(d, M, 0).precision == 3
        out, nat = adic_completion(M, d)
        assert out.ring.precision == nat["precision"] == 3


def test_no_weak_proregularity_question(monkeypatch):
    """L_s and its Lambda cross-check ask no weak-proregularity question at
    any lag: every finite sequence of a Noetherian ring is weakly
    proregular.  (x) in Q[x,y]/(xy) is not a regular sequence (y kills x),
    and neither a Koszul tower nor the regularity certificate is asked for
    it."""
    import lodua.towers
    R = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x*y"]})

    def refused(*args, **kwargs):
        raise AssertionError("a weak-proregularity question was asked")

    monkeypatch.setattr(lodua.towers.KoszulTensorStages, "tower", refused)
    monkeypatch.setattr(IdealData, "regular_certificate", refused)
    with lodua.settings(lag=9):
        value = local_homology_Ls(IdealData(R, ["x"]), FPModule.free(R, 1), 0)
    assert value.basis == "Artin-Rees: adic tower of an f.p. module"


# functions of these modules that may take a bound: those whose bound
# differs from call to call, and the value constructors that store one
_KEPT = {
    "towers": {"is_pro_trivial", "ProTrivialVerdict.__init__"},
    "local": set(),
    "criteria": {"is_L_complete"},
    "hopf": set(),
}


def _bound_takers(tree):
    """Names (Class.method for methods) of the functions of a module that
    take a stage_bound, lag or precision, or any keyword at all."""
    owner = {f: f"{node.name}." for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for f in node.body}
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            args = func.args
            names = {a.arg for a in args.posonlyargs + args.args +
                     args.kwonlyargs}
            if names & {"stage_bound", "lag", "precision"} or args.kwarg:
                found.add(owner.get(func, "") + func.name)
    return found


@pytest.mark.parametrize("module", sorted(_KEPT))
def test_bounds_are_read_where_they_are_used(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    assert _bound_takers(tree) == _KEPT[module]
