import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodua.errors import InternalInconsistency, InvalidInput, PrecisionMismatch

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "lodua.cli", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def fixture(name):
    return os.path.join(FIXTURES, name)


def test_lcomplete_check_zp():
    code, out, _ = run_cli("lcomplete-check", fixture("zp.json"))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "complete"


def test_gm_check_prufer():
    code, out, _ = run_cli("gm-check", fixture("z-mod-p-infty.json"), "--s", "1")
    assert code == 0
    assert json.loads(out)["result"]["status"] == "exact"


def test_verify_completion_formula():
    code, out, _ = run_cli("verify", fixture("c2-swap.json"),
                           "--which", "completion-formula")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "pass"


def test_byte_identical_reports():
    _, out1, _ = run_cli("gm-check", fixture("z-mod-p-infty.json"), "--s", "0")
    _, out2, _ = run_cli("gm-check", fixture("z-mod-p-infty.json"), "--s", "0")
    assert out1 == out2
    assert "time" not in json.loads(out1)


def test_not_complete_exits_one(tmp_path):
    doc = {
        "version": "1",
        "ring": {"base": "Z"},
        "ideal": ["5"],
        "modules": {"Z": {"generators": 1, "relations": []}},
        "descriptors": {"z": {"kind": "fp", "module": "Z"}},
        "command": {"verb": "lcomplete-check", "target": "z"},
    }
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("lcomplete-check", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["result"]["verdict"] == "not-complete"
    assert report["result"]["witness"]


def test_invalid_document_exits_three(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, _, err = run_cli("resolve", str(path))
    assert code == 3
    path.write_text(json.dumps({"version": "1", "ring": {"base": "nope"}}))
    code, _, err = run_cli("resolve", str(path))
    assert code == 3
    assert "invalid input" in err


def test_missing_reference_exits_three(tmp_path):
    doc = {"version": "1", "ring": {"base": "Z"}, "ideal": ["5"],
           "command": {"verb": "localcoh", "target": "nope", "s": 0}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli("localcoh", str(path))
    assert code == 3


def test_resolve_verb():
    code, out, _ = run_cli("resolve", fixture("z.json"))
    assert code == 0
    report = json.loads(out)
    assert report["ring"] == "ZZ"
    assert "Zmod125" in report["modules"]


def test_localcoh_and_lambda_verbs(tmp_path):
    doc = {
        "version": "1",
        "ring": {"base": "Z"},
        "ideal": ["5"],
        "modules": {"Z": {"generators": 1, "relations": []}},
        "command": {},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("localcoh", str(path), "--target", "Z", "--s", "1")
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "telescope_quotient"
    code, out, _ = run_cli("lambda", str(path), "--target", "Z")
    assert code == 0
    assert json.loads(out)["result"]["0"]["kind"] == "module"


def test_tor_ext_verbs(tmp_path):
    doc = {
        "version": "1",
        "ring": {"base": "Z"},
        "modules": {"M": {"generators": 1, "relations": [["4"]]},
                    "N": {"generators": 1, "relations": [["6"]]},
                    "F": {"generators": 1, "relations": []}},
        "command": {},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("tor", str(path), "--M", "M", "--N", "N", "--s", "1")
    assert code == 0
    assert json.loads(out)["result"]["torsion"] == ["2"]
    code, out, _ = run_cli("ext", str(path), "--M", "M", "--N", "F", "--s", "1")
    assert code == 0
    assert json.loads(out)["result"]["torsion"] == ["4"]


def test_proreg_and_membership_verbs(tmp_path):
    doc = {
        "version": "1",
        "ring": {"base": "Q", "vars": ["x", "y"]},
        "ideal": ["x + y", "x*y"],
        "modules": {"A": {"generators": 1, "relations": []}},
        "command": {},
        "options": {"K": 4, "lag": 3},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("proreg-check", str(path))
    assert code == 0
    assert json.loads(out)["result"]["status"] == "weakly-proregular"


def _monomial_quotient_doc(tmp_path, a):
    """Q[x,y]/(x^a y) at (x): a sequence that is not regular."""
    doc = {"version": "1",
           "ring": {"base": "Q", "vars": ["x", "y"], "quotient": [f"x^{a}*y"]},
           "ideal": ["x"],
           "modules": {"A": {"generators": 1, "relations": []}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_lambda_and_localhom_answer_a_sequence_that_is_not_regular(tmp_path):
    # (x) is weakly proregular, as every finite sequence of a Noetherian
    # ring is, so Lambda answers and L_s carries no stamp
    path = _monomial_quotient_doc(tmp_path, 3)
    code, out, err = run_cli("lambda", path, "--target", "A")
    assert code == 0, err
    assert json.loads(out)["result"]["0"]["kind"] == "module"
    for s in ("0", "1"):
        code, out, err = run_cli("localhom", path, "--target", "A", "--s", s)
        assert code == 0, err
        assert "outside verified hypotheses" not in out


@pytest.mark.parametrize("K", [None, "8"])
def test_proreg_check_takes_the_K_setting(tmp_path, K):
    # (x) on Q[x,y]/(x^5 y) needs lag 5, which K = 5 stages cannot show;
    # proreg-check still takes --K, and no K changes its answer
    path = _monomial_quotient_doc(tmp_path, 5)
    reports = []
    for flags in (["--K", K] if K else [], ["--K", "5"]):
        code, out, err = run_cli("proreg-check", path, *flags)
        assert code == 0, err
        reports.append(json.loads(out)["result"])
    assert reports[0]["status"] == "weakly-proregular"
    assert reports[0]["regularity"]["regular"] is False
    assert reports[1] == reports[0]


def test_proreg_check_cites_the_theorem_on_every_ring(tmp_path):
    # every finite sequence of a Noetherian ring is weakly proregular, so
    # the answer needs no stage bound: (x) on Q[x,y]/(x^5 y) needs lag 5,
    # which K = 5 stages cannot show, and is not a regular sequence
    regular = {"regular": True, "final_quotient_nonzero": True}
    not_regular = {"regular": False, "stage": 1, "witness": ["-x^4*y"]}
    Qxy = {"base": "Q", "vars": ["x", "y"]}
    cases = [
        ({"base": "Z"}, ["5"], [], regular),
        ({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}},
         ["5"], [], regular),
        (Qxy, ["x + y", "x*y"], [], regular),
        ({**Qxy, "completion": {"ideal": ["x", "y"], "precision": 4}},
         ["x", "y"], [], regular),
        ({**Qxy, "quotient": ["x^5*y"]}, ["x"], ["--K", "5"], not_regular),
        ({**Qxy, "quotient": ["x^5*y"]}, ["x"], [], not_regular),
    ]
    path = tmp_path / "doc.json"
    for ring, ideal, flags, certificate in cases:
        path.write_text(json.dumps({"version": "1", "ring": ring,
                                    "ideal": ideal}))
        code, out, err = run_cli("proreg-check", str(path), *flags)
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["status"] == "weakly-proregular"
        assert "Schenzel" in result["theorem"]
        assert result["regularity"] == certificate, ring


def test_comodule_verbs_and_recheck(tmp_path):
    code, out, _ = run_cli("comodule-complete", fixture("c2-swap.json"),
                           "--comodule", "CA")
    assert code == 0
    report = json.loads(out)
    assert "method_agreement" in report
    # recheck a verify report without recomputation
    code, out, _ = run_cli("verify", fixture("c2-swap.json"),
                           "--which", "completion-formula")
    prior = tmp_path / "report.json"
    prior.write_text(out)
    code, out, _ = run_cli("verify", fixture("c2-swap.json"),
                           "--recheck", str(prior))
    assert code == 0
    assert json.loads(out)["recheck"]["names_resolve"] is True


def test_iota_verb():
    code, out, _ = run_cli("iota", fixture("c2-swap.json"), "--comodule", "CA")
    assert code == 0
    assert "certificate" in json.loads(out)


def test_golden_reports_are_stable():
    """Committed goldens pin the schema: byte-for-byte regression check."""
    for doc, verb, extra, golden in [
        ("zp.json", "lcomplete-check", [], "golden/zp.lcomplete-check.json"),
        ("z-mod-p-infty.json", "gm-check", ["--s", "1"],
         "golden/z-mod-p-infty.gm-check.json"),
    ]:
        code, out, _ = run_cli(verb, fixture(doc), *extra)
        assert code == 0
        with open(fixture(golden)) as fh:
            assert out == fh.read()


def test_tower_block_in_documents(tmp_path):
    doc = {
        "version": "1",
        "ring": {"base": "Z"},
        "ideal": ["5"],
        "modules": {"Z": {"generators": 1, "relations": []}},
        "towers": {"adicZ": {"kind": "adic", "module": "Z", "ideal": ["5"]},
                   "multZ": {"kind": "mult", "module": "Z", "x": "5"}},
        "command": {"verb": "resolve"},
    }
    path = tmp_path / "towers.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("resolve", str(path))
    assert code == 0
    towers = json.loads(out)["towers"]
    assert towers["adicZ"]["lim"]["kind"] == "module"
    assert towers["multZ"]["lim1"]["kind"] == "completion_cokernel"


def test_budget_env_var_exits_two(tmp_path):
    doc = {
        "version": "1",
        "ring": {"base": "Q", "vars": ["x", "y"]},
        "modules": {"M": {"generators": 1,
                          "relations": [["x^3 - 2*x*y"], ["x^2*y - 2*y^2 + x"]]},
                    "N": {"generators": 1, "relations": [["x"], ["y"]]}},
        "command": {},
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, LODUA_BUDGET="3")
    proc = subprocess.run([sys.executable, "-m", "lodua.cli", "tor", str(path),
                           "--M", "M", "--N", "N", "--s", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "inconclusive" in proc.stderr


def test_localized_completed_polynomial_ring_is_refused_on_reading(tmp_path):
    """No verb can compute in a completed polynomial ring with an element
    inverted, so even `resolve`, which asks nothing of the ring, refuses
    the document: exit 2 and one line on stderr."""
    doc = {
        "version": "1",
        "ring": {"base": "Q", "vars": ["x"], "invert": "x",
                 "completion": {"ideal": ["x"], "precision": 3}},
        "modules": {"M": {"generators": 1, "relations": []}},
    }
    path = tmp_path / "localized-completed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("resolve", str(path), "--module", "M")
    assert (code, out) == (2, "")
    assert err == ("inconclusive: localized completed polynomial rings "
                   "unsupported\n")


def test_an_action_that_moves_the_inverted_element_is_refused_on_reading(
        tmp_path):
    """The swap x <-> y does not extend to Q[x,y][1/x]: the group block is
    refused when the document is read, so `resolve` exits 3."""
    with open(fixture("c2-swap.json")) as fh:
        doc = json.load(fh)
    doc["ring"]["invert"] = "x"
    del doc["comodules"]
    path = tmp_path / "moves-the-inverted-element.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("resolve", str(path), "--module", "A")
    assert (code, out) == (3, "")
    assert err == "invalid input: s does not fix the inverted element x\n"


@pytest.mark.parametrize("ideal, precision", [
    ("x*y + x", 1), ("x*y + x", 3), ("x", 1)])
def test_a_completion_ideal_the_action_moves_is_refused_at_every_precision(
        ideal, precision, tmp_path, capsys):
    """The swap sends x*y + x to x*y + y, outside (x*y + x), and x to y,
    outside (x).  That is decided in Q[x,y] on the generators themselves:
    at precision 1 their classes are 0, and `iota` and `verify --which
    true-level` on the ideal, and `resolve` over the ring completed at it,
    are refused as at higher precisions."""
    import lodua.cli
    runs = []
    doc = _c2_doc()
    doc["ideal"], doc["options"]["precision"] = [ideal], precision
    runs += [(doc, ["iota", "--comodule", "CA"]),
             (doc, ["verify", "--which", "true-level"])]
    if ideal != "x":   # xy is 0 in Q[x,y] completed at (x) to precision 1
        doc = _c2_doc()
        del doc["comodules"]
        doc["ring"]["completion"] = {"ideal": [ideal], "precision": precision}
        runs.append((doc, ["resolve", "--module", "A"]))
    for doc, (verb, *flags) in runs:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert lodua.cli.main([verb, str(path), *flags]) == 3, verb
        assert capsys.readouterr() == (
            "", "invalid input: s does not preserve the completion ideal\n")


def _completed_doc(names, ideal, **blocks):
    """The free module F over Q[[names]] completed at the variables, to
    precision 3, with the document ideal ``ideal``."""
    return {"ring": {"base": "Q", "vars": list(names),
                     "completion": {"ideal": list(names), "precision": 3}},
            "ideal": list(ideal), "modules": {"F": {"generators": 1}},
            **blocks}


def test_central_question_is_posed_through_the_cli():
    """The regularity of the document ideal is certified in the ring the
    completion completes, so the grid runs over Q[[x,y]]."""
    import lodua.cli
    doc = _completed_doc("xy", "xy")
    code, report = lodua.cli.run(doc, "lcomplete-check", {"target": "F"})
    assert (code, report["result"]["verdict"]) == (0, "complete")
    # Lambda completes at (y, x), the same ideal in another order
    code, report = lodua.cli.run(doc, "lambda-local-check", {"target": "F"})
    assert (code, report["result"]["verdict"]) == (0, "local")


def test_top_local_cohomology_over_a_completion():
    import lodua.cli
    doc = _completed_doc("xy", "xy")
    basis = "top local cohomology of a regular sequence is nonzero"
    code, report = lodua.cli.run(doc, "localcoh", {"target": "F", "s": 2})
    assert (code, report["result"]["kind"]) == (0, "ind")
    assert report["result"]["basis"] == basis
    code, report = lodua.cli.run(doc, "gamma", {"target": "F"})
    assert code == 0
    assert report["result"]["homology"]["-2"]["basis"] == basis


def test_torsion_of_a_free_module_over_a_completion_is_zero(tmp_path):
    """H^0_I of the free Q[[x,y]]-module is zero: its torsion chain runs
    over Q[x,y], not in the model Q[x,y]/I^3, where I^3 kills everything."""
    import lodua.cli
    doc = _completed_doc("xy", "xy")
    code, report = lodua.cli.run(doc, "localcoh", {"target": "F", "s": 0})
    assert (code, report["result"]) == (
        0, {"kind": "zero", "basis": "torsion chain stabilized at 2"})
    code, report = lodua.cli.run(doc, "gamma", {"target": "F"})
    assert code == 0 and list(report["result"]["homology"]) == ["-2"]
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("torsion-check", str(path), "--target", "F")
    assert (code, json.loads(out)["result"]["verdict"]) == (1, False)


def test_torsion_module_over_a_polynomial_ring_is_its_own_torsion(tmp_path):
    """Q[x,y]/(x^2, y) is (x, y)-torsion: H^0 is the module as presented,
    so torsion-check's Gamma comparison holds."""
    doc = {"ring": {"base": "Q", "vars": ["x", "y"]}, "ideal": ["x", "y"],
           "modules": {"M": {"generators": 1, "relations": [["x^2"], ["y"]]}}}
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("torsion-check", str(path), "--target", "M")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["verdict"] is True and "gamma_failure" not in result
    assert result["per_degree"]["0"] == {"torsion": True, "killed_by_power": 2}
    code, out, _ = run_cli("localcoh", str(path), "--target", "M", "--s", "0")
    assert code == 0
    assert json.loads(out)["result"] == {
        "kind": "module", "basis": "torsion chain stabilized at 3",
        "module": {"generators": 1, "relations": [["x^2"], ["y"]]},
        "ring": "QQ[x,y]"}


def test_telescope_quotient_over_a_completion_is_certified_below_it():
    """x acts injectively on Q[x], so colim Q[[x]]/x^k is accepted; a
    multiplier that kills an element of the underlying module is not."""
    import lodua.cli
    tq = {"kind": "telescope_quotient", "module": "F", "mult": "x"}
    doc = _completed_doc("x", "x", descriptors={"T": tq})
    code, report = lodua.cli.run(doc, "resolve")
    assert (code, report["descriptors"]["T"]["mult"]) == (0, "x")
    doc["modules"]["F"]["relations"] = [["x"]]
    with pytest.raises(InvalidInput, match="needs an injective multiplier"):
        lodua.cli.run(doc, "resolve")


def test_unit_ideal_of_a_completion_is_still_refused(tmp_path):
    """x - 1 is regular in Q[x] but a unit in Q[[x]]: the grid refuses."""
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(_completed_doc("x", ["x - 1"])))
    code, out, err = run_cli("lcomplete-check", str(path), "--target", "F")
    assert (code, out) == (3, "")
    assert "'final_quotient_nonzero': False" in err


def test_golden_comodule_verify_report():
    """The comodule verbs on c2-swap, byte for byte."""
    for args, golden in [
        (["verify", "--which", "completion-formula"], "completion-formula"),
        (["comodule-complete", "--comodule", "CA"], "comodule-complete"),
        (["comodule-limit", "--comodule", "CA", "--method", "pullback"],
         "comodule-limit-pullback"),
        (["iota", "--comodule", "CA"], "iota"),
        (["verify", "--which", "comodule-gm"], "comodule-gm"),
        (["verify", "--which", "fg-vanishing"], "fg-vanishing"),
        (["verify", "--which", "injective-vanishing"], "injective-vanishing"),
        (["verify", "--which", "true-level"], "true-level"),
    ]:
        code, out, _ = run_cli(args[0], fixture("c2-swap.json"), *args[1:])
        assert code == 0, golden
        with open(fixture(f"golden/c2-swap.{golden}.json")) as fh:
            assert out == fh.read(), golden


@pytest.mark.parametrize("module, action, axiom", [
    ({"generators": 1, "relations": []}, {"e": [["2"]], "s": [["1"]]},
     "not counital"),
    ({"generators": 1, "relations": [["x"]]}, {"s": [["1"]]},
     "not semilinear"),
    ({"generators": 1, "relations": []}, {"s": [["2"]]},
     "not coassociative"),
    pytest.param({"generators": 1, "relations": []}, {"s": [["1"], ["0"]]},
                 "matrix must be a list of 1 lists of 1",
                 id="module3-action3-wrong shape"),
])
def test_invalid_comodule_action_exits_three(tmp_path, module, action, axiom):
    """phi_e = id, semilinearity and the group law, each broken in turn, and
    an action matrix of the wrong shape, refused on reading."""
    with open(fixture("c2-swap.json")) as fh:
        doc = json.load(fh)
    doc["modules"]["A"] = module
    doc["comodules"]["CA"]["action"] = action
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(path))
    assert code == 3 and out == ""
    assert axiom in err and "Traceback" not in err


def test_lambda_and_localcoh_on_descriptors(tmp_path):
    doc = {
        "version": "1",
        "ring": {"base": "Z"},
        "ideal": ["5"],
        "modules": {"Z": {"generators": 1, "relations": []}},
        "descriptors": {"prufer": {"kind": "telescope_quotient",
                                   "module": "Z", "mult": "5"}},
        "command": {},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("lambda", str(path), "--target", "prufer")
    assert code == 0
    assert json.loads(out)["result"]["1"]["kind"] == "module"
    code, out, _ = run_cli("localcoh", str(path), "--target", "prufer", "--s", "0")
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "telescope_quotient"


def test_duplicate_names_rejected(tmp_path):
    doc = {
        "version": "1",
        "ring": {"base": "Z"},
        "modules": {"M": {"generators": 1, "relations": []}},
        "descriptors": {"M": {"kind": "fp", "module": "M"}},
        "command": {"verb": "resolve"},
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli("resolve", str(path))
    assert code == 3 and "duplicate" in err


def test_recheck_validates_certificate_invariants(tmp_path):
    code, out, _ = run_cli("lcomplete-check", fixture("zp.json"))
    prior = tmp_path / "report.json"
    prior.write_text(out)
    code, out2, _ = run_cli("lcomplete-check", fixture("zp.json"),
                            "--recheck", str(prior))
    assert code == 0
    assert "completeness grid covers" in out2
    # a tampered report is rejected
    bad = json.loads(prior.read_text())
    bad["result"]["verdict"] = "not-complete"
    prior.write_text(json.dumps(bad))
    code, _, err = run_cli("lcomplete-check", fixture("zp.json"),
                           "--recheck", str(prior))
    assert code == 3 and "all-zero grid" in err


@pytest.mark.parametrize("flag, value", [("--precision", "0"), ("--K", "0"),
                                         ("--lag", "-1"), ("--s", "-1")])
def test_out_of_range_bounds_exit_three(flag, value):
    code, out, err = run_cli("gm-check", fixture("z-mod-p-infty.json"),
                             flag, value)
    assert code == 3 and out == ""
    assert "invalid input" in err and flag[2:] in err


def test_out_of_range_document_options_exit_three(tmp_path):
    with open(fixture("z-mod-p-infty.json")) as fh:
        doc = json.load(fh)
    for options in ({"precision": 0}, {"K": -2}, {"lag": "six"}):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, "options": options}))
        code, _, err = run_cli("gm-check", str(path))
        assert code == 3 and "invalid input" in err


def _seen_settings(seen, d, **extra):
    """Record the settings a verb runs under, the precision as used over
    the ring of ``d``."""
    from lodua.context import current, precision_for
    seen.update(K=current().K, lag=current().lag,
                precision=precision_for(d.ring), **extra)


def test_explicit_zero_is_not_replaced_by_a_default(monkeypatch):
    import lodua.cli
    with open(fixture("z-mod-p-infty.json")) as fh:
        doc = json.load(fh)
    seen = {}

    def fake(d, target, s):
        _seen_settings(seen, d, s=s)
        return {"status": "exact"}

    monkeypatch.setattr(lodua.cli, "gm_ses_check", fake)
    assert lodua.cli.run(doc, "gm-check", {"s": 0, "lag": 0})[0] == 0
    assert seen == {"s": 0, "K": 12, "lag": 0, "precision": 20}
    doc = {**doc, "options": {"precision": 1, "K": 1, "lag": 0}}
    lodua.cli.run(doc, "gm-check")
    assert seen == {"s": 1, "K": 1, "lag": 0, "precision": 1}


@pytest.mark.parametrize("verb, args, missing", [
    ("tor", ["--s", "1"], "--M"),
    ("tor", ["--s", "1", "--M", "Z"], "--N"),
    ("ext", ["--s", "0", "--N", "Z"], "--M"),
    ("localcoh", ["--s", "0"], "--target"),
    ("lambda", [], "--target"),
    ("complete", [], "--module"),
])
def test_missing_name_exits_three(verb, args, missing):
    code, out, err = run_cli(verb, fixture("z.json"), *args)
    assert code == 3 and out == ""
    assert f"missing {missing}" in err and "Traceback" not in err


def test_comodule_names_are_checked(tmp_path):
    with open(fixture("c2-swap.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**doc, "command": {}}))
    for args, message in (([], "missing --comodule"),
                          (["--comodule", "nope"], "unknown comodule 'nope'")):
        code, _, err = run_cli("iota", str(path), *args)
        assert code == 3 and message in err and "Traceback" not in err
    code, _, err = run_cli("verify", str(path))
    assert code == 3 and "missing --which" in err


def test_unexpected_exception_exits_two(monkeypatch, capsys):
    import lodua.cli

    def broken(*args, **kwargs):
        raise RuntimeError("multi\nline")

    monkeypatch.setattr(lodua.cli, "run", broken)
    assert lodua.cli.main(["resolve", fixture("z.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: multi line\n"


@pytest.mark.parametrize("error, message", [
    (InternalInconsistency("routes differ"),
     "internal inconsistency (hard error): routes differ"),
    (PrecisionMismatch("ring is not completed"),
     "error: ring is not completed"),
])
def test_engine_errors_exit_two(monkeypatch, capsys, error, message):
    import lodua.cli

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(lodua.cli, "run", failing)
    assert lodua.cli.main(["resolve", fixture("z.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_closed_stdout_exits_two_without_a_traceback():
    read, write = os.pipe()
    os.close(read)      # the reader is gone before the report is written
    proc = subprocess.Popen([sys.executable, "-m", "lodua.cli", "resolve",
                             fixture("z.json")], stdout=write,
                            stderr=subprocess.PIPE, text=True)
    os.close(write)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in err and err == ""


@pytest.mark.parametrize("value", ["abc", "0", "-4", "1.5"])
def test_bad_budget_variable_exits_three(value):
    env = dict(os.environ, LODUA_BUDGET=value)
    proc = subprocess.run([sys.executable, "-m", "lodua.cli", "resolve",
                           fixture("z.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "LODUA_BUDGET" in proc.stderr and "Traceback" not in proc.stderr


# localhom over Q[x,y] builds Groebner bases: one reduction step is too few
_BUDGET_DOC = {"version": "1", "ring": {"base": "Q", "vars": ["x", "y"]},
               "ideal": ["x", "y"],
               "modules": {"M": {"generators": 1, "relations": [["x^2 + y"]]}},
               "command": {"target": "M", "s": 0}}


def _cli(args, doc, tmp_path, variable=None):
    """Exit code and stderr of the CLI on doc, with LODUA_BUDGET set to
    variable (unset when None)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "LODUA_BUDGET"}
    if variable is not None:
        env["LODUA_BUDGET"] = variable
    proc = subprocess.run([sys.executable, "-m", "lodua.cli", *args,
                           str(path)], capture_output=True, text=True, env=env,
                          timeout=300)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("option, variable, code", [
    (None, None, 0), (None, "1", 2), (None, "lots", 3), (1, None, 3),
    ("lots", None, 3), (100000, "1", 3)])
def test_the_budget_is_the_variable_alone(tmp_path, option, variable, code):
    doc = dict(_BUDGET_DOC)
    if option is not None:
        doc["options"] = {"budget": option}
    got, err = _cli(["localhom"], doc, tmp_path, variable)
    assert got == code, err
    if option is not None:
        assert "unknown option 'budget'" in err


def test_recheck_runs_under_the_verbs_settings(tmp_path):
    doc = dict(_BUDGET_DOC, ring={"base": "Q", "vars": ["x", "y"],
                                  "quotient": ["x^3 - 2*x*y",
                                               "x^2*y - 2*y^2 + x"]})
    code, out, _ = run_cli("resolve", fixture("z.json"))
    prior = tmp_path / "report.json"
    prior.write_text(out)
    recheck = ["resolve", "--recheck", str(prior)]
    assert _cli(recheck, doc, tmp_path)[0] == 0
    assert _cli(recheck, doc, tmp_path, "1")[0] == 2
    assert _cli(recheck, doc, tmp_path, "lots")[0] == 3
    assert _cli(recheck, dict(doc, options={"budget": 1}), tmp_path)[0] == 3


def test_a_cached_basis_answers_as_a_new_one(monkeypatch):
    """A verb run again in one process, now under a budget of one step,
    fails as it does in a new process, whatever bases it left cached."""
    from lodua.cli import run
    from lodua.errors import BudgetExceeded
    monkeypatch.delenv("LODUA_BUDGET", raising=False)
    assert run(_BUDGET_DOC, "localhom")[0] == 0
    monkeypatch.setenv("LODUA_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        run(_BUDGET_DOC, "localhom")


def test_unset_precision_is_the_document_rings(tmp_path):
    """Over Z_5 at precision 3, lambda answers at 3 unless told otherwise."""
    doc = {"version": "1",
           "ring": {"base": "Z", "completion": {"ideal": ["5"],
                                                "precision": 3}},
           "ideal": ["5"],
           "modules": {"M": {"generators": 1, "relations": []},
                       "T": {"generators": 1, "relations": [["25"]]}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for target in ("M", "T"):
        code, out, err = run_cli("lambda", str(path), "--target", target)
        assert code == 0, err
        value = json.loads(out)["result"]["0"]
        assert value["precision"] == 3
        assert value["ring"] == "ZZ completed at (5) to precision 3"
    code, out, _ = run_cli("complete", str(path), "--module", "T",
                           "--precision", "2")
    report = json.loads(out)
    assert report["precision"] == report["natural_map"]["precision"] == 2


@pytest.mark.parametrize("key, flag, doc_value", [
    ("precision", 7, 3), ("K", 7, 1), ("lag", 7, 0)])
def test_explicit_flag_overrides_document_option(monkeypatch, key, flag,
                                                 doc_value):
    import lodua.cli
    with open(fixture("z-mod-p-infty.json")) as fh:
        doc = json.load(fh)
    doc = {**doc, "options": {key: doc_value}}
    seen = {}

    def fake(d, target, s):
        _seen_settings(seen, d)
        return {"status": "exact"}

    monkeypatch.setattr(lodua.cli, "gm_ses_check", fake)
    lodua.cli.run(doc, "gm-check")
    assert seen[key] == doc_value
    lodua.cli.run(doc, "gm-check", {key: flag})
    assert seen[key] == flag


def _c2_doc():
    with open(fixture("c2-swap.json")) as fh:
        return json.load(fh)


def test_comodule_verbs_on_a_completed_ring_take_the_precision():
    # the ring completed at the ideal to precision 3: the comodule verbs,
    # like lambda, complete it again at the precision asked for
    import lodua.cli
    doc = _c2_doc()
    doc["ring"] = {**doc["ring"], "completion": {
        "ideal": ["x + y", "x*y"], "precision": 3}}
    unset = {**doc, "options": {"K": 6, "lag": 3}}
    for d, flags, want in ((doc, {}, 5), (unset, {"precision": 5}, 5),
                           (unset, {}, 3)):
        _, report = lodua.cli.run(d, "comodule-complete",
                                  {"comodule": "CA", **flags})
        assert report["certificate"]["precision"] == want
        _, report = lodua.cli.run(d, "verify", {
            "which": "completion-formula", "comodule": "CA", **flags})
        assert report["result"]["precision"] == want
        _, report = lodua.cli.run(d, "lambda", {"target": "A", **flags})
        assert report["result"]["0"]["precision"] == want


@pytest.mark.parametrize("which, verifier", [
    ("comodule-gm", "comodule_gm_check"),
    ("fg-vanishing", "fg_vanishing_check")])
def test_verify_passes_K_and_lag(monkeypatch, which, verifier):
    import lodua.cli
    import lodua.hopf
    doc = {**_c2_doc(), "command": {"comodule": "CA"}}
    seen = {}

    def fake(h, d, M_comod):
        _seen_settings(seen, d)
        return {"verdict": "pass"}

    monkeypatch.setattr(lodua.hopf, verifier, fake)
    assert lodua.cli.run(doc, "verify", {"which": which})[0] == 0
    assert seen == {"K": 6, "lag": 3, "precision": 5}
    lodua.cli.run(doc, "verify", {"which": which, "K": 2, "lag": 0})
    assert seen == {"K": 2, "lag": 0, "precision": 5}


_Z_MODULES = {"Z": {"generators": 1, "relations": []}}
_C2_GROUP = _c2_doc()["group"]

# one malformed document per block: (blocks replacing the fixture's, the
# message naming the fault)
MALFORMED = {
    "modules": ({"modules": {"M": {"relations": []}}},
                "'M' needs 'generators'"),
    "modules-not-object": ({"modules": ["M"]}, "modules must be a JSON object"),
    "maps": ({"modules": _Z_MODULES,
              "maps": {"f": {"source": "Z", "target": "Z"}}},
             "'f' needs 'matrix'"),
    "descriptors": ({"modules": _Z_MODULES,
                     "descriptors": {"t": {"kind": "telescope", "module": "Z"}}},
                    "'t' needs 'mult'"),
    "complexes": ({"complexes": {"C": {"diffs": {}}}}, "'C' needs 'modules'"),
    "complexes-map": ({"modules": _Z_MODULES, "complexes": {
        "C": {"modules": {"0": "Z", "1": "Z"}, "diffs": {"1": "d"}}}},
        "unknown map 'd'"),
    "towers": ({"modules": _Z_MODULES, "towers": {"t": {"module": "Z"}}},
               "'t' needs 'kind'"),
    "towers-kind": ({"modules": _Z_MODULES,
                     "towers": {"t": {"kind": "adic", "module": "Z"}}},
                    "'t' needs 'ideal'"),
    "group": ({"group": {"elements": ["e", "s"]}}, "group needs 'table'"),
    "group-table": ({"group": {"elements": ["e", "s"],
                               "table": {"e": {"e": "e", "s": "s"}}}},
                    "the group table needs every product"),
    "comodules": ({"comodules": {"CA": {"action": {"s": [["1"]]}}}},
                  "'CA' needs 'module'"),
    "comodules-action": ({"comodules": {"CA": {"module": "A", "action": {}}}},
                         "the comodule action misses 's'"),
    "options-unknown": ({"options": {"K": 2, "budget": 1, "Lag": 2}},
                        "unknown option 'Lag': options hold precision, K "
                        "and lag (the budget is LODUA_BUDGET)"),
    "version": ({"version": "2"}, "unsupported schema version 2"),
    "towers-unknown-kind": ({"towers": {"t": {"kind": "sum"}}},
                            "unknown tower kind 'sum'"),
    "descriptors-unknown-kind": ({"descriptors": {"d": {"kind": "sum"}}},
                                 "unknown descriptor kind 'sum'"),
    "maps-module": ({"maps": {"f": {"source": "W", "target": "A",
                                    "matrix": [["1"]]}}},
                    "unknown module 'W'"),
    "comodules-group": ({"group": {}}, "comodules need a group block"),
    "group-elements-string": ({"group": {**_C2_GROUP, "elements": "es"}},
                              "group elements must be a list of strings, "
                              "not 'es'"),
    "group-action-list": (
        {"group": {**_C2_GROUP, "action": {"s": ["y", "x"]}}},
        "group action of 's' must be a JSON object"),
    "comodules-action-string": (
        {"comodules": {"CA": {"module": "A", "action": {"s": "1"}}}},
        "'CA action of s' matrix must be a list of 1 lists of 1 strings or "
        "integers, not '1'"),
    "comodules-action-row-string": (
        {"comodules": {"CA": {"module": "A", "action": {"s": ["1"]}}}},
        "'CA action of s' matrix must be a list of 1 lists of 1 strings or "
        "integers, not ['1']"),
    "group-action-identity": (
        {"group": {**_C2_GROUP, "action": {**_C2_GROUP["action"],
                                           "e": {"x": "y", "y": "x"}}}},
        "action is not a homomorphism: (e.e) disagrees with e on x"),
    # sending every variable to 0 under e and s passes the homomorphism check
    "group-action-identity-zero": (
        {"group": {**_C2_GROUP, "action": {
            g: {"x": "0", "y": "0"} for g in ("e", "s")}}},
        "the identity e does not fix x"),
    "group-action-unknown-element": (
        {"group": {**_C2_GROUP, "action": {**_C2_GROUP["action"],
                                           "t": {"x": "y", "y": "x"}}}},
        "unknown group element 't'"),
    "group-action-unknown-variable": (
        {"group": {**_C2_GROUP, "action": {"s": {"x": "y", "y": "x",
                                                 "z": "x"}}}},
        "unknown ring variable 'z'"),
    "comodules-action-unknown-element": (
        {"comodules": {"CA": {"module": "A",
                              "action": {"s": [["1"]], "t": [["1"]]}}}},
        "unknown group element 't'"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_block_exits_three(case, tmp_path, capsys):
    import lodua.cli
    blocks, message = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_c2_doc(), **blocks, "command": {}}))
    assert lodua.cli.main(["resolve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


# one wrong-typed module field per case: (the module entry, the message)
WRONG_TYPED = {
    "generators-string": ({"generators": "2"},
                          "'M' generators must be a non-negative integer, "
                          "not '2'"),
    "generators-negative": ({"generators": -1},
                            "'M' generators must be a non-negative integer, "
                            "not -1"),
    "generators-bool": ({"generators": True},
                        "'M' generators must be a non-negative integer, "
                        "not True"),
    "generators-float": ({"generators": 2.0},
                         "'M' generators must be a non-negative integer, "
                         "not 2.0"),
    "relations-string": ({"generators": 1, "relations": "x"},
                         "'M' relations must be a list of lists of strings "
                         "or integers, not 'x'"),
    "relations-flat": ({"generators": 1, "relations": ["xy"]},
                       "'M' relations must be a list of lists of strings "
                       "or integers, not ['xy']"),
}


@pytest.mark.parametrize("case", list(WRONG_TYPED))
def test_wrong_typed_module_field_exits_three(case, tmp_path, capsys):
    import lodua.cli
    from lodua.errors import InternalInconsistency, InvalidInput, PrecisionMismatch
    spec, message = WRONG_TYPED[case]
    doc = {"ring": {"base": "Q", "vars": ["x", "y"]}, "modules": {"M": spec}}
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        lodua.cli.run(doc, "resolve", {"M": "M"})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert lodua.cli.main(["resolve", str(path), "--M", "M"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


def test_well_typed_module_fields_are_accepted():
    import lodua.cli
    doc = {"ring": {"base": "Q", "vars": ["x", "y"]},
           "modules": {"M": {"generators": 2,
                             "relations": [["x", 0], [1, "y"]]},
                       "Z": {"generators": 0}}}
    assert lodua.cli.run(doc, "resolve", {"M": "M"})[0] == 0
    assert lodua.cli.run(doc, "resolve", {"M": "Z"})[0] == 0


# one wrong-typed ideal or matrix per case: (the document's blocks, the
# message); each was read character by character before
WRONG_TYPED_BLOCKS = {
    "ideal-string": ({"ideal": "xy"},
                     "ideal must be a list of strings or integers, not 'xy'"),
    "tower-ideal-string": (
        {"towers": {"t": {"kind": "tor", "module": "M", "ideal": "xy",
                          "s": 1}}},
        "'t' ideal must be a list of strings or integers, not 'xy'"),
    "matrix-strings": (
        {"maps": {"f": {"source": "M", "target": "M",
                        "matrix": ["xy", "01"]}}},
        "'f' matrix must be a list of 2 lists of 2 strings or integers, "
        "not ['xy', '01']"),
}


@pytest.mark.parametrize("case", list(WRONG_TYPED_BLOCKS))
def test_wrong_typed_ideal_or_matrix_exits_three(case, tmp_path, capsys):
    import lodua.cli
    from lodua.errors import InternalInconsistency, InvalidInput, PrecisionMismatch
    blocks, message = WRONG_TYPED_BLOCKS[case]
    doc = {"ring": {"base": "Q", "vars": ["x", "y"]}, "ideal": ["x", "y"],
           "modules": {"M": {"generators": 2}}, **blocks}
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        lodua.cli.run(doc, "localcoh", {"target": "M", "s": 1})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert lodua.cli.main(["localcoh", str(path), "--target", "M",
                           "--s", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


BAD_RATIONAL_DIMS = {"negative": -2, "string": "x", "float": 1.5,
                     "boolean": True}


@pytest.mark.parametrize("case", list(BAD_RATIONAL_DIMS))
def test_bad_rational_dim_exits_three(case, tmp_path, capsys):
    import lodua.cli
    from lodua import Rational, make_ring
    from lodua.errors import InternalInconsistency, InvalidInput, PrecisionMismatch
    dim = BAD_RATIONAL_DIMS[case]
    message = f"'Q' dim must be a non-negative integer, not {dim!r}"
    doc = {"ring": {"base": "Z"}, "ideal": ["5"],
           "descriptors": {"Q": {"kind": "rational", "dim": dim}}}
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        lodua.cli.Problem(doc)
    # the library constructor refuses the same values; the CLI only adds
    # the descriptor's name
    with pytest.raises(InvalidInput, match=f"^{re.escape(message[4:])}$"):
        Rational(make_ring({"base": "Z"}), dim)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert lodua.cli.main(["localcoh", str(path), "--target", "Q",
                           "--s", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


def test_rational_dim_zero_and_default_are_accepted():
    import lodua.cli
    doc = {"ring": {"base": "Z"},
           "descriptors": {"Q0": {"kind": "rational", "dim": 0},
                           "Q1": {"kind": "rational"}}}
    problem = lodua.cli.Problem(doc)
    assert [problem.descriptors[n].dim for n in ("Q0", "Q1")] == [0, 1]


def test_rational_off_z_names_the_descriptor():
    import lodua.cli
    from lodua.errors import InternalInconsistency, InvalidInput, PrecisionMismatch
    doc = {"ring": {"base": "Q", "vars": ["x"]},
           "descriptors": {"R": {"kind": "rational"}}}
    with pytest.raises(InvalidInput,
                       match="^'R' rational descriptors live over Z$"):
        lodua.cli.Problem(doc)


# one malformed element per case: (the document's blocks, the message);
# the parse error keeps its position and is invalid input
MALFORMED_ELEMENTS = {
    "relation-unknown-variable": (
        {"modules": {"M": {"generators": 1, "relations": [["y"]]}}},
        "unknown variable 'y' at position 0: 'y'"),
    "ideal-unfinished": ({"ideal": ["5+"]},
                         "unexpected token 'end' at position 2: '5+'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ELEMENTS))
def test_parse_errors_exit_three(case, tmp_path, capsys):
    import lodua.cli
    blocks, message = MALFORMED_ELEMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"ring": {"base": "Z"}, **blocks}))
    assert lodua.cli.main(["resolve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


def _completion(precision, ideal=("5",)):
    return {"base": "Z", "completion": {"ideal": list(ideal),
                                        "precision": precision}}


# one malformed ring block per case: (the ring, the message)
MALFORMED_RINGS = {
    "precision-float": (_completion(2.5), "completion precision must be an "
                        "integer, not 2.5"),
    "precision-boolean": (_completion(True), "completion precision must be "
                          "an integer, not True"),
    "precision-zero": (_completion(0), "completion precision must be at "
                       "least 1, not 0"),
    "precision-float-over-a-polynomial-ring": (
        {"base": "Q", "vars": ["x"],
         "completion": {"ideal": ["x"], "precision": 2.5}},
        "completion precision must be an integer, not 2.5"),
    "ring-string": ("Z", "ring must be a JSON object, not 'Z'"),
    "vars-integer": ({"base": "Q", "vars": [1]},
                     "ring vars must be a list of names, not [1]"),
    "vars-string": ({"base": "Q", "vars": "xy"},
                    "ring vars must be a list of names, not 'xy'"),
    "quotient-string": ({"base": "Q", "vars": ["x"], "quotient": "x"},
                        "ring quotient must be a list of element "
                        "expressions, not 'x'"),
    "completion-list": ({"base": "Q", "vars": ["x"], "completion": ["x"]},
                        "ring completion must be a JSON object with an "
                        "'ideal', not ['x']"),
    "completion-ideal-string": (
        {"base": "Z", "completion": {"ideal": "5", "precision": 3}},
        "completion ideal must be a list of element expressions, not '5'"),
    "completion-ideal-empty": (_completion(3, ()),
                               "completion ideal must be nonempty"),
    "p-over-z": ({"base": "Z", "p": 5},
                 "p is the characteristic of base Fp, not of Z"),
    "invert-boolean": ({"base": "Q", "vars": ["x"], "invert": True},
                       "ring invert must be an element expression, not True"),
}

# entries that name or multiply by something of the wrong type, each found
# by tests/test_fuzz.py: (the document's blocks over Z, the message)
MALFORMED_ENTRIES = {
    "kind-list": ({"descriptors": {"d": {"kind": [], "module": "Z"}}},
                  "unknown descriptor kind []"),
    "module-name-list": (
        {"descriptors": {"d": {"kind": "fp", "module": ["Z"]}}},
        "unknown module ['Z']"),
    "mult-boolean": (
        {"descriptors": {"d": {"kind": "telescope", "module": "Z",
                               "mult": True}}},
        "'d' mult must be a string or an integer, not True"),
    "source-object": (
        {"maps": {"f": {"source": {}, "target": "Z", "matrix": [["1"]]}}},
        "unknown module {}"),
    "tower-x-missing-value": (
        {"towers": {"t": {"kind": "mult", "module": "Z", "x": None}}},
        "'t' x must be a string or an integer, not None"),
    "complex-degree": ({"complexes": {"C": {"modules": {"a": "Z"}}}},
                       "'C' degree must be an integer, not 'a'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ENTRIES))
def test_wrong_typed_names_and_elements_exit_three(case, tmp_path, capsys):
    import lodua.cli
    blocks, message = MALFORMED_ENTRIES[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"ring": {"base": "Z"},
                                "modules": {"Z": {"generators": 1}},
                                **blocks}))
    assert lodua.cli.main(["resolve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


def test_quotient_of_a_ring_without_variables_is_refused(tmp_path):
    """Z/4 as a ring would keep its elements unreduced; it is refused when
    the document is read (a cyclic module presents it)."""
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"ring": {"base": "Z", "quotient": [4]}}))
    code, out, err = run_cli("resolve", str(path))
    assert (code, out) == (2, "")
    assert err == ("inconclusive: quotients of a ring without variables are "
                   "not supported; present the quotient as a cyclic module\n")


@pytest.mark.parametrize("case", list(MALFORMED_RINGS))
def test_malformed_ring_block_exits_three(case, tmp_path, capsys):
    import lodua.cli
    ring, message = MALFORMED_RINGS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"ring": ring}))
    assert lodua.cli.main(["resolve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


def test_ring_precision_is_read_as_the_other_bounds():
    """A string of digits is an integer, as in `options`."""
    import lodua.cli
    code, report = lodua.cli.run({"ring": _completion("3")}, "resolve")
    assert (code, report["ring"]) == (0, "ZZ completed at (5) to precision 3")


def test_well_typed_ideal_and_matrix_are_accepted():
    import lodua.cli
    doc = {"ring": {"base": "Q", "vars": ["x", "y"]}, "ideal": ["x", 1],
           "modules": {"M": {"generators": 2}},
           "maps": {"f": {"source": "M", "target": "M",
                          "matrix": [["x", 0], [1, "y"]]}},
           "towers": {"t": {"kind": "adic", "module": "M", "ideal": ["y", 0]}}}
    problem = lodua.cli.Problem(doc)
    assert [g.render() for g in problem.ideal.gens] == ["x", "1"]
    assert [[e.render() for e in row] for row in problem.map("f").matrix] \
        == [["x", "0"], ["1", "y"]]


# Z_5 modules the Koszul-stage route refuses: "chain map does not preserve
# cycles" (exit 3), where Z answers the same presentation
_Z5_DEFECT = ("valid Z_5 modules are refused in the Koszul-stage "
              "transitions; see ROADMAP item 1")


def _z5_doc(ngens, relations):
    with open(fixture("zp.json")) as fh:
        doc = json.load(fh)
    doc.pop("descriptors")
    return {**doc, "command": {},
            "modules": {"M": {"generators": ngens, "relations": relations}}}


@pytest.mark.xfail(strict=True, reason=_Z5_DEFECT, raises=InvalidInput)
@pytest.mark.parametrize("ngens, relations", [
    (2, [["5", "50"]]),
    (3, [["5", "0", "0"], ["0", "25", "5"]]),
], ids=["rank2", "rank3"])
def test_lambda_answers_z5_modules(ngens, relations):
    import lodua.cli
    code, _ = lodua.cli.run(_z5_doc(ngens, relations), "lambda",
                            {"target": "M"})
    assert code == 0


def test_localhom_on_z5_does_not_depend_on_history(tmp_path):
    doc, twin = tmp_path / "doc.json", tmp_path / "twin.json"
    doc.write_text(json.dumps(_z5_doc(2, [["5", "50"]])))
    twin.write_text(json.dumps(_z5_doc(2, [["5", "0"]])))
    argv = ["localhom", "--target", "M", "--s", "1"]
    fresh = run_cli(argv[0], str(doc), *argv[1:])
    # the diagonal twin first, in the same process
    script = ("import sys, lodua.cli\n"
              f"lodua.cli.main([{argv[0]!r}, {str(twin)!r}, *{argv[1:]!r}])\n"
              "print('---')\n"
              f"sys.exit(lodua.cli.main([{argv[0]!r}, {str(doc)!r}, "
              f"*{argv[1:]!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert fresh[0] == 0 and proc.returncode == 0
    assert proc.stdout.split("---\n", 1)[1] == fresh[1]


def _localhom(tmp_path, doc, target, s):
    import lodua.cli
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return lodua.cli.main(["localhom", str(path), "--target", target,
                           "--s", str(s)])


def _z_doc(descriptors=None):
    return {"version": "1", "ring": {"base": "Z"}, "ideal": ["5"],
            "modules": {"Z": {"generators": 1, "relations": []},
                        "M": {"generators": 2, "relations": [["25", "0"]]}},
            "descriptors": descriptors or {}}


def test_localhom_checks_the_multiplier_of_the_next_tower(tmp_path,
                                                         monkeypatch, capsys):
    # at s = 0 only the Tor_1 tower of a telescope quotient checks that its
    # multiplier lies in the radical of the ideal; Lambda, which checks it
    # too, must not be reached
    import lodua.local

    def unreached(*args):
        raise AssertionError("Lambda reached")

    monkeypatch.setattr(lodua.local, "derived_completion", unreached)
    doc = _z_doc({"q": {"kind": "telescope_quotient", "module": "Z",
                        "mult": "3"}})
    assert _localhom(tmp_path, doc, "q", 0) == 2
    assert "multiplier 3 is not visibly in the radical" in \
        capsys.readouterr().err


def test_localhom_keeps_the_adic_stage_crosscheck(tmp_path, monkeypatch,
                                                  capsys):
    # at s = 0 the Tor_1 tower of a telescope quotient is the adic tower of
    # its module; count the cross-checks outside Lambda's route B
    import lodua.local
    import lodua.towers
    calls, in_route_B = [], []
    route_B = lodua.local._lambda_route_B
    crosscheck = lodua.towers._adic_stage_crosscheck

    def traced_route_B(*args):
        in_route_B.append(True)
        try:
            return route_B(*args)
        finally:
            in_route_B.pop()

    def counted(tower, Mhat, upto):
        if not in_route_B:
            calls.append(upto)
        return crosscheck(tower, Mhat, upto)

    monkeypatch.setattr(lodua.local, "_lambda_route_B", traced_route_B)
    monkeypatch.setattr(lodua.towers, "_adic_stage_crosscheck", counted)
    # a cold computation: an earlier test may have left this adic tower's
    # limits in the table, and a hit runs no cross-check
    lodua.towers._presented_limits.cache_clear()
    doc = _z_doc({"q": {"kind": "telescope_quotient", "module": "Z",
                        "mult": "5"}})
    assert _localhom(tmp_path, doc, "q", 0) == 0
    assert calls == [3]
    assert json.loads(capsys.readouterr().out)["result"]["kind"] == "zero"


def _tor_stage_degrees(monkeypatch):
    """The degrees of the Tor towers whose stages get built from now on, in
    a cold run: an earlier test may have left a tower's limits in the table,
    and a hit builds no stage."""
    import lodua.towers
    degrees = set()
    stage = lodua.towers.Tower.stage

    def recorded(self, k):
        if self.kind == "tor":
            degrees.add(self.params["s"])
        return stage(self, k)

    monkeypatch.setattr(lodua.towers.Tower, "stage", recorded)
    lodua.towers._presented_limits.cache_clear()
    return degrees


def _cold():
    """Empty the document, span and tower-limit tables, as in a fresh
    process."""
    import lodua.cli
    import lodua.linalg
    import lodua.towers
    lodua.cli._parsed.cache_clear()
    lodua.linalg._span.cache_clear()
    lodua.towers._presented_limits.cache_clear()


def _qxy_doc(*relations):
    return {"version": "1", "ring": {"base": "Q", "vars": ["x", "y"]},
            "ideal": ["x", "y"],
            "modules": {"M": {"generators": 1,
                              "relations": [[r] for r in relations]}}}


@pytest.mark.parametrize("s", [0, 1, 2])
def test_localhom_builds_no_stage_of_the_next_tor_tower(tmp_path, monkeypatch,
                                                        s):
    # over Q[x,y] the lag probe materializes the stages of the Tor_s tower,
    # and the Tor_(s+1) tower must stay unbuilt; M = A/(x^2, xy) has F_2 = A,
    # so its Tor_2 stages are built too
    degrees = _tor_stage_degrees(monkeypatch)
    assert _localhom(tmp_path, _qxy_doc("x^2", "x*y"), "M", s) == 0
    assert degrees == ({s} if s else set())


def test_a_tor_tower_without_f_s_builds_no_stage(tmp_path, monkeypatch,
                                                 capsys):
    # A/(x^2) has F_2 = 0: every Tor_2 stage is H_2 of a complex with C_2 = 0
    degrees = _tor_stage_degrees(monkeypatch)
    _cold()
    assert _localhom(tmp_path, _qxy_doc("x^2"), "M", 2) == 0
    assert json.loads(capsys.readouterr().out)["result"]["basis"] == \
        "Artin-Rees pro-trivial Tor tower (lag 0)"
    assert degrees == set()


def test_a_polynomial_tor_lag_induces_no_map_on_homology(tmp_path,
                                                         monkeypatch, capsys):
    # the lag is decided by membership of representative cycles in the
    # stage complexes' boundaries
    import lodua.complexes
    import lodua.towers
    induced = []

    def counted(f, n):
        induced.append(n)
        return lodua.complexes.induced_on_homology(f, n)

    monkeypatch.setattr(lodua.towers, "induced_on_homology", counted)
    _cold()
    assert _localhom(tmp_path, _qxy_doc("x + 2*y"), "M", 1) == 0
    assert json.loads(capsys.readouterr().out)["result"]["basis"] == \
        "Artin-Rees pro-trivial Tor tower (lag 1)"
    assert induced == []


@pytest.mark.parametrize("s", [0, 1, 2])
def test_localhom_over_z_builds_no_tor_stage(tmp_path, monkeypatch, s):
    # over Z the lag is read off the invariant factors
    degrees = _tor_stage_degrees(monkeypatch)
    assert _localhom(tmp_path, _z_doc(), "M", s) == 0
    assert degrees == set()


def test_a_cold_zp_localhom_computes_no_homology(tmp_path, monkeypatch,
                                                 capsys):
    import lodua.cli
    import lodua.complexes
    import lodua.linalg
    import lodua.towers
    computed = []
    homology = lodua.complexes.ChainComplex.homology

    def counted(self, n):
        computed.append(n)
        return homology(self, n)

    monkeypatch.setattr(lodua.complexes.ChainComplex, "homology", counted)
    lodua.cli._parsed.cache_clear()
    lodua.linalg._span.cache_clear()
    lodua.towers._presented_limits.cache_clear()
    doc = {"version": "1", "ring": {"base": "Z", "completion": {
        "ideal": ["5"], "precision": 20}}, "ideal": ["5"],
        "modules": {"M": {"generators": 2, "relations": [["5", "50"]]}}}
    assert _localhom(tmp_path, doc, "M", 1) == 0
    assert json.loads(capsys.readouterr().out)["result"]["basis"] == \
        "Artin-Rees pro-trivial Tor tower (lag 1)"
    assert computed == []


_RADICAL_BODIES = {
    "localcoh": {"basis": "top local cohomology at one generator",
                 "kind": "telescope_quotient",
                 "value": {"kind": "telescope_quotient",
                           "module": {"free_rank": 1, "torsion": []},
                           "mult": "5"}},
    "gm-check": {
        "L_s": {"basis": "Artin-Rees: adic tower of an f.p. module",
                "kind": "module", "module": {"free_rank": 1, "torsion": []},
                "precision": 20,
                "ring": "ZZ completed at (5) to precision 20"},
        "exactness": "left term vanishes; the epimorphism L_s -> lim Tor_s "
                     "is the certified isomorphism (invariant factors)",
        "lim1_tor_next": {"basis": "Artin-Rees pro-trivial Tor tower (lag 0)",
                          "kind": "zero"},
        "lim_tor": {"basis": "Artin-Rees: adic tower of an f.p. module",
                    "kind": "module",
                    "module": {"free_rank": 1, "torsion": []},
                    "precision": 20,
                    "ring": "ZZ completed at (5) to precision 20"},
        "status": "exact", "witness": "invariant factors compared"},
}


@pytest.mark.parametrize("verb, s", [("localcoh", 0), ("gm-check", 1)])
@pytest.mark.parametrize("ring", [
    {"base": "Z"},
    {"base": "Z", "completion": {"ideal": ["5"], "precision": 20}}],
    ids=["Z", "Z_5"])
def test_a_telescope_quotient_multiplier_is_checked_on_the_integers(
        monkeypatch, ring, verb, s):
    # 5 lies in the radical of (5): read by divisibility, with no
    # membership query on A/I
    import sys
    import lodua.cli
    asked = []
    contains = lodua.FPModule.contains_in_relations

    def counted(self, vec):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name == "_require_radical_membership":
                asked.append(vec)
            frame = frame.f_back
        return contains(self, vec)

    monkeypatch.setattr(lodua.FPModule, "contains_in_relations", counted)
    _cold()
    doc = {"version": "1", "ring": ring, "ideal": ["5"],
           "modules": {"A": {"generators": 1, "relations": []}},
           "descriptors": {"pru": {"kind": "telescope_quotient",
                                   "module": "A", "mult": "5"}}}
    code, report = lodua.cli.run(doc, verb, {"target": "pru", "s": s})
    assert code == 0
    body = dict(_RADICAL_BODIES[verb])
    if verb == "localcoh" and "completion" in ring:
        body["precision"] = 20
    assert report == {"result": body, "verb": verb, "version": "1"}
    assert asked == []


def test_a_tor_tower_past_the_count_is_gated_then_read_off_invariant_factors(
        monkeypatch):
    # nine generators, one of them 5-torsion: the counted bound on the
    # stages exceeds the probe gate, so the gate builds them; they pass it,
    # and the lag is read off the invariant factors, not materialized
    import lodua.cli
    import lodua.towers
    monkeypatch.setattr(lodua.towers, "is_pro_trivial", None)
    degrees = _tor_stage_degrees(monkeypatch)
    doc = {"version": "1", "ring": {"base": "Z"}, "ideal": ["5"],
           "modules": {"Big": {"generators": 9,
                               "relations": [["5"] + ["0"] * 8]}},
           "towers": {"t": {"kind": "tor", "module": "Big", "ideal": ["5"],
                            "s": 1}}}
    code, report = lodua.cli.run(doc, "resolve")
    assert code == 0
    assert report["towers"]["t"]["lim"]["basis"] == \
        "Artin-Rees pro-trivial Tor tower (lag 1)"
    assert degrees == {1}


def test_lambda_on_a_completed_polynomial_ring_finishes(tmp_path):
    # route B once built the Koszul-stage towers' H_1 here to probe their
    # lag, and ran for minutes; Lambda is the completed presentation
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "version": "1",
        "ring": {"base": "Q", "vars": ["x", "y"], "completion": {
            "ideal": ["x + y", "x*y"], "precision": 6}},
        "ideal": ["x + y", "x*y"],
        "modules": {"M": {"generators": 2, "relations": [
            ["x", "y^2 - x"], ["y^2 - x", "y"]]}}}))
    proc = subprocess.run(
        [sys.executable, "-m", "lodua.cli", "lambda", str(path),
         "--target", "M"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["0"]["basis"] == \
        "iterated completion of an f.p. module (Artin-Rees)"


def _z_fixture(**blocks):
    with open(fixture("z.json")) as fh:
        return {**json.load(fh), **blocks}


def test_tor_towers_and_towers_of_descriptors_resolve():
    import lodua.cli
    doc = _z_fixture(towers={
        "t": {"kind": "tor", "module": "Zmod125", "ideal": ["5"], "s": 1},
        "m": {"kind": "mult", "descriptor": "zinv", "x": "5"}})
    code, report = lodua.cli.run(doc, "resolve")
    assert code == 0
    t, m = report["towers"]["t"], report["towers"]["m"]
    assert t["basis"] == "artin-rees pro-trivial"
    assert t["lim"]["kind"] == t["lim1"]["kind"] == "zero"
    assert m["basis"] == "invertible multiplier"
    assert m["lim"]["value"] == {"kind": "telescope", "mult": "5",
                                 "module": {"free_rank": 1, "torsion": []}}


def _z_with_a_complex():
    """z.json with C = (Z -5-> Z), whose only homology is Z/5 in degree 0."""
    return _z_fixture(
        maps={"f": {"source": "Z", "target": "Z", "matrix": [["5"]]}},
        complexes={"C": {"modules": {"0": "Z", "1": "Z"}, "diffs": {"1": "f"}}})


@pytest.mark.parametrize("target, torsion, local", [
    ("z", 1, 1), ("Zmod125", 0, 0), ("rat", 1, 1), ("C", 0, 0)])
def test_torsion_and_lambda_local_verbs(target, torsion, local):
    import lodua.cli
    doc = _z_with_a_complex()
    code, report = lodua.cli.run(doc, "torsion-check", {"target": target})
    assert code == torsion
    assert report["result"]["verdict"] is (torsion == 0)
    code, report = lodua.cli.run(doc, "lambda-local-check", {"target": target})
    assert code == local
    assert report["result"]["verdict"] == ("local" if local == 0
                                           else "not-local")


@pytest.mark.parametrize("ring", [
    {"base": "Z", "invert": "5"}, {"base": "Z", "invert": "10"},
    {"base": "Q"},
    {"base": "Z", "completion": {"ideal": ["5"], "precision": 6},
     "invert": "5"}], ids=["Z[1/5]", "Z[1/10]", "Q", "Q_5"])
def test_an_ideal_with_a_unit_is_refused(ring, tmp_path, capsys):
    # 5 is a unit of each ring, so the completion at (5) is the zero ring
    import lodua.cli
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "ring": ring, "ideal": ["5"],
        "modules": {"F": {"generators": 1, "relations": []}}}))
    for verb in (["complete", "--module", "F"], ["lambda", "--target", "F"],
                 ["localhom", "--target", "F", "--s", "0"]):
        assert lodua.cli.main([*verb, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inconclusive: the ideal contains "
                                       "the unit 5 of ")


@pytest.mark.parametrize("invert, source", [("5", ["48"]), ("4", ["3"])])
def test_a_localized_integer_document_completes_at_another_prime(
        tmp_path, invert, source):
    # Z[1/u] completed at 3, with 3 not dividing u, is Z_3, not a field:
    # the relations' determinant -48 = -16 * 3 leaves the factor 3
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "ring": {"base": "Z", "invert": invert}, "ideal": ["3"],
        "modules": {"M": {"generators": 2,
                          "relations": [["4", "6"], ["10", "3"]]}}}))
    z3 = {"free_rank": 0, "torsion": ["3"]}
    ring = f"ZZ[({invert})^-1] completed at (3) to precision 20"
    code, out, _ = run_cli("complete", "--module", "M", str(path))
    report = json.loads(out)
    assert code == 0 and report["result"] == z3
    assert report["natural_map"]["source"]["torsion"] == source
    code, out, _ = run_cli("lambda", "--target", "M", str(path))
    lam = json.loads(out)["result"]["0"]
    assert code == 0 and lam["module"] == z3 and lam["ring"] == ring
    code, out, _ = run_cli("localhom", "--target", "M", "--s", "0", str(path))
    report = json.loads(out)["result"]
    assert code == 0 and report["module"] == z3 and report["ring"] == ring


def test_verbs_refuse_what_the_document_cannot_answer():
    import lodua.cli
    with pytest.raises(InvalidInput, match="unknown verb 'sum'"):
        lodua.cli.run(_z_fixture(), "sum")
    with pytest.raises(InvalidInput, match="localhom takes a module or "
                                           "descriptor"):
        lodua.cli.run(_z_with_a_complex(), "localhom", {"target": "C", "s": 0})
    doc = _z_fixture()
    del doc["ideal"]
    with pytest.raises(InvalidInput, match="this verb needs an `ideal` block"):
        lodua.cli.run(doc, "lambda", {"target": "z"})


def test_verify_takes_the_first_comodule_when_none_is_named():
    import lodua.cli
    doc = {**_c2_doc(), "command": {}}
    args = {"which": "completion-formula"}
    assert lodua.cli.run(doc, "verify", args) == lodua.cli.run(
        doc, "verify", {**args, "comodule": "CA"})


_VERIFY_TAGS = ("true-level", "completion-formula", "comodule-gm",
                "fg-vanishing", "injective-vanishing")


@pytest.mark.parametrize("which", _VERIFY_TAGS)
def test_verify_without_a_group_is_refused(which):
    import lodua.cli
    with pytest.raises(InvalidInput, match="verify needs a `group` block"):
        lodua.cli.run(_z_fixture(), "verify", {"which": which})


@pytest.mark.parametrize("which", ["completion-formula", "comodule-gm",
                                   "fg-vanishing"])
def test_verify_of_a_comodule_tag_without_a_comodule_is_refused(tmp_path,
                                                                which):
    doc = _c2_doc()
    del doc["comodules"], doc["command"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(path), "--which", which)
    assert code == 3 and out == ""
    assert f"verify --which {which} needs a comodule" in err
    assert "Traceback" not in err


def test_recheck_refuses_tampered_grids_and_sequences():
    import lodua.cli
    with open(fixture("zp.json")) as fh:
        zp = json.load(fh)
    _, report = lodua.cli.run(zp, "lcomplete-check")
    with pytest.raises(InvalidInput, match="report version mismatch"):
        lodua.cli.recheck(zp, {**report, "version": "0"})
    result = report["result"]
    cells = dict(result["table"])
    cells.pop(next(iter(cells)))
    with pytest.raises(InvalidInput, match="grid does not cover"):
        lodua.cli.recheck(zp, {**report, "result": {**result, "table": cells}})
    cells = {k: {"kind": "module"} for k in result["table"]}
    with pytest.raises(InvalidInput, match="complete verdict with a nonzero"):
        lodua.cli.recheck(zp, {**report, "result": {**result, "table": cells}})
    with open(fixture("z-mod-p-infty.json")) as fh:
        prufer = json.load(fh)
    _, report = lodua.cli.run(prufer, "gm-check", {"s": 1})
    assert lodua.cli.recheck(prufer, report)["invariants"] == [
        "sequence has a vanishing outer term"]
    result = {**report["result"], "lim1_tor_next": {"kind": "module"}}
    with pytest.raises(InvalidInput, match="neither outer term is zero"):
        lodua.cli.recheck(prufer, {**report, "result": result})


# prior reports that are not the shape their verb writes: each exited 2
# with `internal error: AttributeError` (a witness of rows that are not
# lists: `TypeError`), but the lcomplete-check result [1], which passed
# with nothing checked
_MALFORMED_REPORTS = {
    "not-an-object": ("zp.json", [1, 2]),
    "gm-check-outer-term": ("z-mod-p-infty.json", {
        "version": "1", "verb": "gm-check",
        "result": {"status": "exact", "lim1_tor_next": 5,
                   "lim_tor": {"kind": "module"}}}),
    "lcomplete-check-cells": ("z.json", {
        "version": "1", "verb": "lcomplete-check",
        "result": {"verdict": "complete",
                   "table": {"i=1,q=0": 3, "i=1,q=1": 4}}}),
    "lcomplete-check-result": ("zp.json", {
        "version": "1", "verb": "lcomplete-check", "result": [1]}),
    "witness-rows": ("c2-swap.json", {
        "version": "1", "verb": "verify", "result": {"witness": [1, 2]}}),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_REPORTS))
def test_recheck_refuses_a_malformed_report(tmp_path, capsys, case):
    import lodua.cli
    name, report = _MALFORMED_REPORTS[case]
    prior = tmp_path / "report.json"
    prior.write_text(json.dumps(report))
    code = lodua.cli.main(["resolve", fixture(name), "--recheck", str(prior)])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("invalid input: "), err


# -- the document table of cli.run -------------------------------------------

# verbs on each fixture document; together they ask every verb
_FIXTURE_OPS = {
    "z.json": [
        ("resolve", {}), ("tor", {"M": "Zmod125", "N": "Zmod125", "s": 1}),
        ("ext", {"M": "Zmod125", "N": "Z", "s": 1}),
        ("localcoh", {"target": "zinv", "s": 1}),
        ("localcoh", {"target": "z", "s": 0}),
        ("localhom", {"target": "z", "s": 0}),
        ("localhom", {"target": "rat", "s": 1}),
        ("gamma", {"target": "Zmod125"}), ("lambda", {"target": "zinv"}),
        ("gm-check", {"target": "z", "s": 0}),
        ("complete", {"module": "Zmod125"}),
        ("lcomplete-check", {"target": "rat"}),
        ("torsion-check", {"target": "Zmod125"}),
        ("lambda-local-check", {"target": "z"}), ("proreg-check", {}),
        ("localhom", {"target": "nothing", "s": 0})],
    "zp.json": [
        ("lcomplete-check", {}), ("lambda", {"target": "zp"}),
        ("localhom", {"target": "zp", "s": 1}), ("gamma", {"target": "zp"}),
        ("complete", {"module": "Zp"}), ("resolve", {})],
    "z-mod-p-infty.json": [
        ("gm-check", {"s": 1}), ("gm-check", {"s": 0}),
        ("localhom", {"target": "prufer", "s": 0}),
        ("localcoh", {"target": "prufer", "s": 0}),
        ("lambda", {"target": "prufer"}),
        ("torsion-check", {"target": "prufer"})],
    "c2-swap.json": [
        ("resolve", {}), ("comodule-limit", {"comodule": "CA"}),
        ("comodule-complete", {"comodule": "CA", "method": "pullback"}),
        ("iota", {"comodule": "CA"}), ("verify", {}),
        ("verify", {"which": "fg-vanishing"}),
        ("verify", {"which": "comodule-gm"}),
        ("verify", {"which": "true-level"})],
}
_COLD = {}


def _answer(doc, verb, args):
    """(exit code, report body) of a verb, or the refusal's type and
    message."""
    import lodua.cli
    try:
        code, report = lodua.cli.run(doc, verb, args)
    except Exception as ex:  # a refusal is an answer here
        return type(ex).__name__, str(ex)
    return code, json.dumps(report, sort_keys=True)


def _fixture_doc(name):
    with open(fixture(name)) as fh:
        return json.load(fh)


def _cold_answers(name):
    import lodua.cli
    if name not in _COLD:
        doc, answers = _fixture_doc(name), []
        for verb, args in _FIXTURE_OPS[name]:
            lodua.cli._parsed.cache_clear()
            answers.append(_answer(doc, verb, args))
        _COLD[name] = answers
    return _COLD[name]


def test_fixture_ops_ask_every_verb():
    import lodua.cli
    asked = {verb for ops in _FIXTURE_OPS.values() for verb, _ in ops}
    assert asked == set(lodua.cli.VERBS)


@settings(max_examples=12)
@given(st.sampled_from(sorted(_FIXTURE_OPS)), st.data())
def test_a_verb_after_others_on_its_document_answers_as_after_a_cold_parse(
        name, data):
    import lodua.cli
    ops = _FIXTURE_OPS[name]
    cold = _cold_answers(name)
    order = data.draw(st.permutations(range(len(ops))))
    doc = _fixture_doc(name)
    lodua.cli._parsed.cache_clear()
    for i in order:
        assert _answer(doc, *ops[i]) == cold[i], ops[i]
    # every op after the first found the document in the table
    assert lodua.cli._parsed.cache_info().hits == len(ops) - 1


def _hits_and_misses():
    import lodua.cli
    info = lodua.cli._parsed.cache_info()
    return info.hits, info.misses


def _retyped(doc, path, value):
    """A deep copy of doc with the entry at path replaced by value."""
    doc = json.loads(json.dumps(doc))
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    return doc


_COMPLEX_DOC = {"version": "1", "ring": {"base": "Z"}, "ideal": ["5"],
                "modules": {"M": {"generators": 1, "relations": [["25"]]}},
                "complexes": {"C": {"modules": {"0": "M"}}}}


@pytest.mark.parametrize("path, value", [
    (("ideal", 0), 5),
    (("modules", "M", "generators"), True),
    (("modules", "M", "generators"), 1.0),
    (("modules", "M", "relations", 0, 0), 25),
    (("complexes", "C", "modules"), {0: "M"}),
])
def test_documents_differing_in_types_miss_the_table(path, value):
    import lodua.cli
    variant = _retyped(_COMPLEX_DOC, path, value)
    want = _answer(variant, "resolve", {})
    lodua.cli._parsed.cache_clear()
    _answer(_COMPLEX_DOC, "resolve", {})
    hits, misses = _hits_and_misses()
    assert _answer(variant, "resolve", {}) == want
    assert _hits_and_misses() == (hits, misses + 1)


@pytest.mark.parametrize("args, budget", [
    ({}, "99999"), ({"precision": 10}, None), ({"K": 5}, None),
    ({"lag": 2}, None)])
def test_other_settings_miss_the_table(args, budget, monkeypatch):
    import lodua.cli
    doc = _fixture_doc("zp.json")
    lodua.cli._parsed.cache_clear()
    _answer(doc, "lcomplete-check", {})
    if budget is not None:
        monkeypatch.setenv("LODUA_BUDGET", budget)
    hits, misses = _hits_and_misses()
    _answer(doc, "lcomplete-check", args)
    assert _hits_and_misses() == (hits, misses + 1)
    _answer(doc, "lcomplete-check", args)
    assert _hits_and_misses() == (hits + 1, misses + 1)


def test_an_invalid_document_is_refused_every_time_and_never_stored():
    import lodua.cli
    doc = _fixture_doc("z.json")
    bad = _retyped(doc, ("modules", "Z", "generators"), -1)
    lodua.cli._parsed.cache_clear()
    _answer(doc, "resolve", {})
    for _ in range(3):
        with pytest.raises(InvalidInput, match="non-negative integer"):
            lodua.cli.run(bad, "resolve")
    assert lodua.cli._parsed.cache_info().currsize == 1
    hits, misses = _hits_and_misses()
    _answer(doc, "resolve", {})   # still the stored document
    assert _hits_and_misses() == (hits + 1, misses)


def test_an_equal_document_built_anew_hits_the_table():
    # the key is the content: a copy built by another route is the same key
    import lodua.cli
    lodua.cli._parsed.cache_clear()
    _answer(_fixture_doc("z.json"), "resolve", {})
    copy = json.loads(json.dumps(_fixture_doc("z.json")))
    _answer(copy, "resolve", {})
    assert _hits_and_misses() == (1, 1)


def test_the_table_holds_one_document():
    import lodua.cli
    assert lodua.cli._parsed.cache_info().maxsize == 1
    z, zp = _fixture_doc("z.json"), _fixture_doc("zp.json")
    lodua.cli._parsed.cache_clear()
    for doc in (z, zp, z):
        _answer(doc, "resolve", {})
    assert _hits_and_misses() == (0, 3)
    assert lodua.cli._parsed.cache_info().currsize == 1


class _Note(dict):
    pass


@pytest.mark.parametrize("note", [lambda: None, _Note()])
def test_a_document_holding_other_types_is_parsed_every_time(note):
    import lodua.cli
    doc = _fixture_doc("z.json")
    odd = {**doc, "command": {"note": note}}
    lodua.cli._parsed.cache_clear()
    for _ in range(2):
        assert lodua.cli.run(odd, "resolve") == lodua.cli.run(doc, "resolve")
    # the plain twin missed once and hit once; the odd one asked nothing
    assert _hits_and_misses() == (1, 1)
