import json
import os
import subprocess
import sys

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "lodua.cli", *args],
                          capture_output=True, text=True)
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


def test_golden_comodule_verify_report():
    code, out, _ = run_cli("verify", fixture("c2-swap.json"),
                           "--which", "completion-formula")
    assert code == 0
    with open(fixture("golden/c2-swap.completion-formula.json")) as fh:
        assert out == fh.read()


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


def test_explicit_zero_is_not_replaced_by_a_default(monkeypatch):
    import lodua.cli
    with open(fixture("z-mod-p-infty.json")) as fh:
        doc = json.load(fh)
    seen = {}

    def fake(d, target, s, K, lag, precision):
        seen.update(s=s, K=K, lag=lag, precision=precision)
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


@pytest.mark.parametrize("value", ["abc", "0", "-4", "1.5"])
def test_bad_budget_variable_exits_three(value):
    env = dict(os.environ, LODUA_BUDGET=value)
    proc = subprocess.run([sys.executable, "-m", "lodua.cli", "resolve",
                           fixture("z.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "LODUA_BUDGET" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("key, flag, doc_value", [
    ("precision", 7, 3), ("K", 7, 1), ("lag", 7, 0)])
def test_explicit_flag_overrides_document_option(monkeypatch, key, flag,
                                                 doc_value):
    import lodua.cli
    with open(fixture("z-mod-p-infty.json")) as fh:
        doc = json.load(fh)
    doc = {**doc, "options": {key: doc_value}}
    seen = {}

    def fake(d, target, s, K, lag, precision):
        seen.update(K=K, lag=lag, precision=precision)
        return {"status": "exact"}

    monkeypatch.setattr(lodua.cli, "gm_ses_check", fake)
    lodua.cli.run(doc, "gm-check")
    assert seen[key] == doc_value
    lodua.cli.run(doc, "gm-check", {key: flag})
    assert seen[key] == flag


def _c2_doc():
    with open(fixture("c2-swap.json")) as fh:
        return json.load(fh)


_Z_MODULES = {"Z": {"generators": 1, "relations": []}}

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
