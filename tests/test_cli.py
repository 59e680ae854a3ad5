"""Scenario runner: exit codes, report schema, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from matholab import Laurent, ModelSpace, cli
from matholab.sampling import random_inner, random_symbol

import oracle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _base_doc(**extra):
    doc = {"theta1": {"powers": [2]}, "theta2": {"powers": [2]},
           "symbol": {"dim": 1, "coeffs": {"-1": [[[1.0, 0.0]]]}}}
    doc.update(extra)
    return doc


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_accepts_hankel(tmp_path, capsys):
    path = _write(tmp_path, _base_doc(kind="H1"))
    code, out, _ = _run(["check", "--scenario", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "accept"
    assert report["schema_version"] == 1
    assert report["command"] == "check"
    rec = report["checks"][0]
    assert rec["name"] == "H1" and rec["verdict"] == "accept"
    assert rec["residual"] <= 1e-12


def test_check_rejects_jordan_block(tmp_path, capsys):
    doc = _base_doc(kind="H1")
    del doc["symbol"]
    doc["operator"] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = _write(tmp_path, doc)
    code, out, _ = _run(["check", "--scenario", path], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["overall"] == "reject"
    assert abs(report["checks"][0]["residual"] - 1.0) < 1e-12


def test_golden_scenarios_run_as_documented():
    expected = {
        "check_hankel_zbar.json": ("check", 0),
        "check_hankel_reject.json": ("check", 1),
        "verify_all_scalar.json": ("verify", 0),
        "space_diag.json": ("space", 0),
        "recover_toeplitz.json": ("recover", 0),
        "kernel_zbar2.json": ("kernel", 0),
    }
    for name, (command, want) in expected.items():
        code = cli.main([command, "--scenario", str(SCENARIOS / name)])
        assert code == want, name


def test_every_record_follows_the_one_rule(capsys):
    for path in sorted(SCENARIOS.glob("*.json")):
        command = json.loads(path.read_text())["command"]
        code = cli.main([command, "--scenario", str(path)])
        report = json.loads(capsys.readouterr().out)
        cli.main([command, "--scenario", str(path), "--format", "text"])
        text = capsys.readouterr().out
        assert code == (0 if report["overall"] == "accept" else 1), path.name
        for rec in report["checks"]:
            assert "scale" in rec, (path.name, rec)
            if rec["name"].startswith("kernel-"):
                assert report["details"]["agreement"] in rec["reason"], rec
            if rec["verdict"] == "skipped" or rec["name"].startswith("kernel-"):
                assert rec["reason"] and rec["reason"] in text, (path.name, rec)
            else:
                rule = rec["residual"] <= rec["threshold"] * (1 + rec["scale"])
                assert rec["verdict"] == ("accept" if rule else "reject"), (path.name, rec)


def test_json_report_is_one_line_of_the_report(capsys):
    for path in sorted(SCENARIOS.glob("*.json")):
        raw = json.loads(path.read_text())
        cli.main([raw["command"], "--scenario", str(path)])
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1, path.name
        report = cli.run_command(cli.parse_scenario(raw, raw["command"]))
        emitted = json.loads(out)
        del emitted["wall_time_s"], report["wall_time_s"]
        assert emitted == report, path.name


def test_verify_all_report_lists_registry(tmp_path, capsys):
    path = str(SCENARIOS / "verify_all_scalar.json")
    code, out, _ = _run(["verify", "--scenario", path], capsys)
    assert code == 0
    report = json.loads(out)
    names = [rec["name"] for rec in report["checks"]]
    assert names[:4] == ["crofoot", "tau", "jstar", "ctheta"]
    assert all(rec["residual"] <= 1e-8 for rec in report["checks"]
               if rec["verdict"] != "skipped")


def test_kernel_flags_non_member(tmp_path, capsys):
    path = str(SCENARIOS / "kernel_zbar2.json")
    code, out, _ = _run(["kernel", "--scenario", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["details"]["verdict"] == "not-in-kernel"
    assert report["details"]["agreement"] == "confirmed"


def test_kernel_without_j_symmetry(tmp_path, capsys):
    # random_inner thetas are not J-symmetric; the symbol is drawn from the
    # exact nullspace of the hankel symbol map on an exact window (poles up
    # to 0.3, window 48), so its built operator is zero
    rng = np.random.default_rng(0)
    theta1, theta2 = random_inner(rng, 2, max_abs=0.3), random_inner(rng, 2, max_abs=0.3)
    s1, s2 = (ModelSpace.from_product(theta, 48) for theta in (theta1, theta2))
    lags, mat = oracle.symbol_map(s1, s2, "hankel", 48)
    null = oracle.map_nullspace(mat)
    x = null @ rng.standard_normal(null.shape[1])
    symbol = Laurent.from_coeff_map(dict(zip(lags, x.reshape(-1, 2, 2))), 2)
    doc = {"theta1": theta1.to_json(), "theta2": theta2.to_json(),
           "symbol": symbol.to_json(), "trunc_order": 48, "family": "hankel"}
    code, out, _ = _run(["kernel", "--scenario", _write(tmp_path, doc)], capsys)
    assert code == 0
    details = json.loads(out)["details"]
    assert details["verdict"] == "in-kernel" and details["agreement"] == "confirmed"


def test_build_emits_operator(tmp_path, capsys):
    path = _write(tmp_path, _base_doc(family="hankel"))
    code, out, _ = _run(["build", "--scenario", path], capsys)
    assert code == 0
    report = json.loads(out)
    matrix = report["details"]["operator"]["matrix"]
    got = np.array([[complex(*p) for p in row] for row in matrix])
    assert np.max(np.abs(got - np.array([[1.0, 0.0], [0.0, 0.0]]))) < 1e-12


def _random_inner_doc(**extra):
    # random_inner thetas are not J-symmetric, and the doc gives no j1/j2
    rng = np.random.default_rng(77)
    doc = {"theta1": random_inner(rng, 2, max_abs=0.5).to_json(),
           "theta2": random_inner(rng, 2, max_abs=0.5).to_json(),
           "symbol": random_symbol(rng, 2).to_json(), "trunc_order": 32}
    doc.update(extra)
    return doc


def test_recover_hankel_without_j_symmetry(tmp_path, capsys):
    path = _write(tmp_path, _random_inner_doc(family="hankel"))
    code, out, _ = _run(["recover", "--scenario", path], capsys)
    assert code == 0
    checks = {rec["name"]: rec for rec in json.loads(out)["checks"]}
    assert checks["H1"]["verdict"] == "accept"
    assert checks["rebuild-hankel"]["verdict"] == "accept"


@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_recovered_symbol_builds_the_same_operator(tmp_path, capsys, family):
    doc = _random_inner_doc(family=family)
    code, out, _ = _run(["recover", "--scenario", _write(tmp_path, doc)], capsys)
    assert code == 0
    symbol = json.loads(out)["details"]["symbol"]
    # a finite polynomial: nothing dropped, and its JSON reads back to itself
    assert symbol["tail_bound"] == 0.0
    assert Laurent.from_json(symbol).to_json() == symbol

    def built(doc):
        code, out, _ = _run(["build", "--scenario", _write(tmp_path, doc)], capsys)
        assert code == 0
        rows = json.loads(out)["details"]["operator"]["matrix"]
        return np.array([[complex(*p) for p in row] for row in rows])

    original = built(doc)
    assert np.max(np.abs(built(dict(doc, symbol=symbol)) - original)) <= 1e-12


def test_space_describes_basis(tmp_path, capsys):
    path = _write(tmp_path, {"theta1": {"powers": [1, 2]}})
    code, out, _ = _run(["space", "--scenario", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["details"]["theta1"]["dim_K"] == 3


def test_space_report_does_not_grow_with_the_window(tmp_path, capsys):
    # the report carries each space's realization, not its window basis
    rng = np.random.default_rng(12)
    doc = {"theta1": random_inner(rng, 3, n_factors=2, max_abs=0.9).to_json(),
           "theta2": random_inner(rng, 3, n_factors=2, max_abs=0.9).to_json()}
    path = _write(tmp_path, doc)

    def report(window):
        code, out, _ = _run(["space", "--scenario", path, "--trunc-order", str(window)], capsys)
        assert code == 0
        return out

    first, second = report(64), report(64)
    assert len(first.encode()) <= 24_000
    untimed = [re.sub(r'"wall_time_s": [-+.e0-9]+', "", text) for text in (first, second)]
    assert untimed[0] == untimed[1] and '"wall_time_s"' not in untimed[0]

    def shapes(details):
        # the shape of every array in the details, by theta and field
        out = {}
        for key, space in details.items():
            arrays = dict(space, **{f"realization.{k}": v
                                    for k, v in space["realization"].items()})
            out.update({(key, f): np.shape(v) for f, v in arrays.items() if isinstance(v, list)})
        return out

    small, large = (json.loads(text)["details"] for text in (report(16), first))
    assert shapes(small) == shapes(large) and len(shapes(large)) == 16
    assert small["theta1"]["realization"] == large["theta1"]["realization"]


def test_text_format(tmp_path, capsys):
    path = _write(tmp_path, _base_doc(kind="H1"))
    code, out, _ = _run(["check", "--scenario", path, "--format", "text"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "command: check"
    assert "H1: residual" in lines[1] and "e" in lines[1]
    assert lines[-1].startswith("overall: accept")


_COEFFS = {"-1": [[[1.0, 0.0]]]}
# scenario fields whose integer or number is a JSON boolean, by field name
_BOOLEAN_FIELDS = {
    "symbol.dim": {"symbol": {"dim": True, "coeffs": _COEFFS}},
    "theta1.dim": {"theta1": {"dim": True, "factors": [
        {"a": [0.5, 0.0], "frame": [[[1.0, 0.0]]], "post_unitary": [[[1.0, 0.0]]]}]}},
    "symbol.trunc_order": {"symbol": {"dim": 1, "trunc_order": True, "coeffs": _COEFFS}},
    "symbol.tail_bound": {"symbol": {"dim": 1, "tail_bound": True, "coeffs": _COEFFS}},
}


def test_invalid_scenarios_exit_2(tmp_path, capsys):
    cases = [
        _base_doc(kind="H1", tolerance=1.0),
        _base_doc(kind="H1", trunc_order=4),
        _base_doc(kind="H1", seed=-1),
        _base_doc(kind="Q7"),
        _base_doc(kind=["H1"]),  # not a string
        _base_doc(),  # check without a kind
        {"theta1": {"powers": [2]}, "kind": "H1"},  # theta2 missing
        _base_doc(kind="H1", bogus=True),
        _base_doc(kind="H1", command="verify"),
        *(_base_doc(kind="H1", **extra) for extra in _BOOLEAN_FIELDS.values()),
    ]
    for doc in cases:
        path = _write(tmp_path, doc)
        code, _, err = _run(["check", "--scenario", path], capsys)
        assert code == 2, doc
        assert "scenario error" in err


def test_validation_names_the_field(tmp_path, capsys):
    doc = _base_doc(kind="H1")
    doc["theta1"] = {"dim": 1, "factors": [{"a": [0.0, 0.0],
                                            "frame": [[[2.0, 0.0]]],
                                            "post_unitary": [[[1.0, 0.0]]]}]}
    path = _write(tmp_path, doc)
    code, _, err = _run(["check", "--scenario", path], capsys)
    assert code == 2
    assert "theta1.factors[0]" in err

    path = _write(tmp_path, _base_doc(kind="H1", tolerance=1.0))
    code, _, err = _run(["check", "--scenario", path], capsys)
    assert "tolerance" in err

    code, _, err = _run(["check", "--scenario", str(tmp_path / "missing.json")], capsys)
    assert code == 2

    for field, extra in _BOOLEAN_FIELDS.items():
        path = _write(tmp_path, _base_doc(kind="H1", **extra))
        code, _, err = _run(["check", "--scenario", path], capsys)
        assert code == 2 and f"scenario error: {field}:" in err, field


_ONE = [[[1.0, 0.0]]]
_FACTOR = {"a": [0.5, 0.0], "frame": _ONE, "post_unitary": _ONE}
# document kind -> (scenario fields with one unknown key, the refusal)
_UNKNOWN_KEYS = {
    "theta": ({"theta1": {"dim": 1, "left_untary": _ONE, "factors": [_FACTOR]}},
              "theta1.left_untary"),
    "theta-powers": ({"theta1": {"powers": [2], "pols": [[0.5, 0.0]]}}, "theta1.pols"),
    "theta-poles": ({"theta1": {"poles": [[0.5, 0.0]], "dim": 1}}, "theta1.dim"),
    "factor": ({"theta1": {"dim": 1, "factors": [dict(_FACTOR, rank=1)]}},
               "theta1.factors[0].rank"),
    "symbol": ({"symbol": {"dim": 1, "coeffs": _COEFFS, "order": 1}}, "symbol.order"),
    "j": ({"j1": {"unitary": _ONE, "symmetric": True}}, "j1.symmetric"),
    "w": ({"w1": {"w": [[[0.5, 0.0]]], "W": _ONE}}, "w1.W"),
    "params": ({"params": {"nmae": "eq_sz"}}, "params.nmae"),
}


@pytest.mark.parametrize("extra, field", _UNKNOWN_KEYS.values(), ids=_UNKNOWN_KEYS.keys())
def test_unknown_nested_keys_exit_2(tmp_path, capsys, extra, field):
    # a misspelled key would otherwise be dropped: left_untary reads as left
    # unitary I, a different theta
    path = _write(tmp_path, _base_doc(**extra))
    code, out, err = _run(["verify", "--scenario", path], capsys)
    assert code == 2 and not out
    assert err == f"scenario error: {field}: unknown field\n"


def test_parsed_spaces_are_built_by_from_product(monkeypatch):
    thetas = []
    original = ModelSpace.from_product.__func__
    monkeypatch.setattr(ModelSpace, "from_product", classmethod(
        lambda cls, theta, order=64: thetas.append(theta) or original(cls, theta, order)))
    sc = cli.parse_scenario(_base_doc(theta2={"poles": [[0.5, 0.0]]}), "verify")
    assert len(thetas) == 2
    assert [sc.space1.theta, sc.space2.theta] == thetas


def test_unparseable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(["check", "--scenario", str(path)], capsys)
    assert code == 2
    assert "not valid JSON" in err


def test_theta_that_is_not_inner_exits_2(tmp_path, capsys, monkeypatch):
    # the constructor refuses a non-unitary post_unitary, so spoil one after parsing
    parse = cli.BlaschkePotapovProduct.from_json

    def spoiled(obj, field="theta"):
        theta = parse(obj, field)
        theta.factors[0].post_unitary = 1.1 * theta.factors[0].post_unitary
        return theta

    monkeypatch.setattr(cli.BlaschkePotapovProduct, "from_json", spoiled)
    doc = _base_doc(kind="H1")
    doc["theta1"] = {"dim": 1, "factors": [{"a": [0.5, 0.0], "frame": [[[1.0, 0.0]]],
                                            "post_unitary": [[[1.0, 0.0]]]}]}
    path = _write(tmp_path, doc)
    code, _, err = _run(["check", "--scenario", path], capsys)
    assert code == 2
    assert "scenario error: theta1: not inner" in err


# a constructor's refusal at each decode site, by the document that triggers it
# (a factor's is test_validation_names_the_field's, from_product's is above)
_CONSTRUCTOR_REFUSALS = {
    "product": ({"theta1": {"dim": 1, "left_unitary": [[[2.0, 0.0]]], "factors": [_FACTOR]}},
                "theta1: left_unitary is not unitary"),
    "poles": ({"theta1": {"poles": [[0.95, 0.0]]}},
              "theta1.poles: pole parameter |a| = 0.950 exceeds the 0.9 cap"),
    "j": ({"j1": {"unitary": [[[2.0, 0.0]]]}}, "j1: conjugation matrix is not unitary"),
    "w": ({"w1": {"w": [[[0.95, 0.0]]]}}, "w1: Crofoot parameter norm exceeds the 0.9 cap"),
    "w-matrix": ({"w1": [[[0.95, 0.0]]]}, "w1: Crofoot parameter norm exceeds the 0.9 cap"),
}


@pytest.mark.parametrize("extra, want", _CONSTRUCTOR_REFUSALS.values(),
                         ids=_CONSTRUCTOR_REFUSALS.keys())
def test_constructor_refusals_exit_2_by_field(tmp_path, capsys, extra, want):
    code, out, err = _run(["verify", "--scenario", _write(tmp_path, _base_doc(**extra))], capsys)
    assert code == 2 and not out
    assert err == f"scenario error: {want}\n"


@pytest.mark.parametrize("w1", [{"w": [[[0.5, 0.0]]]}, [[[0.5, 0.0]]]], ids=["w", "w-matrix"])
def test_numeric_failure_at_parse_exits_3(tmp_path, capsys, monkeypatch, w1):
    # LinAlgError subclasses ValueError, but a constructor's numeric failure
    # is not invalid input
    def boom(self, w):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli.CrofootData, "__init__", boom)
    code, out, err = _run(["verify", "--scenario", _write(tmp_path, _base_doc(w1=w1))], capsys)
    assert code == 3 and not out
    assert err.startswith("internal error: LinAlgError")


def test_inconsistent_inputs_exit_2(tmp_path, capsys):
    # a symbol reaching past the window is classified, not refused
    doc = _base_doc(kind="H1", family="hankel",
                    command="kernel",
                    symbol={"dim": 1, "coeffs": {"-20": [[[1.0, 0.0]]]}})
    doc["trunc_order"] = 8
    del doc["kind"]
    path = _write(tmp_path, doc)
    code, out, _ = _run(["kernel", "--scenario", path], capsys)
    assert code == 0
    details = json.loads(out)["details"]
    assert details["verdict"] == "in-kernel" and details["agreement"] == "confirmed"
    # a window past the documented maximum is an input problem, refused at
    # parse before anything is allocated
    doc["trunc_order"] = cli.MAX_TRUNC_ORDER + 1
    path = _write(tmp_path, doc)
    code, _, err = _run(["kernel", "--scenario", path], capsys)
    assert code == 2
    assert f"trunc_order: expected an integer in [8, {cli.MAX_TRUNC_ORDER}]" in err


def test_symbol_reach_is_capped_at_parse(tmp_path, capsys):
    # a symbol reaching past the largest window, by a key or by a declared
    # trunc_order, is refused before its coefficients are allocated
    one = [[[1.0, 0.0]]]
    for symbol, field in (({"dim": 1, "coeffs": {"4097": one}}, "symbol.coeffs[4097]"),
                          ({"dim": 1, "coeffs": {"0": one}, "trunc_order": 5000},
                           "symbol.trunc_order")):
        path = _write(tmp_path, _base_doc(symbol=symbol))
        code, _, err = _run(["space", "--scenario", path], capsys)
        assert code == 2 and f"scenario error: {field}:" in err
    # the largest window itself is read
    doc = _base_doc(symbol={"dim": 1, "coeffs": {str(-cli.MAX_TRUNC_ORDER): one}})
    code, _, _ = _run(["space", "--scenario", _write(tmp_path, doc)], capsys)
    assert code == 0


def test_internal_failure_exits_3(tmp_path, capsys, monkeypatch):
    def boom(scenario):
        raise np.linalg.LinAlgError("synthetic blowup")

    monkeypatch.setitem(cli._RUNNERS, "check", boom)
    path = _write(tmp_path, _base_doc(kind="H1"))
    code, _, err = _run(["check", "--scenario", path], capsys)
    assert code == 3
    assert "internal error" in err


def test_reports_are_deterministic(tmp_path, capsys):
    path = _write(tmp_path, _base_doc(kind="MT", seed=5, family="toeplitz"))
    outs = []
    for _ in range(2):
        code, out, _ = _run(["check", "--scenario", path], capsys)
        assert code == 0
        doc = json.loads(out)
        doc.pop("wall_time_s")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_overrides_scenario_fields(tmp_path, capsys):
    doc = _base_doc(kind="H1")
    del doc["symbol"]
    # a 1e-6 breach of the antidiagonal symmetry
    doc["operator"] = [[[0.0, 0.0], [1e-6, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = _write(tmp_path, doc)
    # loose tolerance accepts the small breach, a tight one rejects it
    code_loose, _, _ = _run(["check", "--scenario", path, "--tol", "1e-3"], capsys)
    code_tight, _, _ = _run(["check", "--scenario", path, "--tol", "1e-9"], capsys)
    assert code_loose == 0 and code_tight == 1
    # an override out of range is still a scenario error
    code, _, err = _run(["check", "--scenario", path, "--tol", "0.5"], capsys)
    assert code == 2 and "tolerance" in err
