"""Callers outside the package: the demo scripts and the benchmark's tracer bindings."""

import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_tracer_binds_the_library(monkeypatch):
    # the tracer wraps named functions and methods, and binds from_product's
    # theta and order by name; a rename or a signature change breaks a traced run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from matholab import ModelSpace, cli, diagonal_monomial
    from matholab.laurent import MatrixLaurent

    original = MatrixLaurent.__dict__["mul"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert MatrixLaurent.__dict__["mul"] is not original
        tracer.request = 0
        ModelSpace.from_product(diagonal_monomial([1, 2]), 16)
        cli.parse_scenario({"theta1": {"powers": [2]}, "theta2": {"poles": [[0.5, 0.0]]}},
                           "space")
    finally:
        tracer.uninstall()
    assert MatrixLaurent.__dict__["mul"] is original
    metrics = tracer.layer_metrics(1)
    # the direct call and one per parsed theta: the CLI builds its spaces
    # through from_product, which checks the colligation without validate
    assert metrics["modelspace.from_product.calls"][0] == 3
    assert metrics["modelspace.from_product.distinct_ratio"][0] == 1.0
    assert metrics["blaschke.validate.calls"][0] == 0
    assert metrics["cli.parse.self_s"][0] > 0.0


def test_crofoot_identity_samples_no_circle(monkeypatch):
    # the Crofoot image comes from the realization space "1"/"2" holds: no
    # refit, map or sampling, and no product realization built again
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from matholab import BlaschkePotapovProduct, ModelSpace, TransformInputs, operators
    from matholab.sampling import random_crofoot, random_inner, random_symbol

    rng = np.random.default_rng(5)
    space1, space2 = (ModelSpace.from_product(random_inner(rng, 3, max_abs=0.9), 32)
                      for _ in range(2))
    inputs = TransformInputs(space1, space2, symbol=random_symbol(rng, 3),
                             crofoot1=random_crofoot(rng, 3), crofoot2=random_crofoot(rng, 3))
    realizations = []
    original = BlaschkePotapovProduct.realization
    monkeypatch.setattr(BlaschkePotapovProduct, "realization",
                        lambda self: realizations.append(self) or original(self))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.request = 0
        check = operators.verify_transform("crofoot", inputs)
    finally:
        tracer.uninstall()
    assert check.name == "crofoot" and check.verdict in ("accept", "reject")
    calls = Counter(tracer.names[i] for i in tracer.span_name)
    assert calls["operators.verify_transform"] == 1
    assert calls["laurent.refit_on_circle"] == 0
    assert calls["conjugations.crofoot_map"] == 0
    assert calls["laurent.evaluate_many"] == 0
    assert not realizations


def test_verify_all_gates_j_symmetry_without_sampling_theta(monkeypatch):
    # the J-symmetry gate and remark412's symbol defect and commutator read
    # coefficients: nothing in the registry samples the circle
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from matholab import ModelSpace, TransformInputs, operators
    from matholab.sampling import random_crofoot, random_symbol, random_symmetric_inner

    rng = np.random.default_rng(5)
    (theta1, conj1), (theta2, conj2) = (random_symmetric_inner(rng, 3, max_abs=0.9)
                                        for _ in range(2))
    inputs = TransformInputs(ModelSpace.from_product(theta1, 32),
                             ModelSpace.from_product(theta2, 32), symbol=random_symbol(rng, 3),
                             conj1=conj1, conj2=conj2,
                             crofoot1=random_crofoot(rng, 3), crofoot2=random_crofoot(rng, 3))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.request = 0
        checks = operators.verify_transform("all", inputs)
    finally:
        tracer.uninstall()
    assert [c.name for c in checks] == list(operators.REGISTRY_NAMES)
    assert not any(c.reason and c.reason.startswith("needs J-symmetric") for c in checks)
    calls = Counter(tracer.names[i] for i in tracer.span_name)
    assert calls["laurent.evaluate_many"] == 0


def test_hankel_recovery_is_one_solve(monkeypatch):
    # one min-norm solve on the exact symbol map: no tilde space, no
    # conjugation maps, no circle samples and no series product
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from matholab import ModelSpace, build_matho, operators
    from matholab.sampling import random_symbol, random_symmetric_inner

    rng = np.random.default_rng(5)
    s1 = ModelSpace.from_product(random_symmetric_inner(rng, 3, max_abs=0.6)[0], 32)
    s2 = ModelSpace.from_product(random_symmetric_inner(rng, 3, max_abs=0.6)[0], 32)
    op = build_matho(s1, s2, random_symbol(rng, 3))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.request = 0
        _, gap = operators.recover_symbol(op, "hankel")
    finally:
        tracer.uninstall()
    assert gap <= 1e-8 * (1.0 + np.linalg.norm(op.matrix))
    calls = Counter(tracer.names[i] for i in tracer.span_name)
    assert calls["operators.recover_symbol"] == 1
    assert calls["modelspace.from_product"] == 0
    assert calls["conjugations.maps"] == 0
    assert calls["laurent.evaluate_many"] == 0
    assert calls["operators.build"] == 1
    assert calls["laurent.mul"] == 0


def test_benchmark_scenario_cycle_is_sound(monkeypatch):
    # the benchmark scores each report's verdicts and the kernel details
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import groundtruth
    import workloads

    cycle = len(workloads.SCENARIO_CELLS)
    outcomes = {}
    for i, req in enumerate(itertools.islice(workloads.scenario_mix(1, workloads.MEASURED), cycle)):
        try:
            observed, error = req.run(), None
        except groundtruth.BenchmarkError:
            raise
        except Exception as exc:  # noqa: BLE001 - scored like the benchmark does
            observed, error = None, exc
        outcomes[f"{i}:{req.cell}"] = groundtruth.judge(req.expected, observed, error)
    assert len(outcomes) == cycle == 28
    assert not {k: v for k, v in outcomes.items() if v in groundtruth.FAILED}
