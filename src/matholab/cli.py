"""Scenario-driven command line front end.

A scenario is a single JSON object naming the inner functions, the optional
auxiliary data (conjugations, Crofoot parameters), a symbol or an explicit
operator matrix, and the command to run.  The runner executes the command,
prints a report (by default JSON on one compact line, which Python's C
encoder writes; a plain table with --format text) and exits with

    0  every check accepted
    1  some check rejected
    2  the scenario was invalid or inconsistent with the command
    3  an internal numeric failure

Reports are deterministic for a fixed scenario and seed; only the
``wall_time_s`` field varies between runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .blaschke import BlaschkePotapovProduct, diagonal_monomial, scalar_blaschke, validate
from .conjugations import Conjugation, CrofootData
from .jsonio import ScenarioError, matrix_from_json, pair_to_complex
from .laurent import Laurent
from .modelspace import ModelSpace, random_modifier
from .operators import (
    DISPLACEMENT_KINDS,
    INVARIANCE_KINDS,
    REGISTRY_NAMES,
    SYMBOL_FREE_IDENTITIES,
    Check,
    ModelOperator,
    TransformInputs,
    build_matho,
    build_matto,
    displacement_check,
    kernel_check,
    kernel_test,
    recover_symbol,
    shift_invariance_check,
    verify_transform,
)

SCHEMA_VERSION = 1
COMMANDS = ("space", "build", "check", "recover", "kernel", "verify")
# a gated verify asks for max(trunc_order, 2n) matrix powers, so an unbounded
# window exhausts memory instead of being refused
MAX_TRUNC_ORDER = 4096

_KNOWN_FIELDS = {"schema_version", "command", "trunc_order", "tolerance", "seed",
                 "theta1", "theta2", "j1", "j2", "w1", "w2", "symbol", "operator",
                 "params", "kind", "family", "name", "comment"}


class Scenario:
    """Validated inputs for one runner invocation."""

    def __init__(self, command, trunc_order, tolerance, seed, space1, space2,
                 conj1, conj2, crofoot1, crofoot2, symbol, operator, params):
        self.command = command
        self.trunc_order = trunc_order
        self.tolerance = tolerance
        self.seed = seed
        self.space1 = space1
        self.space2 = space2
        self.conj1 = conj1
        self.conj2 = conj2
        self.crofoot1 = crofoot1
        self.crofoot2 = crofoot2
        self.symbol = symbol
        self.operator = operator
        self.params = params


def load_scenario(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"scenario: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ScenarioError("scenario: expected a JSON object")
    return obj


def _parse_space(obj, field, order):
    """The model space of a theta document; its realization is built and checked once."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{field}: expected an object")
    if "powers" in obj:
        powers = obj["powers"]
        if (not isinstance(powers, list) or not powers
                or not all(isinstance(k, int) and not isinstance(k, bool) and k >= 0
                           for k in powers)):
            raise ScenarioError(f"{field}.powers: expected a list of nonnegative integers")
        theta = diagonal_monomial(powers)
    elif "poles" in obj:
        raw = obj["poles"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{field}.poles: expected a nonempty list of [re, im] pairs")
        poles = [pair_to_complex(p, f"{field}.poles[{i}]") for i, p in enumerate(raw)]
        try:
            theta = scalar_blaschke(poles)
        except ValueError as exc:
            raise ScenarioError(f"{field}.poles: {exc}") from None
    else:
        theta = BlaschkePotapovProduct.from_json(obj, field)
    try:
        return ModelSpace(validate(theta), order, theta)
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}") from None


def _parse_crofoot(obj, field):
    if isinstance(obj, dict):
        return CrofootData.from_json(obj, field)
    w = matrix_from_json(obj, field)
    try:
        return CrofootData(w)
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}") from None


def parse_scenario(obj, command, tol=None, trunc_order=None, seed=None):
    """Validate a raw scenario object against the requested command.

    The keyword arguments are command-line overrides and win over the
    corresponding scenario fields.
    """
    for key in obj:
        if key not in _KNOWN_FIELDS:
            raise ScenarioError(f"{key}: unknown scenario field")
    declared = obj.get("schema_version", SCHEMA_VERSION)
    if declared != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, got {declared!r}")
    if "command" in obj and obj["command"] != command:
        raise ScenarioError(f"command: scenario declares {obj['command']!r} "
                            f"but {command!r} was requested")

    order = trunc_order if trunc_order is not None else obj.get("trunc_order", 64)
    if not isinstance(order, int) or isinstance(order, bool) or not 8 <= order <= MAX_TRUNC_ORDER:
        raise ScenarioError(f"trunc_order: expected an integer in [8, {MAX_TRUNC_ORDER}]")
    tolerance = tol if tol is not None else obj.get("tolerance", 1e-8)
    if (not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool)
            or not 1e-14 <= tolerance <= 1e-2):
        raise ScenarioError("tolerance: expected a number in [1e-14, 1e-2]")
    tolerance = float(tolerance)
    seed = seed if seed is not None else obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("seed: expected a nonnegative integer")

    space1 = _parse_space(obj["theta1"], "theta1", order) if "theta1" in obj else None
    space2 = _parse_space(obj["theta2"], "theta2", order) if "theta2" in obj else None
    if space1 is not None and space2 is not None and space1.dim != space2.dim:
        raise ScenarioError(f"theta2: dimension {space2.dim} does not match "
                            f"theta1 dimension {space1.dim}")

    conj1 = conj2 = None
    if "j1" in obj:
        conj1 = Conjugation.from_json(obj["j1"], "j1")
        if space1 is not None and conj1.dim != space1.dim:
            raise ScenarioError("j1: dimension does not match theta1")
    if "j2" in obj:
        conj2 = Conjugation.from_json(obj["j2"], "j2")
        if space2 is not None and conj2.dim != space2.dim:
            raise ScenarioError("j2: dimension does not match theta2")

    crofoot1 = crofoot2 = None
    if "w1" in obj:
        crofoot1 = _parse_crofoot(obj["w1"], "w1")
        if space1 is not None and crofoot1.dim != space1.dim:
            raise ScenarioError("w1: dimension does not match theta1")
    if "w2" in obj:
        crofoot2 = _parse_crofoot(obj["w2"], "w2")
        if space2 is not None and crofoot2.dim != space2.dim:
            raise ScenarioError("w2: dimension does not match theta2")

    symbol = None
    if "symbol" in obj:
        symbol = Laurent.from_json(obj["symbol"], "symbol")
        if symbol.coeffs.ndim != 3:
            raise ScenarioError("symbol.coeffs: expected square matrix coefficients")
        if space1 is not None and symbol.dim != space1.dim:
            raise ScenarioError(f"symbol: dimension {symbol.dim} does not match "
                                f"theta1 dimension {space1.dim}")

    operator = None
    if "operator" in obj:
        operator = matrix_from_json(obj["operator"], "operator")

    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("params: expected an object")
    params = dict(params)
    for key in ("kind", "family", "name"):
        if key in obj and key not in params:
            params[key] = obj[key]

    sc = Scenario(command, order, tolerance, seed, space1, space2,
                  conj1, conj2, crofoot1, crofoot2, symbol, operator, params)
    _check_required(sc)
    return sc


def _check_required(sc):
    if sc.space1 is None:
        raise ScenarioError("theta1: required for every command")
    if sc.command != "space" and sc.space2 is None:
        raise ScenarioError(f"theta2: required for the {sc.command} command")
    if sc.command in ("build", "kernel") and sc.symbol is None:
        raise ScenarioError(f"symbol: required for the {sc.command} command")
    if sc.command in ("check", "recover") and sc.symbol is None and sc.operator is None:
        raise ScenarioError(f"operator: the {sc.command} command needs an operator "
                            "matrix or a symbol to build one from")
    if sc.command in ("build", "recover", "kernel"):
        family = sc.params.get("family")
        if family not in ("toeplitz", "hankel"):
            raise ScenarioError("params.family: expected 'toeplitz' or 'hankel'")
    if sc.command == "check":
        kind = sc.params.get("kind")
        if not isinstance(kind, str) or (kind not in DISPLACEMENT_KINDS
                                         and kind not in INVARIANCE_KINDS):
            raise ScenarioError(f"params.kind: unknown kind {kind!r}")
    if sc.command == "verify":
        name = sc.params.get("name", "all")
        if name != "all" and name not in REGISTRY_NAMES:
            raise ScenarioError(f"params.name: unknown identity {name!r}")
        if sc.symbol is None and name not in SYMBOL_FREE_IDENTITIES:
            raise ScenarioError("symbol: required to verify this identity")


# -- command execution --------------------------------------------------------

def _build(sc, sp1, sp2, family):
    build = build_matto if family == "toeplitz" else build_matho
    return build(sp1, sp2, sc.symbol)


def _operator(sc, sp1, sp2, family):
    if sc.operator is not None:
        shape = (sp2.dim_K, sp1.dim_K)
        if sc.operator.shape != shape:
            raise ScenarioError(f"operator: expected shape {shape}, "
                                f"got {sc.operator.shape}")
        return ModelOperator(sp1, sp2, sc.operator)
    return _build(sc, sp1, sp2, family)


def _cmd_space(sc):
    checks = []
    details = {}
    for key, space in (("theta1", sc.space1), ("theta2", sc.space2)):
        if space is None:
            continue
        # the state basis is orthonormal exactly when the colligation is unitary
        checks.append(Check.judge(f"{key}-basis", space.unitary_defect, sc.tolerance, 0.0))
        details[key] = space.describe()
    return checks, details


def _cmd_build(sc):
    family = sc.params["family"]
    sp1, sp2 = sc.space1, sc.space2
    op = _build(sc, sp1, sp2, family)
    kind = "T1" if family == "toeplitz" else "H1"
    return [displacement_check(op, kind, sc.tolerance)], {"operator": op.to_json()}


def _cmd_check(sc):
    kind = sc.params["kind"]
    sp1, sp2 = sc.space1, sc.space2
    if kind in INVARIANCE_KINDS:
        family, variant = kind.split("-")
        rep = shift_invariance_check(_operator(sc, sp1, sp2, family), family, variant,
                                     sc.tolerance)
    else:
        op = _operator(sc, sp1, sp2, DISPLACEMENT_KINDS[kind])
        mod1 = mod2 = None
        if kind.startswith("M"):
            # modified kinds draw their modifier maps from the scenario seed
            rng = np.random.default_rng(sc.seed)
            mod1 = random_modifier(sp1, rng)
            mod2 = random_modifier(sp2, rng)
        rep = displacement_check(op, kind, sc.tolerance, mod1, mod2)
    return [rep], None


def _cmd_recover(sc):
    family = sc.params["family"]
    sp1, sp2 = sc.space1, sc.space2
    op = _operator(sc, sp1, sp2, family)
    kind = "T1" if family == "toeplitz" else "H1"
    rep = displacement_check(op, kind, sc.tolerance)
    checks = [rep]
    details = None
    if rep.accepted():
        phi, resid = recover_symbol(op, family, threshold=sc.tolerance)
        checks.append(Check.judge(f"rebuild-{family}", resid, sc.tolerance,
                                  np.linalg.norm(op.matrix)))
        details = {"symbol": phi.to_json()}
    return checks, details


def _cmd_kernel(sc):
    family = sc.params["family"]
    sp1, sp2 = sc.space1, sc.space2
    result = kernel_test(sc.symbol, sp1, sp2, family, threshold=sc.tolerance)
    return [kernel_check(sc.symbol, result, sc.tolerance)], result


def _cmd_verify(sc):
    name = sc.params.get("name", "all")
    inputs = TransformInputs(sc.space1, sc.space2, symbol=sc.symbol,
                             conj1=sc.conj1, conj2=sc.conj2,
                             crofoot1=sc.crofoot1, crofoot2=sc.crofoot2,
                             threshold=sc.tolerance)
    out = verify_transform(name, inputs)
    return (out if name == "all" else [out]), None


_RUNNERS = {"space": _cmd_space, "build": _cmd_build, "check": _cmd_check,
            "recover": _cmd_recover, "kernel": _cmd_kernel, "verify": _cmd_verify}


def run_command(scenario):
    """Execute the scenario's command and assemble the report."""
    start = time.perf_counter()
    checks, details = _RUNNERS[scenario.command](scenario)
    # skipped entries state unmet hypotheses; they carry no verdict to veto
    overall = "reject" if any(c.verdict == "reject" for c in checks) else "accept"
    report = {"schema_version": SCHEMA_VERSION,
              "version": __version__,
              "command": scenario.command,
              "checks": [c.to_json() for c in checks],
              "overall": overall}
    if details is not None:
        report["details"] = details
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    return report


def emit_report(report, fmt):
    if fmt == "json":
        return json.dumps(report)
    lines = [f"command: {report['command']}"]
    for rec in report["checks"]:
        if rec["verdict"] == "skipped":
            lines.append(f"  {rec['name']}: skipped ({rec['reason']})")
            continue
        line = (f"  {rec['name']}: residual {rec['residual']:.3e}  "
                f"threshold {rec['threshold']:.1e}  {rec['verdict']}")
        lines.append(line + (f"  ({rec['reason']})" if "reason" in rec else ""))
    lines.append(f"overall: {report['overall']}  ({report['wall_time_s']:.3f}s)")
    return "\n".join(lines)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="matho-lab",
        description="Run model-space operator checks from a JSON scenario file.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="path to the scenario JSON")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the scenario tolerance")
    parser.add_argument("--trunc-order", type=int, default=None,
                        help="override the Laurent window half-width")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        raw = load_scenario(args.scenario)
        scenario = parse_scenario(raw, args.command, tol=args.tol,
                                  trunc_order=args.trunc_order, seed=args.seed)
        report = run_command(scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError but is a numeric failure, not bad input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    print(emit_report(report, args.format))
    return 0 if report["overall"] == "accept" else 1


if __name__ == "__main__":
    sys.exit(main())
