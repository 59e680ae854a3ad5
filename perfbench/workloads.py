"""Seeded request streams for the benchmark workloads.

A stream is an endless sequence of ``Request`` objects. Request ``i`` takes
its structural parameters (command, dimension, family, window) from a fixed
schedule, so every seed runs the same cost mix; the seed only draws the
numbers inside (poles, unitaries, symbols, noise). Each request carries the
verdict its inputs force by construction (see ``groundtruth``), and its ``run``
drives the public matholab API and returns the verdict fields it observed.

Library functions are looked up on their module at call time
(``operators.kernel_test``, ``cli.run_command``) so that the traced run's
wrappers see every call.
"""

import functools
import itertools
import json

import numpy as np

from matholab import cli, operators, sampling
from matholab.blaschke import (MAX_POLE_ABS, BlaschkePotapovProduct, PotapovFactor,
                               diagonal_monomial)
from matholab.conjugations import Conjugation
from matholab.jsonio import ScenarioError, complex_to_pair, matrix_to_json
from matholab.laurent import MatrixLaurent
from matholab.modelspace import ModelSpace

from groundtruth import BenchmarkError

# stream phases: the measured run, the traced half of a traced run, warm-up
MEASURED, TRACED, WARMUP = 0, 1, 2


class Request:
    """One closed-loop request: ``run()`` returns the observed verdict fields."""

    __slots__ = ("cell", "run", "expected")

    def __init__(self, cell, run, expected):
        self.cell = cell
        self.run = run
        self.expected = expected


def _rng(seed, phase, *key):
    return np.random.default_rng([seed, phase, *key])


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- ground-truth symbols for the kernel class ---------------------------------

def _series_from_samples(values, order):
    """Window [-order, order] of a function sampled at the N-th roots of unity.

    FFT round-off below 1e-13 of the largest coefficient is dropped, so exact
    Laurent polynomials come back with their exact support.
    """
    bins = np.fft.fft(values, axis=0) / values.shape[0]
    coeffs = bins[np.arange(-order, order + 1) % values.shape[0]]
    norms = np.linalg.norm(coeffs.reshape(coeffs.shape[0], -1), axis=1)
    coeffs[norms <= 1e-13 * norms.max()] = 0.0
    return MatrixLaurent(coeffs, order)


# a kernel-class symbol combines this many generators, with shifts z^k, k <= MAX_K
MEMBER_TERMS = 3
MAX_K = 2


def kernel_member(rng, theta1, theta2, conj1, conj2, family, order):
    """A random combination of kernel-class generators, built without series arithmetic.

    Toeplitz generators are Theta2 z^k E and (Theta1 z^k E)^*; hankel ones are
    z^k U2 E^T conj(U1) and the sandwich J2 (Theta2~ z^k E Theta1) J1. Each is
    evaluated in closed form on a fine grid and transformed back, so the
    symbol is in the class up to round-off and the window's truncation tail.
    """
    dim = theta1.dim
    n_grid = 1 << int(np.ceil(np.log2(8 * (order + MAX_K + 8))))
    nodes = np.exp(2j * np.pi * np.arange(n_grid) / n_grid)
    t1 = theta1.evaluate(nodes)
    t2 = theta2.evaluate(nodes)
    t2_tilde = np.conj(np.transpose(theta2.evaluate(np.conj(nodes)), (0, 2, 1)))
    total = np.zeros((n_grid, dim, dim), dtype=complex)
    for _ in range(MEMBER_TERMS):
        k = int(rng.integers(0, MAX_K + 1))
        e = np.zeros((dim, dim))
        e[rng.integers(dim), rng.integers(dim)] = 1.0
        zk = (nodes ** k)[:, None, None]
        if family == "toeplitz":
            if rng.integers(2):
                gen = t2 @ (zk * e)
            else:
                gen = np.conj(np.transpose(t1 @ (zk * e), (0, 2, 1)))
        elif rng.integers(2):
            gen = zk * (conj2.U @ e.T @ np.conj(conj1.U))
        else:
            inner = t2_tilde @ (zk * e) @ t1
            gen = conj2.U @ np.conj(inner) @ np.conj(conj1.U)
        total += rng.standard_normal() * gen
    return _series_from_samples(total, order)


def kernel_outsider(rng, dim, family):
    """A symbol outside the kernel class.

    The forced coefficient makes the built operator nonzero: c_0 for toeplitz
    (A_Phi e_l has constant term c_0 e_l), c_{-1} for hankel (B_Phi e_l has
    constant term c_{-1} e_l). For diagonal monomial thetas that is a proof;
    for other thetas it holds with probability one.
    """
    reach = 3
    forced = 0 if family == "toeplitz" else -1
    slots = {int(n) - reach for n in rng.choice(2 * reach + 1, size=3, replace=False)}
    coeffs = np.zeros((2 * reach + 1, dim, dim), dtype=complex)
    for n in slots | {forced}:
        coeffs[n + reach] = _gaussian(rng, (dim, dim))
    return MatrixLaurent(coeffs, reach)


def symmetric_inner(rng, dim, per_slot, min_abs, max_abs):
    """(Theta, J) with J Theta J = Theta^*: exactly per_slot poles per slot.

    Same construction as ``sampling.random_symmetric_inner``, whose pole count
    per slot is random; a fixed count keeps dim_K, and so the request cost,
    the same for every seed. Pole moduli are uniform on [min_abs, max_abs].
    """
    w = sampling.random_unitary(rng, dim)
    eye = np.eye(dim)
    factors = [PotapovFactor(rng.uniform(min_abs, max_abs) * np.exp(2j * np.pi * rng.uniform()),
                             w[:, [i]], eye)
               for i in range(dim) for _ in range(per_slot)]
    last = factors[-1]
    factors[-1] = PotapovFactor(last.a, last.frame, w @ w.T)
    v = sampling.random_unitary(rng, dim)
    return BlaschkePotapovProduct(dim, None, factors).transported(v), Conjugation(v @ v.T)


# -- scenario_mix ---------------------------------------------------------------

# (cell, dimension); one pass over this list is one cycle of the stream. The
# kind, identity name and in/out-of-kernel choice rotate with the cycle, so
# every seed runs them in the same proportions.
SCENARIO_CELLS = tuple(
    [("space", d) for d in (1, 2, 3)]
    + [(f"build-{fam}", d) for fam in ("toeplitz", "hankel") for d in (1, 2, 3)]
    + [(f"check-{src}", d) for src in ("built", "noise") for d in (1, 2, 3)]
    + [(f"recover-{fam}", d) for fam in ("toeplitz", "hankel") for d in (1, 2, 3)]
    + [(f"kernel-{fam}", d) for fam in ("toeplitz", "hankel") for d in (1, 2)]
    + [("verify", d) for d in (1, 2, 3)])

CHECK_KINDS = ("T1", "T2", "T3", "T4", "H1", "H2", "H3", "H4", "MT",
               "MH-a", "MH-b", "MH-c", "MH-d",
               *(f"{fam}-{v}" for fam in ("toeplitz", "hankel") for v in "abcd"))
# Stein-type displacements X - S2 X S1^(*): invertible maps, so Gaussian noise
# leaves a nonzero residual whenever dim_K exceeds the defect dimension
NOISE_KINDS = ("T1", "T2", "H1", "H3")


def _inner_doc(rng, dim, n_factors):
    """(scenario JSON, model-space dimension) of a random pure inner function.

    Pole moduli cover the whole documented range up to the cap.
    """
    if dim == 1:
        poles = rng.uniform(0.0, MAX_POLE_ABS, n_factors) \
            * np.exp(2j * np.pi * rng.uniform(size=n_factors))
        return {"poles": [complex_to_pair(a) for a in poles]}, n_factors
    theta = sampling.random_inner(rng, dim, n_factors=n_factors, max_abs=MAX_POLE_ABS)
    return theta.to_json(), theta.model_dim()


def _symmetric_doc(rng, dim):
    theta, conj = sampling.random_symmetric_inner(rng, dim, max_abs=MAX_POLE_ABS)
    return theta.to_json(), conj.to_json()


# trunc_order of a scenario, and of a kernel scenario (millisecond sizes).
# Each cell walks its range with a stride coprime to the range's length, so
# any stretch of cycles covers the range evenly and every seed gets the same
# windows.
SCENARIO_ORDERS = range(8, 65)
KERNEL_ORDERS = range(8, 17)
ORDER_STRIDE = 35


def _window(orders, cycle, slot):
    return orders[(ORDER_STRIDE * cycle + slot) % len(orders)]


def _scenario(rng, cell, dim, cycle, slot):
    """(command, scenario document, expected verdict fields) for one cell."""
    command, _, variant = cell.partition("-")
    doc = {"command": command, "trunc_order": _window(SCENARIO_ORDERS, cycle, slot)}
    expected = {"overall": "accept"}
    if command in ("space", "build") or cell in ("check-built", "recover-toeplitz"):
        doc["theta1"] = _inner_doc(rng, dim, 2)[0]
        doc["theta2"] = _inner_doc(rng, dim, 2)[0]
    if command == "build":
        doc["family"] = variant
    elif cell == "check-built":
        doc["kind"] = CHECK_KINDS[cycle % len(CHECK_KINDS)]
        doc["seed"] = int(rng.integers(2 ** 31))
    elif cell == "check-noise":
        doc["kind"] = NOISE_KINDS[cycle % len(NOISE_KINDS)]
        doc["theta1"], dim1 = _inner_doc(rng, dim, 3)
        doc["theta2"], dim2 = _inner_doc(rng, dim, 3)
        doc["operator"] = matrix_to_json(_gaussian(rng, (dim2, dim1)))
        expected["overall"] = "reject"
    elif command == "recover":
        doc["family"] = variant
        if variant == "hankel":
            doc["theta1"], doc["j1"] = _symmetric_doc(rng, dim)
            doc["theta2"], doc["j2"] = _symmetric_doc(rng, dim)
    elif command == "kernel":
        # diagonal monomials: polynomial thetas make the generators exact at
        # every window, so the class verdict is known at millisecond sizes
        doc["family"] = variant
        doc["trunc_order"] = _window(KERNEL_ORDERS, cycle, slot)
        powers1 = [int(p) for p in rng.integers(1, 4, size=dim)]
        powers2 = [int(p) for p in rng.integers(1, 4, size=dim)]
        doc["theta1"] = {"powers": powers1}
        doc["theta2"] = {"powers": powers2}
        ident = Conjugation.identity(dim)
        if variant == "hankel":
            doc["j1"] = doc["j2"] = ident.to_json()
        if cycle % 2 == 0:
            symbol = kernel_member(rng, diagonal_monomial(powers1), diagonal_monomial(powers2),
                                   ident, ident, variant, doc["trunc_order"])
            expected["class"] = "in-kernel"
        else:
            symbol = kernel_outsider(rng, dim, variant)
            expected["class"] = "not-in-kernel"
        doc["symbol"] = symbol.to_json()
    elif command == "verify":
        doc["name"] = operators.REGISTRY_NAMES[cycle % len(operators.REGISTRY_NAMES)]
        doc["theta1"], doc["j1"] = _symmetric_doc(rng, dim)
        doc["theta2"], doc["j2"] = _symmetric_doc(rng, dim)
        doc["w1"] = sampling.random_crofoot(rng, dim).to_json()
        doc["w2"] = sampling.random_crofoot(rng, dim).to_json()
    if command != "space" and "symbol" not in doc and "operator" not in doc:
        doc["symbol"] = sampling.random_symbol(rng, dim).to_json()
    return command, doc, expected


def run_scenario(command, doc):
    """parse -> run -> emit through the CLI module, as ``matho-lab`` does in-process."""
    try:
        scenario = cli.parse_scenario(doc, command)
    except ScenarioError as exc:
        raise BenchmarkError(f"generated {command} scenario was refused: {exc}") from exc
    report = cli.run_command(scenario)
    emitted = json.loads(cli.emit_report(report, "json"))
    verdicts = [c["verdict"] for c in report["checks"]]
    if (emitted["overall"] != report["overall"]
            or [c["verdict"] for c in emitted["checks"]] != verdicts):
        raise BenchmarkError(f"emitted {command} report does not match the report")
    observed = {"overall": report["overall"]}
    if command == "kernel":
        observed["class"] = report["details"]["verdict"]
    return observed


def scenario_mix(seed, phase):
    for i in itertools.count():
        cycle, slot = divmod(i, len(SCENARIO_CELLS))
        cell, dim = SCENARIO_CELLS[slot]
        command, doc, expected = _scenario(_rng(seed, phase, i), cell, dim, cycle, slot)
        yield Request(f"{cell}/d{dim}", functools.partial(run_scenario, command, doc), expected)


# -- kernel_classify -----------------------------------------------------------

# (family, dimension, window) of each space pair; pairs are reused round-robin.
# Both families, equally weighted, at d=2 with windows 48 and 64 and at d=3
# with window 48. d=3 at window 64 is left out: one kernel_test there takes
# 1.4-1.8 s on a 2-core x86 machine, four times the mean of the others, and
# two such pairs would leave a run too few samples for a steady tail.
KERNEL_PAIR_CONFIGS = tuple((family, dim, order)
                            for dim, order in ((2, 48), (2, 64), (3, 48))
                            for family in ("toeplitz", "hankel"))
# small poles, as in acceptance criterion 6: the generators fit the window and
# the truncation tail (0.25^48) is far below round-off, so membership is exact.
# One fixed modulus: the generator count follows the poles' effective reach,
# so a fixed modulus keeps each pair's cost the same for every seed.
KERNEL_POLE = 0.25


def _build_pair(pair, theta1, theta2, order):
    pair["spaces"] = (ModelSpace.from_product(theta1, order),
                      ModelSpace.from_product(theta2, order))
    dims_ok = all(sp.dim_K == th.model_dim()
                  for sp, th in zip(pair["spaces"], (theta1, theta2)))
    return {"spaces": "built" if dims_ok else "wrong-dimension"}


def _classify(pair, symbol, family, conj1, conj2):
    space1, space2 = pair["spaces"]
    result = operators.kernel_test(symbol, space1, space2, family, conj1, conj2)
    return {"class": result["verdict"], "agreement": result["agreement"]}


def kernel_classify(seed, phase):
    pairs = []
    for p, (family, dim, order) in enumerate(KERNEL_PAIR_CONFIGS):
        rng = _rng(seed, phase, 0, p)
        theta1, conj1 = symmetric_inner(rng, dim, 1, KERNEL_POLE, KERNEL_POLE)
        theta2, conj2 = symmetric_inner(rng, dim, 1, KERNEL_POLE, KERNEL_POLE)
        pair = {}
        pairs.append((pair, family, dim, order, theta1, theta2, conj1, conj2))
        # building a pair's spaces is request work, timed like a symbol
        yield Request(f"pair-{family}/d{dim}/M{order}",
                      functools.partial(_build_pair, pair, theta1, theta2, order),
                      {"spaces": "built"})
    for i in itertools.count():
        cycle, p = divmod(i, len(pairs))
        pair, family, dim, order, theta1, theta2, conj1, conj2 = pairs[p]
        rng = _rng(seed, phase, 1, i)
        if cycle % 2 == 0:
            symbol = kernel_member(rng, theta1, theta2, conj1, conj2, family, order)
            expected = {"class": "in-kernel", "agreement": "confirmed"}
        else:
            symbol = kernel_outsider(rng, dim, family)
            expected = {"class": "not-in-kernel", "agreement": "confirmed"}
        yield Request(f"kernel-{family}/d{dim}/M{order}/{expected['class']}",
                      functools.partial(_classify, pair, symbol, family, conj1, conj2),
                      expected)


WORKLOADS = {
    "scenario_mix": scenario_mix,
    "kernel_classify": kernel_classify,
}

# (requests before the repeating schedule, requests in one full cycle of it).
# Set-up generates the first cycle's inputs; a measured run ends on a cycle
# boundary, so each request cell gets an equal count.
SCHEDULE = {
    "scenario_mix": (0, len(SCENARIO_CELLS)),
    "kernel_classify": (len(KERNEL_PAIR_CONFIGS), 2 * len(KERNEL_PAIR_CONFIGS)),
}
