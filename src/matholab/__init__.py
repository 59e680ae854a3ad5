"""Numerical model spaces and truncated Toeplitz / Hankel operators."""

from .jsonio import ScenarioError
from .laurent import (Laurent, MatrixLaurent, evaluate_many, fit_circle_samples,
                      inner_product, refit_on_circle)
from .blaschke import (MAX_POLE_ABS, PURITY_MARGIN, BlaschkePotapovProduct, PotapovFactor,
                       ValidationReport, crofoot_realization, crofoot_theta, diagonal_monomial,
                       scalar_blaschke, validate)
from .conjugations import (Conjugation, CrofootData, CTheta, crofoot_map, jstar,
                           realization_jsymmetry_defect, sandwich_pointwise, sandwich_reflected,
                           tau)
from .modelspace import ModelSpace, random_modifier
from .operators import (REGISTRY_NAMES, Check, ModelOperator, TransformInputs,
                        build_matho, build_matto, displacement_check, kernel_test,
                        recover_symbol, shift_invariance_check, verify_transform)
from . import sampling

__version__ = "0.1.0"

__all__ = [
    "ScenarioError",
    "Laurent", "MatrixLaurent", "inner_product", "evaluate_many",
    "fit_circle_samples", "refit_on_circle",
    "MAX_POLE_ABS", "PURITY_MARGIN", "PotapovFactor", "BlaschkePotapovProduct",
    "ValidationReport", "validate", "crofoot_realization", "crofoot_theta",
    "diagonal_monomial", "scalar_blaschke",
    "Conjugation", "CrofootData", "CTheta", "jstar", "tau", "crofoot_map",
    "realization_jsymmetry_defect", "sandwich_pointwise", "sandwich_reflected",
    "ModelSpace", "random_modifier",
    "Check", "ModelOperator", "build_matto", "build_matho",
    "displacement_check", "shift_invariance_check", "recover_symbol", "kernel_test",
    "TransformInputs", "verify_transform", "REGISTRY_NAMES",
    "sampling",
    "__version__",
]
