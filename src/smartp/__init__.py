"""Design engine for two-stage SMART studies with clustered, spatially
correlated, skewed and non-randomly missing sub-unit outcomes.

The public names below load their module on first use (PEP 562), so a
command imports only the modules it runs.
"""

import os
import sys
import warnings
from importlib import import_module

if "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    warnings.warn(
        "numpy was imported before smartp with OPENBLAS_NUM_THREADS unset: OpenBLAS runs one "
        "thread per core, which slows workers > 1; set OPENBLAS_NUM_THREADS=1 before starting "
        "Python, or import smartp before numpy",
        RuntimeWarning,
        stacklevel=2,
    )
# set before numpy loads: OpenBLAS would start one thread per core; --workers is the thread knob
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_EXPORTS = {
    "_backend": ("active_backend",),
    "design": (
        "Regime", "SmartDesign", "Stage1Arm", "Stage1Mode", "TreatmentPath", "contrast_weights",
        "design_from_matrices", "ipw_path_weights", "path_probs", "path_tables",
        "periodontitis_default", "stage1_probs", "stage2_prob",
    ),
    "dists": ("SkewTParams", "sample_st", "st_mean", "st_variance"),
    "engine": ("compute_effect", "compute_sample_size"),
    "errors": (
        "ConfigError", "DegenerateMissingnessError", "InfeasibleTargetError",
        "NotPositiveDefiniteError", "SmartpError", "UndefinedMomentError",
    ),
    "missing": (
        "MissingnessParams", "corr_y_m", "max_corr", "normal_cdf", "normal_quantile",
        "prob_available", "solve_missingness",
    ),
    "moments": (
        "ModelMoments", "OutcomeModel", "PathMoments", "estimate_path_moments", "regime_moments",
    ),
    "power": ("SampleSizeResult", "TestSpec", "analytic_power", "required_n", "reject", "wald_z"),
    "simtrial": ("PowerEstimate", "TrialDataset", "ipw_estimate", "mc_power", "simulate_trial"),
    "spatial": (
        "AdjacencyGraph", "CarModel", "SpdMatrix", "car_covariance", "default_car_model",
        "dental_arches", "load_edge_list", "tooth_chain",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
