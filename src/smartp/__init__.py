"""Design engine for two-stage SMART studies with clustered, spatially
correlated, skewed and non-randomly missing sub-unit outcomes."""

import os

# set before numpy loads: OpenBLAS would start one thread per core; --workers is the thread knob
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from ._backend import active_backend
from .design import (
    Regime,
    SmartDesign,
    Stage1Arm,
    Stage1Mode,
    TreatmentPath,
    design_from_matrices,
    ipw_path_weights,
    path_probs,
    path_tables,
    periodontitis_default,
    stage1_probs,
    stage2_prob,
)
from .dists import SkewTParams, sample_st, st_mean, st_variance
from .engine import compute_effect, compute_sample_size
from .errors import (
    ConfigError,
    DegenerateMissingnessError,
    InfeasibleTargetError,
    NotPositiveDefiniteError,
    SmartpError,
    UndefinedMomentError,
)
from .missing import (
    MissingnessParams,
    corr_y_m,
    max_corr,
    normal_cdf,
    normal_quantile,
    prob_available,
    solve_missingness,
)
from .moments import (
    ModelMoments,
    OutcomeModel,
    PathMoments,
    estimate_path_moments,
    regime_moments,
)
from .power import SampleSizeResult, TestSpec, analytic_power, required_n, reject, wald_z
from .simtrial import PowerEstimate, TrialDataset, ipw_estimate, mc_power, simulate_trial
from .spatial import (
    AdjacencyGraph,
    CarModel,
    SpdMatrix,
    car_covariance,
    default_car_model,
    dental_arches,
    load_edge_list,
    tooth_chain,
)
