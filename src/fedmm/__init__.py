"""Deterministic federated minimax optimization: simulators, oracles, bounds."""

from .algorithms import (
    ALGORITHMS,
    FEDGDA_GT,
    GDA,
    LOCAL_SGDA,
    AlgoConfig,
    DivergenceError,
    EtaSelection,
    RoundRecord,
    RunTrace,
    auto_eta_fedgda,
    conservative_eta,
    fedgda_round_map,
    gda_step,
    local_sgda_limit,
    local_sgda_residual,
    run_algorithm,
)
from .analysis import (
    ContractionReport,
    FixedPointReport,
    MonotonicityReport,
    RobustLossResult,
    UnstableStepsizeError,
    check_contraction,
    check_strong_monotonicity,
    fixed_point_report,
    local_sgda_fixed_point,
    local_sgda_fixed_point_closed_form,
    robust_loss,
)
from .core import (
    DimensionMismatchError,
    FeasibleSet,
    Iterate,
    ProductSet,
    average_vectors,
    norm,
    optimality_gap,
)
from .datagen import (
    QuadraticGenSpec,
    RlrGenSpec,
    gen_quadratic,
    gen_rlr,
    load_dataset,
    save_dataset,
    substreams,
)
from .genbounds import (
    BoundInputs,
    FiniteHypothesisSample,
    RademacherEstimate,
    bound_terms,
    estimate_rademacher,
    massart_bound,
    population_risk_bound,
    vc_rademacher_bound,
    worst_case_risk_bound,
)
from .problems import (
    LocalObjective,
    MinimaxProblem,
    QuadraticAgent,
    RlrAgent,
    RobustLinearRegression,
    ScalarTwoAgent,
    SingularProblemError,
    UncoupledQuadratic,
    UnsupportedProblemError,
    closed_form_minimax,
    estimate_constants,
    finite_difference_gradients,
)

__version__ = "0.1.0"
