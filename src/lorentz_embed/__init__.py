"""Monge-Ampere solves on negatively curved discs and their isometric
embeddings into Lorentz-Minkowski 3-space, with full a priori estimate
audits and extrinsic verification of the reconstructed surfaces."""

from .metric import (
    CurvatureBounds,
    WarpedPolarMetric,
    ConformalDiscMetric,
    make_hyperbolic,
    make_radial_from_curvature,
    make_poincare,
    make_poincare_perturbed,
    jacobi_defect,
)
from .grid import (
    PolarGrid,
    ScalarField,
    HessianField,
    ChartData,
    GridTooCoarseError,
    chart_arrays,
    covariant_hessian,
    write_field_csv,
)
from .solver import (
    DirichletProblem,
    AdmissibleField,
    NonConvergenceError,
    solve_dirichlet,
    certify,
    verify_subsolution,
)
from .exhaustion import (
    ExhaustionSchedule,
    ExhaustionResult,
    DivergenceError,
    make_schedule,
    run_exhaustion,
)
from .estimates import (
    EstimateRecord,
    EstimateReport,
    CutoffFunction,
    SecondOrderConstants,
    check_zero_order,
    check_first_order,
    check_lower_bound,
    build_cutoff,
    check_second_order,
    run_estimate_suite,
)
from .geodesics import distance_field, distance_conformal
from .embed import (
    ConformalHyperbolicMetric,
    DevelopingMap,
    EmbeddingMap,
    EmbeddingAudit,
    Mesh,
    conformal_metric,
    develop,
    assemble_embedding,
    verify_embedding,
    build_embedding,
    export_graph,
    write_obj,
)

__version__ = "0.1.0"
