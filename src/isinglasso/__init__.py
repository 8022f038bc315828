"""Signed structure recovery for pairwise spin models via per-node
L1-penalized regression, with closed-form tree oracles, primal-dual
recovery certificates, and a phase-curve experiment harness."""

from .bethe import (
    RescaledParams,
    RRConstants,
    SingularMatrixError,
    ThresholdReport,
    bethe_inverse_covariance,
    rescaled_theta,
    rr_constants,
    support_conditions,
    theorem_thresholds,
    tree_covariance,
    tree_moments,
)
from .experiment import (
    ExperimentConfig,
    SweepResult,
    compare_solvers,
    crossing_half,
    run_sweep,
    run_trial,
    sweep_to_csv,
)
from .graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    generate_bethe_tree,
    generate_grid_periodic,
    generate_random_regular,
    generate_random_tree,
    generate_star,
)
from .sampler import (
    ExactMoments,
    SampleMatrix,
    SamplerConfig,
    exact_enumerate,
    gibbs_sample,
)
from .solvers import (
    ConvergenceError,
    GraphEstimate,
    LassoSolution,
    SignedNeighborhood,
    SolverConfig,
    extract_signed_neighborhood,
    lambda_from_kappa,
    recover_graph,
    solve_lasso,
    solve_logistic_l1,
)
from .witness import (
    CovarianceReport,
    NoiseVector,
    WitnessCertificate,
    check_conditions,
    compute_noise_vector,
    construct_witness,
    enumerate_z_statistics,
    sample_covariance,
)

__version__ = "0.1.0"
