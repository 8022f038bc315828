"""The exported API of the package, pinned so that it changes only on purpose.

A change to this list is an API change: record it in CHANGES.md.
History: `incoherence_norm` was replaced by `support_conditions`, which
returns the support-block eigenvalue floor and the incoherence norm from
one eigensolve. `NeighborhoodProblem` and `solve_lasso_restricted` were
removed: `solve_lasso(samples, r, lam)` and `solve_logistic_l1(samples, r,
lam)` are the per-node calls, and the witness's restricted Lasso is
`lasso_cd_gram` on the support block of the second moment. `path_length` and `signed_edge_set` were
removed: no library code, CLI command or benchmark called them.
`rescaled_theta_rr` was folded into `rr_constants`, whose `theta_tilde_rr`
field holds the same magnitude. `tail_rate_probe` moved to the tests
(`tests/oracles.py`), its only callers, with its penalty taken from
`lambda_from_kappa`. `estimate_magnetization` was removed: the sweep's
mixing check, its only caller, reads the spin means in `run_trial`.
"""
import types

import isinglasso

EXPORTED = {
    "ConvergenceError",
    "CouplingScheme",
    "CovarianceReport",
    "ExactMoments",
    "ExperimentConfig",
    "GraphEstimate",
    "LassoSolution",
    "NoiseVector",
    "RRConstants",
    "RescaledParams",
    "SampleMatrix",
    "SamplerConfig",
    "SignedGraph",
    "SignedNeighborhood",
    "SingularMatrixError",
    "SolverConfig",
    "SweepResult",
    "ThresholdReport",
    "WitnessCertificate",
    "assign_couplings",
    "bethe_inverse_covariance",
    "check_conditions",
    "compare_solvers",
    "compute_noise_vector",
    "construct_witness",
    "crossing_half",
    "enumerate_z_statistics",
    "exact_enumerate",
    "extract_signed_neighborhood",
    "generate_bethe_tree",
    "generate_grid_periodic",
    "generate_random_regular",
    "generate_random_tree",
    "generate_star",
    "gibbs_sample",
    "lambda_from_kappa",
    "recover_graph",
    "rescaled_theta",
    "rr_constants",
    "run_sweep",
    "run_trial",
    "sample_covariance",
    "solve_lasso",
    "solve_logistic_l1",
    "support_conditions",
    "sweep_to_csv",
    "theorem_thresholds",
    "tree_covariance",
    "tree_moments",
}


def test_exported_names_are_pinned():
    names = {
        name
        for name in dir(isinglasso)
        if not name.startswith("_")
        and not isinstance(getattr(isinglasso, name), types.ModuleType)
    }
    assert names == EXPORTED, (
        f"added: {sorted(names - EXPORTED)}, removed: {sorted(EXPORTED - names)}"
    )
