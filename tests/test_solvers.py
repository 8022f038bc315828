import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isinglasso.graphs import CouplingScheme, assign_couplings, generate_bethe_tree
from isinglasso.sampler import SampleMatrix, SamplerConfig, gibbs_sample, node_moments
from isinglasso.solvers import (
    ConvergenceError,
    NeighborhoodProblem,
    SolverConfig,
    _logistic_grad,
    extract_signed_neighborhood,
    lambda_from_kappa,
    lasso_cd_gram,
    predictor_vertices,
    recover_graph,
    solution_to_json,
    solve_lasso,
    solve_lasso_restricted,
    solve_logistic_l1,
    solve_logistic_l1_batch,
)
from oracles import brute_force_lasso_objective, logistic_grad_oracle, logistic_l1_oracle


def random_spin_problem(rng, p, n, lam, r=0):
    data = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, p))
    samples = SampleMatrix(data)
    return NeighborhoodProblem(response_index=r, samples=samples, lam=lam)


def gram_of(problem):
    x = problem.samples.as_float()
    y = x[:, problem.response_index]
    xs = np.delete(x, problem.response_index, axis=1)
    n = problem.samples.n
    return (xs.T @ xs) / n, (xs.T @ y) / n


class TestLassoBasics:
    def test_kill_condition(self):
        rng = np.random.default_rng(0)
        problem = random_spin_problem(rng, 5, 30, lam=0.0)
        _, linear = gram_of(problem)
        lam = float(np.abs(linear).max())
        sol = solve_lasso(NeighborhoodProblem(0, problem.samples, lam))
        assert np.array_equal(sol.coefficients, np.zeros(4))
        assert sol.kkt_residual <= 1e-8

    def test_perfectly_correlated_pair(self):
        samples = SampleMatrix(np.array([[1, 1], [-1, -1]], dtype=np.int8))
        sol = solve_lasso(NeighborhoodProblem(0, samples, 0.1))
        assert abs(sol.coefficients[0] - 0.9) < 1e-12

    def test_objective_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = int(rng.integers(4, 8))
            n = int(rng.integers(10, 51))
            problem = random_spin_problem(rng, p, n, lam=0.0)
            gram, linear = gram_of(problem)
            for lam in (0.01, 0.1, 0.5):
                sol = lasso_cd_gram(gram, linear, lam)
                oracle = brute_force_lasso_objective(gram, linear, lam)
                assert abs(sol.objective - oracle) < 1e-6
                assert sol.kkt_residual <= 1e-8

    def test_kkt_completeness(self):
        rng = np.random.default_rng(6)
        for lam in (0.01, 0.1, 0.5):
            problem = random_spin_problem(rng, 7, 40, lam)
            gram, linear = gram_of(problem)
            sol = lasso_cd_gram(gram, linear, lam)
            grad = gram @ sol.coefficients - linear
            for j, theta_j in enumerate(sol.coefficients):
                if theta_j != 0.0:
                    assert abs(grad[j] + lam * np.sign(theta_j)) <= 1e-8
                    assert sol.subgradient[j] == np.sign(theta_j)
                else:
                    assert abs(grad[j]) <= lam + 1e-8
                    assert abs(sol.subgradient[j]) <= 1.0 + 1e-6

    def test_objective_monotone_per_cycle(self):
        rng = np.random.default_rng(7)
        problem = random_spin_problem(rng, 8, 30, 0.05)
        gram, linear = gram_of(problem)
        sol = lasso_cd_gram(gram, linear, 0.05, config=SolverConfig(track_objective=True))
        hist = sol.objective_history
        assert len(hist) == sol.iterations
        for earlier, later in zip(hist, hist[1:]):
            assert later <= earlier + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        problem = random_spin_problem(rng, 7, 35, 0.08)
        gram, linear = gram_of(problem)
        cfg = SolverConfig(tol=1e-13)
        sol = lasso_cd_gram(gram, linear, 0.08, config=cfg)
        perm = rng.permutation(6)
        sol_p = lasso_cd_gram(gram[np.ix_(perm, perm)], linear[perm], 0.08, config=cfg)
        assert np.abs(sol_p.coefficients - sol.coefficients[perm]).max() < 1e-10

    def test_warm_start_uniqueness(self):
        # strict dual feasibility + positive definite active block imply a
        # unique optimum: warm starts must all land on the same point
        rng = np.random.default_rng(9)
        problem = random_spin_problem(rng, 6, 40, 0.15)
        gram, linear = gram_of(problem)
        sol = lasso_cd_gram(gram, linear, 0.15)
        inactive = sol.coefficients == 0.0
        assert np.abs(sol.subgradient[inactive]).max() < 1 - 1e-6
        for _ in range(10):
            warm = rng.normal(scale=0.5, size=5)
            sol_w = lasso_cd_gram(gram, linear, 0.15, warm_start=warm)
            assert np.abs(sol_w.coefficients - sol.coefficients).max() < 1e-8

    def test_lambda_zero_rank_deficient_flagged(self):
        samples = SampleMatrix(np.array([[1, -1, 1, 1]], dtype=np.int8))
        sol = solve_lasso(NeighborhoodProblem(0, samples, 0.0))
        assert sol.maybe_nonunique
        assert sol.kkt_residual <= 1e-8

    def test_negative_lambda_rejected(self):
        samples = SampleMatrix(np.array([[1, -1], [1, 1]], dtype=np.int8))
        with pytest.raises(ValueError):
            NeighborhoodProblem(0, samples, -0.1)

    def test_nonconvergence_carries_residual(self):
        rng = np.random.default_rng(10)
        problem = random_spin_problem(rng, 7, 40, 0.01)
        gram, linear = gram_of(problem)
        with pytest.raises(ConvergenceError) as err:
            lasso_cd_gram(gram, linear, 0.01, config=SolverConfig(max_iters=1, tol=1e-14))
        assert err.value.kkt_residual > 0


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)

    def test_bad_max_iters_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 6),
    n=st.integers(3, 40),
    lam=st.floats(0.02, 0.3),
    warm=st.booleans(),
)
def test_working_set_cd_matches_brute_force(seed, m, n, lam, warm):
    """Working-set CD on a random support of a random spin Gram reaches the
    brute-force minimum of the support block, with pinned coordinates at 0."""
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array([-1.0, 1.0]), size=(n, m + 1))
    gram, linear = (x[:, 1:].T @ x[:, 1:]) / n, (x[:, 1:].T @ x[:, 0]) / n
    support = np.flatnonzero(rng.random(m) < 0.6)
    if support.size == 0:
        support = np.array([int(rng.integers(m))])
    warm_start = rng.normal(scale=0.5, size=m) if warm else None
    cfg = SolverConfig(tol=1e-12)
    sol = lasso_cd_gram(gram, linear, lam, support=support, config=cfg, warm_start=warm_start)
    oracle = brute_force_lasso_objective(gram[np.ix_(support, support)], linear[support], lam)
    assert abs(sol.objective - oracle) <= 1e-10
    assert sol.kkt_residual <= cfg.tol
    pinned = np.setdiff1d(np.arange(m), support)
    assert np.all(sol.coefficients[pinned] == 0.0)


class TestWorkingSet:
    def test_coordinate_joins_after_first_pass(self):
        # |b_2| <= lambda keeps coordinate 2 out of the starting set; after
        # theta_1 = 0.9 its gradient is -0.81, so the confirm step adds it
        gram = np.array([[1.0, -0.9], [-0.9, 1.0]])
        linear = np.array([1.0, 0.0])
        sol = lasso_cd_gram(gram, linear, 0.1)
        assert np.all(sol.coefficients > 0)
        assert sol.kkt_residual <= SolverConfig().tol
        # stationarity with both signs +: theta = (81/19, 71/19)
        assert np.abs(sol.coefficients - np.array([81 / 19, 71 / 19])).max() < 1e-6
        assert abs(sol.objective - brute_force_lasso_objective(gram, linear, 0.1)) < 1e-10

    def test_solve_lasso_equals_reduced_problem(self):
        rng = np.random.default_rng(15)
        samples = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(60, 7)))
        for lam in (0.02, 0.1, 0.3):
            for r in range(samples.p):
                sol = solve_lasso(NeighborhoodProblem(r, samples, lam))
                ref = lasso_cd_gram(*node_moments(samples.second_moment(), r), lam)
                assert np.abs(sol.coefficients - ref.coefficients).max() <= 1e-12
                assert np.array_equal(np.sign(sol.coefficients), np.sign(ref.coefficients))
                assert np.abs(sol.subgradient - ref.subgradient).max() <= 1e-12


def test_logistic_grad_matches_expit_form():
    rng = np.random.default_rng(25)
    for _ in range(20):
        n, p = int(rng.integers(5, 60)), int(rng.integers(2, 9))
        x = rng.choice(np.array([-1.0, 1.0]), size=(n, p))
        nodes = np.flatnonzero(rng.random(p) < 0.6)
        if nodes.size == 0:
            nodes = np.array([0])
        y = x[:, nodes].astype(np.int8)
        theta = rng.normal(scale=rng.choice([0.1, 1.0, 5.0]), size=(p, nodes.size))
        pinned = (nodes, np.arange(nodes.size))
        theta[pinned] = 0.0
        grad = _logistic_grad(x, y, theta, pinned)
        assert np.abs(grad - logistic_grad_oracle(x, y, theta, pinned)).max() <= 1e-14


class TestRestricted:
    def test_full_support_equals_unrestricted(self):
        rng = np.random.default_rng(11)
        problem = random_spin_problem(rng, 6, 30, 0.05, r=2)
        full = solve_lasso(problem)
        restricted = solve_lasso_restricted(problem, [v for v in range(6) if v != 2])
        assert np.abs(full.coefficients - restricted.coefficients).max() < 1e-9

    def test_empty_support_rejected(self):
        rng = np.random.default_rng(12)
        problem = random_spin_problem(rng, 5, 20, 0.05)
        with pytest.raises(ValueError):
            solve_lasso_restricted(problem, [])

    def test_pinned_coordinates_stay_zero(self):
        rng = np.random.default_rng(13)
        problem = random_spin_problem(rng, 6, 30, 0.01, r=0)
        sol = solve_lasso_restricted(problem, [1, 3])
        verts = predictor_vertices(6, 0).tolist()
        for v, coef in zip(verts, sol.coefficients):
            if v not in (1, 3):
                assert coef == 0.0

    def test_support_with_response_rejected(self):
        rng = np.random.default_rng(14)
        problem = random_spin_problem(rng, 5, 20, 0.05, r=1)
        with pytest.raises(ValueError):
            solve_lasso_restricted(problem, [1, 2])


class TestLogistic:
    def test_kill_condition(self):
        rng = np.random.default_rng(20)
        problem = random_spin_problem(rng, 5, 30, 0.0)
        _, linear = gram_of(problem)
        lam = float(np.abs(linear).max()) + 0.01
        sol = solve_logistic_l1(NeighborhoodProblem(0, problem.samples, lam))
        assert np.array_equal(sol.coefficients, np.zeros(4))

    def test_separable_without_penalty_raises(self):
        samples = SampleMatrix(np.array([[1, 1], [-1, -1]], dtype=np.int8))
        with pytest.raises(ConvergenceError, match="separable"):
            solve_logistic_l1(NeighborhoodProblem(0, samples, 0.0))

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(21)
        problem = random_spin_problem(rng, 6, 40, 0.1)
        sol = solve_logistic_l1(problem)
        assert sol.kkt_residual < 1e-6

    def test_subgradient_contract(self):
        rng = np.random.default_rng(22)
        problem = random_spin_problem(rng, 6, 40, 0.08)
        sol = solve_logistic_l1(problem)
        active = sol.coefficients != 0.0
        assert np.array_equal(sol.subgradient[active], np.sign(sol.coefficients[active]))
        assert np.abs(sol.subgradient[~active]).max() <= 1 + 1e-6

    def test_recovers_coupling_scale(self):
        # logistic regression estimates the raw couplings, so on a tree
        # neighborhood the coefficients approach the true +/-0.4
        g = assign_couplings(generate_bethe_tree(8, 3), CouplingScheme.mixed(0.4), seed=1)
        samples = gibbs_sample(g, 6000, SamplerConfig(burn_in_sweeps=300, thinning_sweeps=2, seed=2))
        sol = solve_logistic_l1(NeighborhoodProblem(0, samples, 0.06))
        hood = extract_signed_neighborhood(sol, 0)
        truth = {t: (1 if g.coupling(0, t) > 0 else -1) for t in g.neighbors[0]}
        assert hood.signs == truth
        for t in g.neighbors[0]:
            j = t - 1 if t > 0 else t
            assert abs(abs(sol.coefficients[j]) - 0.4) < 0.15


    def test_matches_lbfgsb_oracle(self):
        # Tolerances, for F = f + lam l1_norm with f the mean log-loss. f's
        # Hessian (1/n) sum_i x_i x_i^T / cosh^2(u_i) lies between Q / cosh^2(B)
        # and Q (Q the predictor Gram) wherever every |u_i| <= l1_norm(theta) <= B.
        # 1. Kernel: KKT residual <= tol gives a subgradient v_k of F at
        #    theta_k with sup-norm <= tol.
        # 2. Oracle: with ftol = 0 it stops only on its projected gradient,
        #    |min(value, gradient)| <= gtol on every split coordinate. Zeroing
        #    the split halves whose gradient exceeds gtol (their values are
        #    <= gtol) moves theta_o by <= gtol per entry, to theta_b, and the
        #    gradient by <= lam_max(Q) sqrt(m) gtol per entry, so theta_b has
        #    a subgradient v_o with sup-norm <= eps_o = gtol (1 + sqrt(m) lam_max(Q)).
        # 3. Coefficients: monotonicity of the subdifferential gives
        #    mu |theta_k - theta_b|^2 <= (v_k - v_o).(theta_k - theta_b), with
        #    mu = lam_min(Q) / cosh^2(B) and B = max(l1(theta_k), l1(theta_o)) + m gtol
        #    covering the segment, so
        #    max|theta_k - theta_o| <= sqrt(m) (tol + eps_o) / mu + gtol.
        # 4. Objective: F(theta_o) >= F*, and by convexity F(theta_k) - F* <=
        #    v_k.(theta_k - theta*) <= tol (l1(theta_k) + l1(theta*)), where
        #    lam l1(theta*) <= F(0) = log 2. The oracle's gtol drops out here.
        gtol, tol = 1e-8, 1e-10
        rng = np.random.default_rng(24)
        for _ in range(12):
            p = int(rng.integers(3, 7))
            n = int(rng.integers(30, 100))
            lam = float(rng.choice([0.02, 0.05, 0.1]))
            problem = random_spin_problem(rng, p, n, lam, r=int(rng.integers(p)))
            gram, _ = gram_of(problem)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs[0] > 0
            x = problem.samples.as_float()
            r = problem.response_index
            theta_o, obj_o = logistic_l1_oracle(np.delete(x, r, axis=1) * x[:, r, None], lam, gtol)
            sol = solve_logistic_l1(problem, SolverConfig(tol=tol))
            theta_k = sol.coefficients
            m = p - 1
            l1_k = float(np.abs(theta_k).sum())
            assert sol.objective <= obj_o + tol * (l1_k + math.log(2.0) / lam)
            eps_o = gtol * (1.0 + math.sqrt(m) * eigs[-1])
            bound = max(l1_k, float(np.abs(theta_o).sum())) + m * gtol
            mu = eigs[0] / math.cosh(bound) ** 2
            assert np.abs(theta_k - theta_o).max() <= math.sqrt(m) * (tol + eps_o) / mu + gtol


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 6),
    n=st.integers(4, 40),
    lam=st.floats(0.02, 0.5),
)
def test_logistic_batch_independent_of_company(seed, p, n, lam):
    """A node's supports and KKT residual do not depend on which other
    nodes share its batch."""
    rng = np.random.default_rng(seed)
    samples = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, p)))
    cfg = SolverConfig(tol=1e-9)
    r = int(rng.integers(p))
    company = [v for v in range(p) if v != r and rng.random() < 0.5]
    batch = sorted(company + [r])
    alone, errors_alone = solve_logistic_l1_batch(samples, [r], lam, cfg)
    shared, errors_shared = solve_logistic_l1_batch(samples, batch, lam, cfg)
    assert not errors_alone and not errors_shared
    assert alone[r].kkt_residual <= cfg.tol and shared[r].kkt_residual <= cfg.tol
    assert extract_signed_neighborhood(alone[r], r) == extract_signed_neighborhood(shared[r], r)


class TestNeighborhoodExtraction:
    def _solution(self, coefs, lam=0.1):
        coefs = np.asarray(coefs, dtype=float)
        return type("S", (), {"coefficients": coefs})()

    def test_signs_mapped_to_vertices(self):
        sol = self._solution([0.3, -0.2, 0.0])
        hood = extract_signed_neighborhood(sol, 0)
        assert hood.signs == {1: 1, 2: -1}

    def test_tiny_magnitude_excluded(self):
        sol = self._solution([1e-12, 0.5, 0.0])
        hood = extract_signed_neighborhood(sol, 0)
        assert hood.signs == {2: 1}

    def test_all_zero(self):
        sol = self._solution([0.0, 0.0])
        assert extract_signed_neighborhood(sol, 1).signs == {}

    def test_response_vertex_skipped(self):
        sol = self._solution([0.4, 0.4])
        hood = extract_signed_neighborhood(sol, 1)
        assert set(hood.signs) == {0, 2}


class TestRecoverGraph:
    def test_exact_recovery_fixture(self):
        g = assign_couplings(generate_bethe_tree(10, 3), CouplingScheme.mixed(0.4), seed=4)
        samples = gibbs_sample(g, 6000, SamplerConfig(burn_in_sweeps=300, thinning_sweeps=2, seed=9))
        estimate = recover_graph(samples, lam=0.05, solver="lasso")
        assert estimate.matches_graph(g)
        truth = {e: (1 if j > 0 else -1) for e, j in g.couplings.items()}
        assert estimate.edges == truth

    def test_single_sample_no_crash(self):
        samples = SampleMatrix(np.array([[1, -1, 1, 1, -1]], dtype=np.int8))
        estimate = recover_graph(samples, lam=0.1, solver="lasso")
        assert set(estimate.neighborhoods) == set(range(5))

    def test_huge_lambda_empty_graph(self):
        rng = np.random.default_rng(30)
        samples = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(50, 6)))
        estimate = recover_graph(samples, lam=10.0, solver="lasso")
        assert estimate.edges == {}
        assert all(h.signs == {} for h in estimate.neighborhoods.values())

    def test_lambda_rule_exclusive(self):
        samples = SampleMatrix(np.array([[1, -1], [-1, 1]], dtype=np.int8))
        with pytest.raises(ValueError):
            recover_graph(samples)
        with pytest.raises(ValueError):
            recover_graph(samples, lam=0.1, kappa=1.0)

    def test_kappa_rule(self):
        samples = SampleMatrix(np.random.default_rng(1).choice(
            np.array([-1, 1], dtype=np.int8), size=(30, 5)))
        estimate = recover_graph(samples, kappa=2.0, solver="lasso")
        assert abs(estimate.lam - 2.0 * math.sqrt(math.log(5) / 30)) < 1e-15

    def test_node_failures_recorded(self):
        # a single sample is separable, so logistic at lambda ~ 0 diverges
        samples = SampleMatrix(np.array([[1, -1, 1]], dtype=np.int8))
        estimate = recover_graph(samples, lam=0.0, solver="logistic")
        assert set(estimate.node_errors) == {0, 1, 2}
        assert not estimate.matches_graph(
            assign_couplings(generate_bethe_tree(3, 2), CouplingScheme.uniform(0.4), seed=0)
        )

    def test_unknown_solver_rejected(self):
        samples = SampleMatrix(np.array([[1, -1], [-1, 1]], dtype=np.int8))
        with pytest.raises(ValueError, match="unknown solver"):
            recover_graph(samples, lam=0.1, solver="ridge")

    def test_lasso_matches_per_node_solves(self):
        g = assign_couplings(generate_bethe_tree(8, 3), CouplingScheme.mixed(0.4), seed=2)
        samples = gibbs_sample(g, 800, SamplerConfig(burn_in_sweeps=200, thinning_sweeps=1, seed=3))
        estimate = recover_graph(samples, lam=0.08, solver="lasso")
        for r in range(g.p):
            fresh = SampleMatrix(samples.data)  # no cached second moment
            sol = solve_lasso(NeighborhoodProblem(r, fresh, 0.08))
            assert estimate.neighborhoods[r] == extract_signed_neighborhood(sol, r)


    def test_logistic_matches_per_node_solves(self):
        g = assign_couplings(generate_bethe_tree(8, 3), CouplingScheme.mixed(0.4), seed=2)
        samples = gibbs_sample(g, 800, SamplerConfig(burn_in_sweeps=200, thinning_sweeps=1, seed=3))
        estimate = recover_graph(samples, lam=0.08, solver="logistic")
        assert not estimate.node_errors
        for r in range(g.p):
            fresh = SampleMatrix(samples.data)  # no cached second moment
            sol = solve_logistic_l1(NeighborhoodProblem(r, fresh, 0.08))
            assert estimate.neighborhoods[r] == extract_signed_neighborhood(sol, r)


class TestSharedGram:
    def test_node_slice_equals_design_gram(self):
        rng = np.random.default_rng(50)
        samples = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(97, 7)))
        for r in range(samples.p):
            gram, linear = gram_of(NeighborhoodProblem(r, samples, 0.1))
            q, b = node_moments(samples.second_moment(), r)
            assert np.array_equal(q, gram)
            assert np.array_equal(b, linear)


class TestSerialization:
    def test_solution_json(self):
        rng = np.random.default_rng(40)
        problem = random_spin_problem(rng, 5, 25, 0.1, r=3)
        sol = solve_lasso(problem)
        obj = json.loads(solution_to_json(sol, 3))
        assert obj["r"] == 3
        assert obj["lambda"] == 0.1
        assert len(obj["coefficients"]) == 4
        assert len(obj["subgradient"]) == 4
        assert obj["kkt_residual"] <= 1e-8
        assert obj["iterations"] == sol.iterations


class TestLambdaRule:
    def test_formula(self):
        assert abs(lambda_from_kappa(2.0, 100, 32) - 2.0 * math.sqrt(math.log(32) / 100)) < 1e-15
