import dataclasses
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isinglasso import solvers
from isinglasso.bethe import RescaledParams, theorem_thresholds
from isinglasso.graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    generate_bethe_tree,
    generate_random_regular,
)
from isinglasso.sampler import SampleMatrix, SamplerConfig, gibbs_sample
from isinglasso.solvers import (
    ConvergenceError,
    SolverConfig,
    _kkt_residual,
    _logistic_grad,
    _padded_sets,
    _pattern_groups,
    _soft_threshold,
    _work_residual,
    _working_grad,
    extract_signed_neighborhood,
    lambda_from_kappa,
    lasso_cd_gram,
    recover_graph,
    solution_to_json,
    solve_lasso,
    solve_logistic_l1,
    solve_logistic_l1_batch,
)
from isinglasso.witness import construct_witness
from oracles import (
    brute_force_lasso_objective,
    finalize_reference,
    logistic_fista_reference,
    logistic_grad_oracle,
    logistic_l1_oracle,
    logistic_objective_oracle,
    node_moments,
)


def random_samples(rng, p, n):
    return SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, p)))


def gram_of(samples, r):
    x = samples.as_float()
    xs = np.delete(x, r, axis=1)
    return (xs.T @ xs) / samples.n, (xs.T @ x[:, r]) / samples.n


class TestLassoBasics:
    def test_kill_condition(self):
        rng = np.random.default_rng(0)
        samples = random_samples(rng, 5, 30)
        _, linear = gram_of(samples, 0)
        lam = float(np.abs(linear).max())
        sol = solve_lasso(samples, 0, lam)
        assert np.array_equal(sol.coefficients, np.zeros(4))
        assert sol.kkt_residual <= 1e-8

    def test_perfectly_correlated_pair(self):
        samples = SampleMatrix(np.array([[1, 1], [-1, -1]], dtype=np.int8))
        sol = solve_lasso(samples, 0, 0.1)
        assert abs(sol.coefficients[0] - 0.9) < 1e-12

    def test_objective_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = int(rng.integers(4, 8))
            n = int(rng.integers(10, 51))
            gram, linear = gram_of(random_samples(rng, p, n), 0)
            for lam in (0.01, 0.1, 0.5):
                sol = lasso_cd_gram(gram, linear, lam)
                oracle = brute_force_lasso_objective(gram, linear, lam)
                assert abs(sol.objective - oracle) < 1e-6
                assert sol.kkt_residual <= 1e-8

    def test_kkt_completeness(self):
        rng = np.random.default_rng(6)
        for lam in (0.01, 0.1, 0.5):
            gram, linear = gram_of(random_samples(rng, 7, 40), 0)
            sol = lasso_cd_gram(gram, linear, lam)
            grad = gram @ sol.coefficients - linear
            for j, theta_j in enumerate(sol.coefficients):
                if theta_j != 0.0:
                    assert abs(grad[j] + lam * np.sign(theta_j)) <= 1e-8
                    assert sol.subgradient[j] == np.sign(theta_j)
                else:
                    assert abs(grad[j]) <= lam + 1e-8
                    assert abs(sol.subgradient[j]) <= 1.0 + 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        gram, linear = gram_of(random_samples(rng, 7, 35), 0)
        cfg = SolverConfig(tol=1e-13)
        sol = lasso_cd_gram(gram, linear, 0.08, config=cfg)
        perm = rng.permutation(6)
        sol_p = lasso_cd_gram(gram[np.ix_(perm, perm)], linear[perm], 0.08, config=cfg)
        assert np.abs(sol_p.coefficients - sol.coefficients[perm]).max() < 1e-10

    def test_lambda_zero_rank_deficient_flagged(self):
        samples = SampleMatrix(np.array([[1, -1, 1, 1]], dtype=np.int8))
        sol = solve_lasso(samples, 0, 0.0)
        assert sol.kkt_residual <= 1e-8

    def test_negative_lambda_rejected(self):
        samples = SampleMatrix(np.array([[1, -1], [1, 1]], dtype=np.int8))
        with pytest.raises(ValueError, match="lambda"):
            solve_lasso(samples, 0, -0.1)

    def test_nonconvergence_carries_residual(self, monkeypatch):
        rng = np.random.default_rng(10)
        gram, linear = gram_of(random_samples(rng, 7, 40), 0)
        monkeypatch.setattr(solvers, "_MAX_ITERS", 1)
        with pytest.raises(ConvergenceError) as err:
            lasso_cd_gram(gram, linear, 0.01, config=SolverConfig(tol=1e-14))
        assert err.value.kkt_residual > 0


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, True, "1e-6", None])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)

    def test_tol_is_the_only_setting(self):
        """The iteration cap is the module constant _MAX_ITERS, which no
        caller sets."""
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol"]
        with pytest.raises(TypeError):
            SolverConfig(max_iters=2.5)


@pytest.mark.parametrize("solve", [solve_lasso, solve_logistic_l1])
class TestNodeCheck:
    """Both per-node calls check their arguments at entry; r = -1 would
    otherwise wrap round to the last spin."""

    @pytest.mark.parametrize("r", [-1, 4])
    def test_node_out_of_range_rejected(self, solve, r):
        samples = random_samples(np.random.default_rng(16), 4, 20)
        with pytest.raises(ValueError, match=f"node {r} out of range for p = 4"):
            solve(samples, r, 0.1)

    @pytest.mark.parametrize("r", [1.5, True])
    def test_non_integer_node_rejected(self, solve, r):
        """A fraction or a bool is refused at entry, not an IndexError
        deep in numpy."""
        samples = random_samples(np.random.default_rng(16), 5, 30)
        with pytest.raises(ValueError, match="node must be an integer"):
            solve(samples, r, 0.1)

    def test_negative_lambda_rejected(self, solve):
        samples = random_samples(np.random.default_rng(17), 4, 20)
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            solve(samples, 1, -0.1)


@pytest.mark.parametrize("solver", ["lasso", "logistic"])
def test_one_spin_refused(solver):
    """Below two spins a node has nothing to regress on, and both solvers
    refuse the samples alike, also through recover_graph: there kappa = 2
    gives lambda = kappa sqrt(log 1 / n) = 0, where the logistic solver
    would start its separability check on an empty design. Samples and
    chains of one spin stay legal."""
    samples = gibbs_sample(SignedGraph(p=1, edges=()), 5, SamplerConfig(seed=0))
    assert samples.p == 1
    solve = solve_lasso if solver == "lasso" else solve_logistic_l1
    for call in (lambda: solve(samples, 0, 0.1),
                 lambda: recover_graph(samples, kappa=2.0, solver=solver)):
        with pytest.raises(ValueError, match="at least two spins, got p = 1"):
            call()


def _penalty_entries():
    samples = random_samples(np.random.default_rng(19), 4, 20)
    tree = assign_couplings(generate_bethe_tree(7, 3), CouplingScheme.mixed(0.4), seed=1)
    gram, linear = gram_of(samples, 0)
    return {
        "lasso_cd_gram": lambda lam: lasso_cd_gram(gram, linear, lam),
        "solve_logistic_l1_batch": lambda lam: solve_logistic_l1_batch(samples, range(4), lam),
        "construct_witness": lambda lam: construct_witness(
            samples, 0, [1, 2], RescaledParams(matrix=np.zeros((4, 4))), lam),
        "theorem_thresholds": lambda lam: theorem_thresholds(tree, lam),
    }


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, True, "0.1"])
@pytest.mark.parametrize("entry", sorted(_penalty_entries()))
def test_penalty_must_be_a_finite_number(entry, lam):
    """Every entry that takes a penalty applies the number rule before its
    sign test: NaN passes every comparison, so it gave an empty graph or
    a NaN residual, True counted as 1 and a string raised TypeError."""
    with pytest.raises(ValueError, match="lambda must be a finite number"):
        _penalty_entries()[entry](lam)


@pytest.mark.parametrize("r", [-1, 5])
def test_batch_node_out_of_range_rejected(r):
    """The logistic batch checks every node it is given, not only the one
    node solve_logistic_l1 passes it."""
    samples = random_samples(np.random.default_rng(18), 5, 20)
    with pytest.raises(ValueError, match=f"node {r} out of range for p = 5"):
        solve_logistic_l1_batch(samples, [0, r], 0.1)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 6),
    n=st.integers(3, 40),
    lam=st.floats(0.02, 0.3),
)
def test_working_set_cd_matches_brute_force(seed, m, n, lam):
    """Working-set CD on a random support of a random spin Gram reaches the
    brute-force minimum of the support block, with pinned coordinates at 0."""
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array([-1.0, 1.0]), size=(n, m + 1))
    gram, linear = (x[:, 1:].T @ x[:, 1:]) / n, (x[:, 1:].T @ x[:, 0]) / n
    support = np.flatnonzero(rng.random(m) < 0.6)
    if support.size == 0:
        support = np.array([int(rng.integers(m))])
    cfg = SolverConfig(tol=1e-12)
    sol = lasso_cd_gram(gram, linear, lam, support=support, config=cfg)
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
                sol = solve_lasso(samples, r, lam)
                ref = lasso_cd_gram(*node_moments(samples.second_moment(), r), lam)
                assert np.abs(sol.coefficients - ref.coefficients).max() <= 1e-12
                assert np.array_equal(np.sign(sol.coefficients), np.sign(ref.coefficients))
                assert np.abs(sol.subgradient - ref.subgradient).max() <= 1e-12


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 10), lam=st.floats(0.0, 1.0))
def test_work_residual_equals_kkt_residual(data, m, lam):
    """The Lasso's per-cycle working-set residual, taken in Python floats,
    equals _kkt_residual over the same indices exactly, with coefficients
    at +0 and -0 and gradients exactly at +-lambda among the draws."""
    values = st.floats(-2.0, 2.0)
    theta = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), values), min_size=m, max_size=m)))
    grad = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([lam, -lam, 0.0, -0.0]), values), min_size=m, max_size=m)))
    work = data.draw(st.lists(st.integers(0, m - 1), unique=True))
    got = _work_residual(theta[work].tolist(), grad[work].tolist(), lam)
    assert isinstance(got, float)
    assert got == _kkt_residual(theta, grad, lam, np.array(work, dtype=np.int64))


def assert_same_solution(got, want):
    """Every LassoSolution field equal bit for bit."""
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.subgradient.tobytes() == want.subgradient.tobytes()
    assert got.kkt_residual == want.kkt_residual
    assert got.iterations == want.iterations
    assert got.objective == want.objective
    assert got.lam == want.lam


def numpy_update_reference(gram, linear, lam, support=None, config=None):
    """lasso_cd_gram's algorithm with each coordinate update made by numpy
    on the whole gradient, grad += G[j] * delta, and the set's residual
    by _kkt_residual: the form the Python-float cycles replace. The
    objective is read from the confirming gradient by the kernel's
    formula, 0.5 theta . (grad - b) + 0.5."""
    tol = (config or SolverConfig()).tol
    m = gram.shape[0]
    support_idx = np.arange(m) if support is None else np.asarray(support, dtype=np.int64)
    theta = np.zeros(m)
    grad = -linear
    work = support_idx[np.abs(grad[support_idx]) > lam].tolist()
    for iterations in range(1, solvers._MAX_ITERS + 1):
        max_delta = 0.0
        for j in work:
            old = theta[j]
            z = old - grad[j]
            new = z - lam if z > lam else (z + lam if z < -lam else 0.0)
            delta = new - old
            if delta != 0.0:
                grad += gram[j] * delta
                theta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta == 0.0 or _kkt_residual(theta, grad, lam, np.array(work, dtype=np.int64)) <= tol:
            grad = gram @ theta - linear
            kkt = _kkt_residual(theta, grad, lam, support_idx)
            if kkt <= tol:
                break
            grown = np.union1d(work, support_idx[np.abs(grad[support_idx]) > lam])
            if max_delta == 0.0 and grown.size == len(work):
                break
            work = grown.tolist()
    else:
        raise AssertionError("reference did not converge")
    loss = 0.5 * float(theta @ (grad - linear)) + 0.5  # from its confirming gradient
    return solvers._finalize(theta, grad, loss, lam, iterations, kkt)


def random_spin_gram(seed, m, n):
    """The Gram form of one spin's regression on m others over n random
    +-1 samples; n < m makes the Gram singular."""
    x = np.random.default_rng(seed).choice(np.array([-1.0, 1.0]), size=(n, m + 1))
    return (x[:, 1:].T @ x[:, 1:]) / n, (x[:, 1:].T @ x[:, 0]) / n


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    n=st.integers(2, 80),
    lam=st.floats(0.005, 0.6),
    share=st.floats(0.2, 1.0),
    tol=st.sampled_from([1e-8, 1e-10]),
)
def test_float_cycles_match_numpy_updates(seed, m, n, lam, share, tol):
    """A working set cycled in Python floats on its block of G gives the
    record the numpy updates of the whole gradient give, bit for bit:
    each update is the same multiply and add on the entries of W, and
    nothing reads the entries off W before the next full product. Random
    supports, narrow and wide sets; some draws cycle one set for dozens of
    cycles."""
    gram, linear = random_spin_gram(seed, m, n)
    support = np.flatnonzero(np.random.default_rng(seed + 1).random(m) < share)
    if support.size == 0:
        support = np.array([m - 1])
    cfg = SolverConfig(tol=tol)
    assert_same_solution(lasso_cd_gram(gram, linear, lam, support, cfg),
                         numpy_update_reference(gram, linear, lam, support, cfg))


def test_float_cycles_match_numpy_updates_past_refreshes():
    """A problem whose working set needs hundreds of cycles, with no full
    product G theta between them, gives the numpy updates' record bit for
    bit."""
    gram, linear = random_spin_gram(4, 13, 15)
    cfg = SolverConfig(tol=1e-10)
    got = lasso_cd_gram(gram, linear, 0.005, config=cfg)
    assert got.iterations > 250
    assert_same_solution(got, numpy_update_reference(gram, linear, 0.005, config=cfg))


def test_cap_at_convergence_returns_the_record():
    """With _MAX_ITERS at exactly the cycles a solve needs, the last cycle's
    confirmation is the one that converges, and the solve returns the
    record it returns uncapped; one cycle fewer raises ConvergenceError
    with the confirmation's residual. The problems need one working set,
    several sets, and a set of hundreds of cycles."""
    for seed, m, n, lam, tol in [(3, 6, 30, 0.05, 1e-8), (7, 20, 25, 0.02, 1e-10),
                                 (4, 13, 15, 0.005, 1e-10), (9, 30, 60, 0.01, 1e-8)]:
        gram, linear = random_spin_gram(seed, m, n)
        cfg = SolverConfig(tol=tol)
        want = lasso_cd_gram(gram, linear, lam, config=cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_MAX_ITERS", want.iterations)
            assert_same_solution(lasso_cd_gram(gram, linear, lam, config=cfg), want)
            mp.setattr(solvers, "_MAX_ITERS", want.iterations - 1)
            with pytest.raises(ConvergenceError) as err:
                lasso_cd_gram(gram, linear, lam, config=cfg)
        assert err.value.kkt_residual > tol


def test_logistic_grad_matches_expit_form():
    """The check's gradient, one row per node from that node's
    tanh(X theta) with X'y/n read from the second moment, equals the
    term-by-term expit form."""
    rng = np.random.default_rng(25)
    for _ in range(20):
        n, p = int(rng.integers(5, 60)), int(rng.integers(2, 9))
        samples = random_samples(rng, p, n)
        x = samples.as_float()
        nodes = np.flatnonzero(rng.random(p) < 0.6)
        if nodes.size == 0:
            nodes = np.array([0])
        y = x[:, nodes].astype(np.int8)
        theta = rng.normal(scale=rng.choice([0.1, 1.0, 5.0]), size=(p, nodes.size))
        pinned = (nodes, np.arange(nodes.size))
        theta[pinned] = 0.0
        linear = samples.second_moment()[nodes]
        rows = (np.arange(nodes.size), nodes)
        xt = np.ascontiguousarray(x.T)
        grad = _logistic_grad(xt, np.tanh(theta.T @ xt), linear, rows)
        assert np.abs(grad.T - logistic_grad_oracle(x, y, theta, pinned)).max() <= 1e-14


class TestRestricted:
    """The witness's restricted Lasso is lasso_cd_gram on the |S| x |S|
    support block of the shared second moment, checked through
    graphs.support_vertices first; lasso_cd_gram(support=) pins the
    coordinates off a support of a full Gram matrix, as solve_lasso does."""

    @staticmethod
    def _zero_params(p):
        return RescaledParams(matrix=np.zeros((p, p)))

    def test_full_support_equals_unrestricted(self):
        rng = np.random.default_rng(11)
        samples = random_samples(rng, 6, 30)
        full = solve_lasso(samples, 2, 0.05)
        support = [v for v in range(6) if v != 2]
        cert = construct_witness(samples, 2, support, self._zero_params(6), 0.05)
        assert np.abs(full.coefficients - cert.theta_hat_s).max() < 1e-9

    def test_empty_support_rejected(self):
        rng = np.random.default_rng(12)
        samples = random_samples(rng, 5, 20)
        second = samples.second_moment()
        with pytest.raises(ValueError, match="at least one coordinate"):
            lasso_cd_gram(second, second[:, 0], 0.05, support=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="nonempty"):
            construct_witness(samples, 0, [], self._zero_params(5), 0.05)

    def test_pinned_coordinates_stay_zero(self):
        rng = np.random.default_rng(13)
        second = random_samples(rng, 6, 30).second_moment()
        sol = lasso_cd_gram(second, second[:, 0], 0.01, support=np.array([1, 3]))
        for v, coef in enumerate(sol.coefficients):
            if v not in (1, 3):
                assert coef == 0.0

    def test_support_with_response_rejected(self):
        rng = np.random.default_rng(14)
        samples = random_samples(rng, 5, 20)
        with pytest.raises(ValueError, match="regression vertex"):
            construct_witness(samples, 1, [1, 2], self._zero_params(5), 0.05)


class TestLogistic:
    def test_kill_condition(self):
        rng = np.random.default_rng(20)
        samples = random_samples(rng, 5, 30)
        _, linear = gram_of(samples, 0)
        lam = float(np.abs(linear).max()) + 0.01
        sol = solve_logistic_l1(samples, 0, lam)
        assert np.array_equal(sol.coefficients, np.zeros(4))

    def test_separable_without_penalty_raises(self):
        samples = SampleMatrix(np.array([[1, 1], [-1, -1]], dtype=np.int8))
        with pytest.raises(ConvergenceError, match="separable"):
            solve_logistic_l1(samples, 0, 0.0)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(21)
        sol = solve_logistic_l1(random_samples(rng, 6, 40), 0, 0.1)
        assert sol.kkt_residual < 1e-6

    def test_subgradient_contract(self):
        rng = np.random.default_rng(22)
        sol = solve_logistic_l1(random_samples(rng, 6, 40), 0, 0.08)
        active = sol.coefficients != 0.0
        assert np.array_equal(sol.subgradient[active], np.sign(sol.coefficients[active]))
        assert np.abs(sol.subgradient[~active]).max() <= 1 + 1e-6

    def test_recovers_coupling_scale(self):
        # logistic regression estimates the raw couplings, so on a tree
        # neighborhood the coefficients approach the true +/-0.4
        g = assign_couplings(generate_bethe_tree(8, 3), CouplingScheme.mixed(0.4), seed=1)
        samples = gibbs_sample(g, 6000, SamplerConfig(burn_in_sweeps=300, thinning_sweeps=2, seed=2))
        sol = solve_logistic_l1(samples, 0, 0.06)
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
            samples = random_samples(rng, p, n)
            r = int(rng.integers(p))
            gram, _ = gram_of(samples, r)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs[0] > 0
            x = samples.as_float()
            theta_o, obj_o = logistic_l1_oracle(np.delete(x, r, axis=1) * x[:, r, None], lam, gtol)
            sol = solve_logistic_l1(samples, r, lam, SolverConfig(tol=tol))
            theta_k = sol.coefficients
            m = p - 1
            l1_k = float(np.abs(theta_k).sum())
            assert sol.objective <= obj_o + tol * (l1_k + math.log(2.0) / lam)
            eps_o = gtol * (1.0 + math.sqrt(m) * eigs[-1])
            bound = max(l1_k, float(np.abs(theta_o).sum())) + m * gtol
            mu = eigs[0] / math.cosh(bound) ** 2
            assert np.abs(theta_k - theta_o).max() <= math.sqrt(m) * (tol + eps_o) / mu + gtol


def random_batch(seed, p, n):
    """n random samples of p spins and a random subset of nodes in random
    order."""
    rng = np.random.default_rng(seed)
    samples = random_samples(rng, p, n)
    return samples, [int(v) for v in rng.permutation(p)[: int(rng.integers(1, p + 1))]]


def company_batch(seed, p, n):
    """n random samples of p spins, a sorted batch of nodes and the node r
    in it whose company the batch is."""
    rng = np.random.default_rng(seed)
    samples = random_samples(rng, p, n)
    r = int(rng.integers(p))
    company = [v for v in range(p) if v != r and rng.random() < 0.5]
    return samples, sorted(company + [r]), r


# Examples whose batch mixes rows with 2^|W| >= n, which take the dense
# products, with pattern rows (test_mixed_examples_hold_both_row_kinds)
MIXED_COMPANY = dict(seed=0, p=6, n=6, lam=0.05)
MIXED_FISTA = dict(seed=1, p=7, n=8, lam=0.05)
MIXED_WIDE = dict(seed=0, p=10, n=9, lam=0.1)
MIXED_REPEATS = dict(seed=11, p=10, n=9, lam=0.0234375)


def dense_shifted(shift, _fn=_pattern_groups):
    """_pattern_groups with the dense crossover moved down by 2^shift: a
    row takes the products over all columns once its set has
    2^|W| >= n >> shift sign patterns (every row once n < 2^shift). The
    solver's results must not depend on where the crossover lies."""
    def groups(bits, work, widths, n):
        return _fn(bits, work, widths, max(1, n >> shift))
    return groups


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 6),
    n=st.integers(4, 40),
    lam=st.floats(0.02, 0.5),
)
@example(**MIXED_COMPANY)
def test_logistic_batch_independent_of_company(seed, p, n, lam):
    """A node's supports and KKT residual do not depend on which other
    nodes share its batch."""
    samples, batch, r = company_batch(seed, p, n)
    cfg = SolverConfig(tol=1e-9)
    alone, errors_alone = solve_logistic_l1_batch(samples, [r], lam, cfg)
    shared, errors_shared = solve_logistic_l1_batch(samples, batch, lam, cfg)
    assert not errors_alone and not errors_shared
    assert alone[r].kkt_residual <= cfg.tol and shared[r].kkt_residual <= cfg.tol
    assert alone[r].iterations == shared[r].iterations
    hood = extract_signed_neighborhood(alone[r], r)
    assert hood == extract_signed_neighborhood(shared[r], r)


def assert_matches_fista_reference(samples, nodes, lam, tol):
    """The working-set batch and logistic_fista_reference, the dense FISTA
    with one global step, reach the same minimizer node by node within what
    tol allows, and both residuals are <= tol. Iteration counts differ, as
    the steps do. Returns (solutions, reference).

    The bound, for node r with F = f + lam l1_norm, f its mean log-loss and
    Q its predictor Gram (m = p - 1 coordinates):
    1. A KKT residual <= tol gives a subgradient v of F at the iterate with
       sup-norm <= tol: v_j = g_j + lam sign(theta_j) on an active
       coordinate, v_j = g_j + lam clip(-g_j / lam, -1, 1) on an inactive one.
    2. f's Hessian (1/n) sum_i x_i x_i' sech^2(u_i) is at least Q / cosh^2(B)
       wherever every |u_i| <= l1_norm(theta) <= B, which holds on the
       segment between the two iterates for B = the larger of their l1 norms.
    3. Monotonicity of the subdifferential then gives, with
       mu = lam_min(Q) / cosh^2(B) and d = theta_batch - theta_reference,
       mu |d|^2 <= (v_batch - v_reference).d <= 2 sqrt(m) tol |d|, so
       max |d_j| <= 2 sqrt(m) tol / mu.
    4. Where a reference coefficient exceeds that bound in magnitude, the
       batch's has the same sign. A singular Q gives no bound, as the
       minimizer need not be unique; then only the residuals are checked.
    """
    solutions, errors = solve_logistic_l1_batch(samples, nodes, lam, SolverConfig(tol=tol))
    reference = logistic_fista_reference(samples, nodes, lam, tol)
    assert not errors and solutions.keys() == reference.keys() == set(nodes)
    for r, (coef, _, kkt) in reference.items():
        sol = solutions[r]
        assert sol.kkt_residual <= tol and kkt <= tol
        lam_min = np.linalg.eigvalsh(node_moments(samples.second_moment(), r)[0])[0]
        if lam_min <= 1e-9:
            continue
        big = max(float(np.abs(sol.coefficients).sum()), float(np.abs(coef).sum()))
        bound = 2.0 * math.sqrt(samples.p - 1) * tol * math.cosh(big) ** 2 / lam_min
        assert np.abs(sol.coefficients - coef).max() <= bound
        clear = np.abs(coef) > bound
        assert np.array_equal(np.sign(sol.coefficients[clear]), np.sign(coef[clear]))
    return solutions, reference


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    n=st.integers(4, 60),
    lam=st.floats(0.02, 0.5),
    tol=st.sampled_from([1e-6, 1e-9]),
)
@example(tol=1e-9, **MIXED_FISTA)
def test_logistic_batch_matches_fista_reference(seed, p, n, lam, tol):
    """On a random problem and a random subset of nodes in random order."""
    assert_matches_fista_reference(*random_batch(seed, p, n), lam, tol)


def test_logistic_batch_matches_fista_reference_rr64():
    """Every node of a p=64 rr chain, as recover_graph runs them: the same
    signed neighbourhoods and the same sign at every coordinate."""
    g = assign_couplings(generate_random_regular(64, 3, 5), CouplingScheme.mixed(0.4), seed=6)
    samples = gibbs_sample(g, 700, SamplerConfig(seed=7))
    lam = lambda_from_kappa(2.0, samples.n, samples.p)
    solutions, reference = assert_matches_fista_reference(samples, list(range(64)), lam, 1e-7)
    for r, (coef, _, _) in reference.items():
        assert np.array_equal(np.sign(solutions[r].coefficients), np.sign(coef))
        ref = SimpleNamespace(coefficients=coef)
        assert extract_signed_neighborhood(solutions[r], r) == extract_signed_neighborhood(ref, r)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 8),
    extra=st.integers(1, 200),
    lam=st.floats(0.02, 0.5),
)
def test_logistic_pattern_rows_independent_of_company(seed, p, extra, lam):
    """With n > 2^(p-1) samples every set has 2^|W| < n sign patterns, so
    every row takes the pattern path, and a node's coefficients and
    iterations are bit-identical alone and inside the batch of all nodes,
    whose rows have other widths. The residual comes from the dense check
    gradient, a BLAS product whose last bits depend on how many rows it
    holds, so it is held to tol."""
    rng = np.random.default_rng(seed)
    samples = random_samples(rng, p, 2 ** (p - 1) + extra)
    nodes = [int(v) for v in rng.permutation(p)]
    cfg = SolverConfig(tol=1e-9)
    batch, errors = solve_logistic_l1_batch(samples, nodes, lam, cfg)
    assert not errors
    for r in nodes:
        alone = solve_logistic_l1(samples, r, lam, cfg)
        assert alone.coefficients.tobytes() == batch[r].coefficients.tobytes()
        assert alone.iterations == batch[r].iterations
        assert alone.kkt_residual <= cfg.tol and batch[r].kkt_residual <= cfg.tol


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 12),
    n=st.integers(4, 80),
    lam=st.floats(0.02, 0.5),
)
@example(**MIXED_REPEATS)
@example(**MIXED_WIDE)
@pytest.mark.parametrize("shift", [0, 3])
def test_logistic_batch_independent_of_chunking(shift, seed, p, n, lam):
    """With every width group of _pattern_groups split into groups of one
    row, each with its own codes, every node's coefficients, iterations,
    residual and objective are bit-identical to those with one einsum per
    width. The examples' batches also hold rows with 2^|W| >= n, which
    take the dense products. shift = 3 moves the crossover down
    (dense_shifted): a row goes dense once 2^|W| >= n >> 3, so the random
    batches mix the two row kinds too.
    MIXED_REPEATS has n < p, columns that repeat up to sign and a small
    lambda: node 5 converges only because a node whose set is unchanged
    keeps its momentum at a check (restarted at every check, it stalls
    near residual 2e-6)."""
    samples, nodes = random_batch(seed, p, n)
    cfg = SolverConfig(tol=1e-9)
    shifted = dense_shifted(shift)

    def one_row_groups(bits, work, widths, n_samples):
        dense, groups = shifted(bits, work, widths, n_samples)
        return dense, [(a + i, a + i + 1, table, counts[i : i + 1],
                        codes[i : i + 1] - (i << table.shape[0]))
                       for a, b, table, counts, codes in groups for i in range(b - a)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_pattern_groups", shifted)
        default, errors_default = solve_logistic_l1_batch(samples, nodes, lam, cfg)
        mp.setattr(solvers, "_pattern_groups", one_row_groups)
        one_row, errors_one_row = solve_logistic_l1_batch(samples, nodes, lam, cfg)
    assert not errors_default and not errors_one_row
    for r in nodes:
        a, b = default[r], one_row[r]
        assert a.iterations == b.iterations and a.kkt_residual == b.kkt_residual
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 10),
    n=st.integers(2, 300),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_pattern_grad_matches_oracle(seed, p, n, scale):
    """The working-set gradient summed over sign patterns equals
    logistic_grad_oracle on W, for random sets of every width with 2^w < n.
    With E the machine epsilon and ||theta||_1 the row's l1 norm, each side
    is within E (p ||theta||_1 + n + 4) of the exact gradient. The forward
    sum of at most p exact terms +-theta_j errs by at most p E ||theta||_1 / 2,
    which tanh u, or 2 y expit(-2yu) in the oracle, passes on with Lipschitz
    constant 1, adding an ulp. The backward sum, over the 2^w patterns with
    counts that add up to n or over the n samples, has terms of total size
    at most n, so after the scaling by 1/n (2/n in the oracle) it errs by at
    most n E. The weights, the scaling and the subtraction of M[r, W] add an
    ulp each. So the two differ by at most E (2 p ||theta||_1 + 2 n + 8)."""
    rng = np.random.default_rng(seed)
    samples = random_samples(rng, p, n)
    x = samples.as_float()
    xt = np.ascontiguousarray(x.T)
    nodes = rng.integers(p, size=int(rng.integers(1, 2 * p + 1)))
    top = min(p - 1, (n - 1).bit_length() - 1)  # the widest set with 2^w < n
    mask = np.zeros((nodes.size, p), dtype=bool)
    for k, r in enumerate(nodes):
        others = np.delete(np.arange(p), r)
        mask[k, rng.choice(others, size=int(rng.integers(0, top + 1)), replace=False)] = True
    order = np.argsort(-mask.sum(axis=1), kind="stable")
    nodes, mask = nodes[order], mask[order]
    work, widths = _padded_sets(mask)
    dense, groups = _pattern_groups((xt > 0).view(np.uint8), work, widths, n)
    assert dense == 0
    on_set = np.arange(work.shape[1]) < widths[:, None]
    theta_w = rng.normal(scale=scale, size=work.shape) * on_set
    linear = np.zeros((nodes.size, p + 1))
    linear[:, :p] = samples.second_moment()[nodes]
    got = _working_grad(xt, dense, groups, work, theta_w, np.take_along_axis(linear, work, axis=1))
    theta = np.zeros((p + 1, nodes.size))
    theta[work.T, np.arange(nodes.size)] = theta_w.T
    pinned = (nodes, np.arange(nodes.size))
    oracle = logistic_grad_oracle(x, x[:, nodes].astype(np.int8), theta[:p], pinned)
    eps = np.finfo(float).eps
    for k, w in enumerate(widths):
        bound = eps * (2 * p * np.abs(theta_w[k]).sum() + 2 * n + 8)
        assert np.abs(got[k, :w] - oracle[work[k, :w], k]).max(initial=0.0) <= bound
        assert not got[k, w:].any()


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 12),
    n=st.integers(4, 80),
    lam=st.one_of(st.floats(0.02, 0.5), st.floats(1.01, 5.0)),
)
@example(seed=0, p=6, n=50, lam=5.0)
@example(**MIXED_WIDE)
@pytest.mark.parametrize("shift", [0, 3])
def test_logistic_objective_matches_oracle(shift, seed, p, n, lam):
    """Every record's objective, taken at its converging check as
    (1/n) sum over patterns of count log 2cosh(margin) - theta . M[r]
    + lambda l1_norm(theta), equals logistic_objective_oracle at its
    coefficients. The MIXED_WIDE example's batch has rows with 2^|W| >= n
    on the dense products beside pattern rows; shift = 3 sends every row
    with 2^|W| >= n >> 3 there (dense_shifted), so the random batches mix
    the two kinds too. With E the machine
    epsilon and l1 = l1_norm(theta): each margin errs by at most p E l1,
    which log 2cosh passes on with Lipschitz constant 1; its terms are at
    most l1 + log 2 and their count-weighted sum over at most n patterns
    errs by at most n E (l1 + 1) after the scaling by 1/n; theta . M[r] errs
    by at most p E l1, and the oracle, summed exactly, by a few ulp. So the
    two differ by at most E (2 n + 4 p + 8) (1 + l1). With lambda above every
    |M_rj| every set is empty, theta is 0 and the objective is log 2 exactly."""
    samples, nodes = random_batch(seed, p, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_pattern_groups", dense_shifted(shift))
        solutions, errors = solve_logistic_l1_batch(samples, nodes, lam, SolverConfig(tol=1e-9))
    assert not errors and solutions.keys() == set(nodes)
    x, second = samples.as_float(), samples.second_moment()
    eps = np.finfo(float).eps
    for r, sol in solutions.items():
        if lam > np.abs(np.delete(second[r], r)).max():
            assert not sol.coefficients.any() and sol.objective == math.log(2.0)
        l1 = float(np.abs(sol.coefficients).sum())
        want = logistic_objective_oracle(x, r, sol.coefficients, lam)
        assert abs(sol.objective - want) <= eps * (2 * n + 4 * p + 8) * (1.0 + l1)


@pytest.mark.parametrize("build, case", [
    (company_batch, MIXED_COMPANY), (random_batch, MIXED_FISTA),
    (random_batch, MIXED_WIDE), (random_batch, MIXED_REPEATS),
])
def test_mixed_examples_hold_both_row_kinds(monkeypatch, build, case):
    """Each example batch named MIXED_* really mixes the two row kinds: some
    call of _pattern_groups sends rows whose set has 2^|W| >= n sign
    patterns to the dense products, beside rows on the pattern tables."""
    mixed = []

    def spy(bits, work, widths, n, _fn=solvers._pattern_groups):
        dense, groups = _fn(bits, work, widths, n)
        assert np.array_equal(np.exp2(widths) >= n, np.arange(widths.size) < dense)
        mixed.append(dense > 0 and len(groups) > 0)
        return dense, groups

    monkeypatch.setattr(solvers, "_pattern_groups", spy)
    samples, nodes = build(case["seed"], case["p"], case["n"])[:2]
    solutions, errors = solve_logistic_l1_batch(samples, nodes, case["lam"], SolverConfig(tol=1e-9))
    assert not errors and solutions.keys() == set(nodes)
    assert any(mixed)


def test_divergence_guard_at_checks(monkeypatch):
    """With _MAX_COEF below the largest coefficients of a random problem at
    lambda > 0, every node whose minimizer lies above the guard leaves the
    batch with the "diverged" error and an infinite residual, and every
    node that converges does so at or below it, as the guard and the KKT
    test read the same check. A node whose working set is empty converges
    at the first check with objective exactly log 2."""
    rng = np.random.default_rng(47)
    samples = random_samples(rng, 6, 40)
    lam, cfg, cap = 0.2, SolverConfig(tol=1e-9), 0.2
    free, errors = solve_logistic_l1_batch(samples, range(6), lam, cfg)
    assert not errors
    big = {r for r, sol in free.items() if np.abs(sol.coefficients).max() > 1.01 * cap}
    empty = {r for r in range(6) if np.abs(np.delete(samples.second_moment()[r], r)).max() <= lam}
    assert big and empty and not big & empty
    monkeypatch.setattr(solvers, "_MAX_COEF", cap)
    solutions, errors = solve_logistic_l1_batch(samples, range(6), lam, cfg)
    assert solutions.keys() | errors.keys() == set(range(6))
    assert not solutions.keys() & errors.keys()
    assert big <= errors.keys()
    for err in errors.values():
        assert "diverged" in str(err) and err.kkt_residual == math.inf
    for sol in solutions.values():
        assert np.abs(sol.coefficients).max() <= cap and sol.kkt_residual <= cfg.tol
    for r in empty:
        assert not solutions[r].coefficients.any() and solutions[r].iterations == 1
        assert solutions[r].objective == math.log(2.0)


def test_logistic_iteration_cap(monkeypatch):
    """With _MAX_ITERS below the iterations one node needs, that node alone
    fails with "did not converge" and the residual of its last check,
    finite and above tol; every node that converged in the same batch
    keeps the record of the uncapped solve byte for byte, as it was built
    at its converging check."""
    samples = random_samples(np.random.default_rng(47), 6, 40)
    cfg = SolverConfig(tol=1e-9)
    free, errors = solve_logistic_l1_batch(samples, range(6), 0.2, cfg)
    assert not errors
    top = max(sol.iterations for sol in free.values())
    slow = {r for r, sol in free.items() if sol.iterations == top}
    assert len(slow) == 1
    monkeypatch.setattr(solvers, "_MAX_ITERS", top - 1)
    solutions, errors = solve_logistic_l1_batch(samples, range(6), 0.2, cfg)
    assert errors.keys() == slow and solutions.keys() == free.keys() - slow
    for err in errors.values():
        assert "did not converge" in str(err)
        assert math.isfinite(err.kkt_residual) and err.kkt_residual > cfg.tol
    for r, sol in solutions.items():
        assert_same_solution(sol, free[r])


def test_unchanged_check_rebuilds_nothing(monkeypatch):
    """A logistic check that changes no working set and sees no row leave
    calls neither _pattern_groups nor _block_steps: no call of either
    gets the sets the call before it got (a row that leaves shrinks the
    array), and the all-node solve on rr samples has such checks (the
    first check, after one iteration, changes no set)."""
    calls = {"_pattern_groups": [], "_block_steps": []}
    for name, sets in calls.items():
        def spy(second_or_bits, work, widths, *rest, _fn=getattr(solvers, name), _sets=sets):
            _sets.append(work.copy())
            return _fn(second_or_bits, work, widths, *rest)
        monkeypatch.setattr(solvers, name, spy)
    checks = []
    check_tanh = solvers._check_tanh

    def count_checks(*args):
        checks.append(1)
        return check_tanh(*args)

    monkeypatch.setattr(solvers, "_check_tanh", count_checks)
    g = assign_couplings(generate_random_regular(64, 3, 5), CouplingScheme.mixed(0.4), seed=6)
    samples = gibbs_sample(g, 700, SamplerConfig(seed=7))
    solutions, errors = solve_logistic_l1_batch(samples, range(64), 0.1)
    assert not errors and len(solutions) == 64
    for sets in calls.values():
        assert all(a.shape != b.shape or not np.array_equal(a, b) for a, b in zip(sets, sets[1:]))
    # one build at entry and one per rebuilding check: fewer than the checks
    assert len(calls["_block_steps"]) < len(checks) + 1


def test_logistic_batch_finishes_as_per_node_finalize(monkeypatch):
    """Each node's record, built before entry r is cut with the residual
    stored at its converging check, equals finalize_reference's, which
    takes the residual again from the node's final iterate and gradient
    over the predictors alone, bit for bit: the pinned entry the check also
    sees adds |0| - lambda < 0, below the floor of 0. The cut record is the
    full one without entry r, which the _cut call names."""
    calls = {}
    finalize, cut = solvers._finalize, solvers._cut
    finalized = []

    def finalize_spy(theta, grad, loss, lam, iterations, kkt):
        got = finalize(theta, grad, loss, lam, iterations, kkt)
        finalized.append((theta.copy(), grad.copy(), loss, lam, iterations))
        return got

    def cut_spy(solution, r):
        assert len(finalized) == 1 and r not in calls  # each cut follows its own finalize
        theta, grad, loss, lam, iterations = finalized.pop()
        want = finalize_reference(theta, grad, loss, lam, iterations,
                                  np.delete(np.arange(theta.size), r))
        calls[r] = (dataclasses.replace(solution), want)  # a copy the cut leaves alone
        return cut(solution, r)

    monkeypatch.setattr(solvers, "_finalize", finalize_spy)
    monkeypatch.setattr(solvers, "_cut", cut_spy)
    rng = np.random.default_rng(27)
    g = assign_couplings(generate_random_regular(64, 3, 5), CouplingScheme.mixed(0.4), seed=6)
    sets = [gibbs_sample(g, 700, SamplerConfig(seed=7)), random_samples(rng, 9, 60),
            random_samples(rng, 4, 400)]
    for samples, lam in zip(sets, (0.1, 0.05, 0.0)):
        solutions, errors = solve_logistic_l1_batch(samples, range(samples.p), lam)
        assert not errors and len(solutions) == samples.p
        assert calls.keys() == set(range(samples.p))
        for r, (got, want) in calls.items():
            assert_same_solution(got, want)
            assert solutions[r].coefficients.tobytes() == np.delete(got.coefficients, r).tobytes()
            assert solutions[r].subgradient.tobytes() == np.delete(got.subgradient, r).tobytes()
        calls.clear()


@settings(max_examples=300, deadline=None)
@given(
    z=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
               min_size=1, max_size=8),
    tau=st.floats(0.0, 1.0),
)
def test_soft_threshold_zero_is_unsigned(z, tau):
    """The logistic soft-threshold equals sign(z) max(|z| - tau, 0) bit for
    bit where it is nonzero, and is +0.0 where it is zero, -0.0 inputs and
    |z| = tau included."""
    z = np.array(z + [tau, -tau])
    got = _soft_threshold(z[None, :], np.array([[tau]]))[0]
    want = np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)
    assert np.array_equal(got, want) and not np.signbit(got[got == 0.0]).any()
    assert got[want != 0.0].tobytes() == want[want != 0.0].tobytes()


def test_logistic_zeros_are_unsigned():
    """Every coefficient the batch leaves at zero is +0.0, as the Lasso's
    are, on random batches at small and large penalties."""
    rng = np.random.default_rng(26)
    for lam in (0.02, 0.1, 0.3):
        samples = random_samples(rng, 9, 50)
        solutions, errors = solve_logistic_l1_batch(samples, range(9), lam)
        assert not errors
        coef = np.concatenate([sol.coefficients for sol in solutions.values()])
        zeros = coef[coef == 0.0]
        assert zeros.size and not np.signbit(zeros).any()


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

    @pytest.mark.parametrize("kappa, message", [
        (math.nan, "kappa must be a finite number, got nan"),
        (True, "kappa must be a finite number, got True"),
        (-1.0, "kappa must be >= 0"),
    ])
    def test_kappa_refused_by_its_own_name(self, kappa, message):
        """kappa takes the number rule and a sign test before it becomes a
        lambda, so the error names the value the caller gave."""
        samples = SampleMatrix(np.random.default_rng(1).choice(
            np.array([-1, 1], dtype=np.int8), size=(30, 5)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            recover_graph(samples, kappa=kappa)

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
            sol = solve_lasso(fresh, r, 0.08)
            assert estimate.neighborhoods[r] == extract_signed_neighborhood(sol, r)


    def test_logistic_matches_per_node_solves(self):
        g = assign_couplings(generate_bethe_tree(8, 3), CouplingScheme.mixed(0.4), seed=2)
        samples = gibbs_sample(g, 800, SamplerConfig(burn_in_sweeps=200, thinning_sweeps=1, seed=3))
        estimate = recover_graph(samples, lam=0.08, solver="logistic")
        assert not estimate.node_errors
        for r in range(g.p):
            fresh = SampleMatrix(samples.data)  # no cached second moment
            sol = solve_logistic_l1(fresh, r, 0.08)
            assert estimate.neighborhoods[r] == extract_signed_neighborhood(sol, r)


class TestSharedGram:
    def test_node_slice_equals_design_gram(self):
        rng = np.random.default_rng(50)
        samples = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(97, 7)))
        for r in range(samples.p):
            gram, linear = gram_of(samples, r)
            q, b = node_moments(samples.second_moment(), r)
            assert np.array_equal(q, gram)
            assert np.array_equal(b, linear)


class TestSerialization:
    def test_solution_json(self):
        rng = np.random.default_rng(40)
        sol = solve_lasso(random_samples(rng, 5, 25), 3, 0.1)
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
