import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isinglasso import witness
from isinglasso.bethe import (
    EIG_FLOOR,
    RescaledParams,
    SingularMatrixError,
    rescaled_theta,
    rr_constants,
    support_conditions,
    tree_covariance,
    tree_moments,
)
from isinglasso.graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    generate_bethe_tree,
    support_vertices,
)
from isinglasso.sampler import SampleMatrix, SamplerConfig, exact_enumerate, gibbs_sample
from isinglasso.solvers import SolverConfig, extract_signed_neighborhood, lambda_from_kappa, solve_lasso
from isinglasso.witness import (
    check_conditions,
    compute_noise_vector,
    construct_witness,
    enumerate_z_statistics,
    sample_covariance,
)
from conftest import random_forest, random_paramagnetic_tree
from oracles import (
    noise_reference,
    support_conditions_reference,
    tail_rate_probe,
    witness_reference,
    z_statistics_oracle,
)


@pytest.fixture(scope="module")
def tree_fixture():
    g = assign_couplings(generate_bethe_tree(12, 3), CouplingScheme.mixed(0.4), seed=6)
    return g, rescaled_theta(g)


@pytest.fixture(scope="module")
def tree_samples(tree_fixture):
    g, _ = tree_fixture
    return gibbs_sample(g, 3000, SamplerConfig(burn_in_sweeps=300, thinning_sweeps=2, seed=17))


class TestSampleCovariance:
    def test_unit_diagonal(self, tree_samples):
        assert np.abs(np.diag(tree_samples.second_moment()) - 1.0).max() == 0.0
        # a one-vertex support block is that unit diagonal entry
        assert sample_covariance(tree_samples, 0, [1]).eig_min_ss == 1.0

    def test_single_sample_rank_one(self):
        samples = SampleMatrix(np.array([[1, -1, 1, -1]], dtype=np.int8))
        eigs = np.linalg.eigvalsh(samples.second_moment())
        assert abs(eigs.max() - 4.0) < 1e-12  # rank one: trace concentrates
        assert abs(eigs[:-1]).max() < 1e-12
        # so any two-vertex support block is singular
        report = sample_covariance(samples, 0, [1, 2])
        assert abs(report.eig_min_ss) < 1e-12 and report.incoherence == math.inf

    def test_edge_pair_near_population(self, tree_fixture, tree_samples):
        g, _ = tree_fixture
        r = 0
        t = g.neighbors[r][0]
        report = sample_covariance(tree_samples, r, g.neighbors[r])
        target = math.copysign(math.tanh(0.4), g.coupling(r, t))
        assert report.support == tuple(sorted(g.neighbors[r]))
        b = tree_samples.as_float()
        emp = float((b[:, r] * b[:, t]).mean())
        assert abs(emp - target) < 0.05

    def test_exact_moments_read_as_samples_are(self):
        """sample_covariance reads any data's second moment: on a forest's
        closed-form moments it is support_conditions on tree_covariance,
        bit for bit."""
        rng = np.random.default_rng(31)
        for _ in range(6):
            g = random_forest(rng, p_min=2, p_max=12)
            moments, cov = tree_moments(g), tree_covariance(g)
            for r in range(g.p):
                if g.neighbors[r]:
                    report = sample_covariance(moments, r, g.neighbors[r])
                    assert (report.eig_min_ss, report.incoherence) == \
                        support_conditions(cov, r, g.neighbors[r])


class TestNoiseVector:
    def test_free_graph_noise(self):
        free = SignedGraph(p=4, edges=())
        params = rescaled_theta(free)
        rng = np.random.default_rng(3)
        samples = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(500, 4)))
        noise = compute_noise_vector(samples, 0, params)
        assert noise.inf_norm <= 1.0
        assert noise.inf_norm < 0.2
        assert noise.max_abs <= 1.0

    def test_z_bounded_by_degree_on_data(self, tree_fixture, tree_samples):
        g, params = tree_fixture
        d = g.max_degree
        for r in range(g.p):
            noise = compute_noise_vector(tree_samples, r, params)
            assert noise.max_abs <= d + 1e-12
            assert (noise.second_moment - noise.means**2 <= 1.0 + 1e-12).all()

    def test_fields_match_explicit_z(self, tree_fixture):
        g, params = tree_fixture
        samples = gibbs_sample(g, 200, SamplerConfig(burn_in_sweeps=100, thinning_sweeps=2, seed=8))
        x = samples.as_float()
        for r in range(g.p):
            xs = np.delete(x, r, axis=1)
            z = xs * (x[:, r] - xs @ np.delete(params.matrix[r], r))[:, None]
            noise = compute_noise_vector(samples, r, params)
            assert np.abs(noise.means - z.mean(axis=0)).max() < 1e-12
            assert np.abs(noise.max_abs - np.abs(z).max(axis=0)).max() < 1e-12
            assert np.abs(noise.second_moment - noise.means**2 - z.var(axis=0)).max() < 1e-12
            assert noise.inf_norm == float(np.abs(noise.means).max())

    def test_noise_shrinks_with_n(self, tree_fixture):
        g, params = tree_fixture
        small = gibbs_sample(g, 100, SamplerConfig(burn_in_sweeps=200, thinning_sweeps=2, seed=5))
        big = gibbs_sample(g, 10000, SamplerConfig(burn_in_sweeps=200, thinning_sweeps=2, seed=5))
        w_small = compute_noise_vector(small, 0, params).inf_norm
        w_big = compute_noise_vector(big, 0, params).inf_norm
        assert w_big < w_small
        assert w_big < 0.05

    def test_dimension_mismatch(self, tree_fixture):
        _, params = tree_fixture
        samples = SampleMatrix(np.ones((3, 5), dtype=np.int8))
        for data in (samples, tree_moments(SignedGraph(p=5, edges=()))):
            with pytest.raises(ValueError, match="data has p = 5"):
                compute_noise_vector(data, 0, params)


class TestZEnumeration:
    def test_exact_statistics(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            g = random_paramagnetic_tree(rng, p_max=9)
            params = rescaled_theta(g)
            d = g.max_degree
            for r in range(g.p):
                stats = enumerate_z_statistics(g, r, params)
                assert np.abs(stats.means).max() < 1e-12
                assert stats.second_moment <= 1.0 + 1e-12
                assert stats.max_abs <= d + 1e-12

    def test_matches_state_by_state_oracle(self):
        rng = np.random.default_rng(29)
        cases = [(g, rescaled_theta(g)) for g in
                 (random_paramagnetic_tree(rng, p_max=9) for _ in range(3))]
        # an arbitrary regression row, where E[Z] is not zero
        g = cases[0][0]
        cases.append((g, RescaledParams(matrix=rng.normal(size=(g.p, g.p)))))
        for g, params in cases:
            for r in range(g.p):
                stats = enumerate_z_statistics(g, r, params)
                means, second, max_abs = z_statistics_oracle(g, r, np.delete(params.matrix[r], r))
                assert np.abs(stats.means - means).max() < 1e-13
                assert np.abs(stats.second_moment - second).max() < 1e-13 * second.max()
                assert np.abs(stats.max_abs - max_abs).max() < 1e-13 * max_abs.max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), normal_row=st.booleans())
    def test_one_noise_path_on_forests(self, seed, normal_row):
        """compute_noise_vector on a random forest's closed-form moments and
        on its 2^p enumeration, with theta_tilde from rescaled_theta or an
        arbitrary normal row: one function on two kinds of exact data, and
        both give the state-by-state oracle's statistics."""
        rng = np.random.default_rng(seed)
        g = random_forest(rng, p_min=2, p_max=10)
        params = rescaled_theta(g)
        if normal_row:
            params = RescaledParams(matrix=rng.normal(size=(g.p, g.p)))
        r = int(rng.integers(g.p))
        closed = compute_noise_vector(tree_moments(g), r, params)
        enumerated = compute_noise_vector(exact_enumerate(g), r, params)
        means, second, max_abs = z_statistics_oracle(g, r, np.delete(params.matrix[r], r))
        scale = max(1.0, second.max())
        assert np.abs(closed.means - enumerated.means).max() < 1e-13 * scale
        assert abs(closed.second_moment - enumerated.second_moment) < 1e-13 * scale
        assert closed.max_abs == enumerated.max_abs
        for noise in (closed, enumerated):
            assert noise.node == r
            assert np.abs(noise.means - means).max() < 1e-13 * scale
            assert np.abs(noise.second_moment - second).max() < 1e-13 * scale
            assert np.abs(noise.max_abs - max_abs).max() < 1e-13 * max_abs.max()


class TestWitnessConstruction:
    def test_population_certificate_passes(self, tree_fixture):
        g, params = tree_fixture
        moments = tree_moments(g)
        consts = rr_constants(3, 0.4)
        for r in range(g.p):
            cert = construct_witness(moments, r, g.neighbors[r], params, lam=0.02)
            assert cert.passes_all(), (r, cert.checks())
            assert cert.z_sc_inf <= 1.0 - consts.alpha + 1e-8
            assert cert.w_inf < 1e-12

    def test_population_measured_alpha_at_interior(self, tree_fixture):
        g, params = tree_fixture
        moments = tree_moments(g)
        interior = [r for r in range(g.p) if g.degrees[r] == 3][0]
        cert = construct_witness(moments, interior, g.neighbors[interior], params, lam=0.02)
        assert abs(cert.alpha_measured - (1.0 - math.tanh(0.4))) < 1e-10
        assert abs(cert.c_min_measured - rr_constants(3, 0.4).c_min) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(3, 5), theta0=st.floats(0.05, 0.8), seed=st.integers(0, 2**32 - 1),
           pick=st.integers(0, 10**6), lam=st.floats(0.01, 0.3))
    def test_population_witness_equals_rr_closed_forms(self, d, theta0, seed, pick, lam):
        """At an interior vertex of a degree-d Bethe tree with mixed signs,
        the witness measures the closed-form c_min and alpha on the tree
        moments, and its targets have the closed-form magnitude."""
        g = assign_couplings(generate_bethe_tree(3 * d * d, d), CouplingScheme.mixed(theta0), seed)
        interior = [v for v in range(g.p) if g.degrees[v] == d]
        r = interior[pick % len(interior)]
        cert = construct_witness(tree_moments(g), r, g.neighbors[r], rescaled_theta(g), lam)
        consts = rr_constants(d, theta0)
        assert abs(cert.c_min_measured - consts.c_min) <= 1e-12
        assert abs(cert.alpha_measured - consts.alpha) <= 1e-12
        assert np.abs(np.abs(cert.theta_tilde_s) - consts.theta_tilde_rr).max() <= 1e-12

    def test_sample_certificate_internal_consistency(self, tree_fixture, tree_samples):
        g, params = tree_fixture
        cfg = SolverConfig(tol=1e-10)
        x = tree_samples.as_float()
        for r in range(4):
            support = g.neighbors[r]
            cert = construct_witness(tree_samples, r, support, params, lam=0.1, config=cfg)
            # stationarity block on the support
            xs = np.delete(x, r, axis=1)
            q = xs.T @ xs / tree_samples.n
            b = xs.T @ x[:, r] / tree_samples.n
            tt = np.delete(params.matrix[r], r)
            w = b - q @ tt
            s_idx = [v - 1 if v > r else v for v in support]
            mask = np.zeros(g.p - 1, dtype=bool)
            mask[s_idx] = True
            lhs = q[np.ix_(mask, mask)] @ (cert.theta_hat_s - cert.theta_tilde_s)
            rhs = w[mask] - 0.1 * cert.z_s
            assert np.abs(lhs - rhs).max() <= cfg.tol + 1e-10
            # off-support dual equals the rearranged stationarity block
            theta_full = np.zeros(g.p - 1)
            theta_full[mask] = cert.theta_hat_s
            grad = q @ theta_full - b
            assert np.abs(cert.z_sc - (-grad[~mask] / 0.1)).max() < 1e-10

    def test_chain_inequality(self, tree_fixture, tree_samples):
        g, params = tree_fixture
        for r in range(g.p):
            cert = construct_witness(tree_samples, r, g.neighbors[r], params, lam=0.1)
            bound = (1.0 - cert.alpha_measured) * (1.0 + cert.w_s_inf / cert.lam) \
                + cert.w_sc_inf / cert.lam
            assert cert.z_sc_inf <= bound + 1e-10

    def test_l2_bound_conditional(self, tree_fixture, tree_samples):
        g, params = tree_fixture
        checked = 0
        for r in range(g.p):
            cert = construct_witness(tree_samples, r, g.neighbors[r], params, lam=0.12)
            if cert.noise_hypothesis:
                checked += 1
                assert cert.l2_error <= cert.l2_bound + 1e-12
        assert checked > 0

    def test_huge_lambda_reports_failure(self, tree_fixture, tree_samples):
        g, params = tree_fixture
        cert = construct_witness(tree_samples, 0, g.neighbors[0], params, lam=50.0)
        checks = cert.checks()
        assert not checks["sign_consistency"]
        assert (cert.theta_hat_s == 0.0).all()

    def test_witness_agrees_with_unrestricted(self, tree_fixture, tree_samples):
        g, params = tree_fixture
        for r in range(g.p):
            cert = construct_witness(tree_samples, r, g.neighbors[r], params, lam=0.12)
            if cert.checks()["strict_dual_feasibility"] and cert.sign_consistent:
                sol = solve_lasso(tree_samples, r, 0.12)
                hood = extract_signed_neighborhood(sol, r)
                truth = {t: (1 if g.coupling(r, t) > 0 else -1) for t in g.neighbors[r]}
                assert hood.signs == truth

    def test_argument_validation(self, tree_fixture, tree_samples):
        g, params = tree_fixture
        with pytest.raises(ValueError):
            construct_witness(tree_samples, 0, g.neighbors[0], params, lam=0.0)
        with pytest.raises(ValueError):
            construct_witness(tree_samples, 0, [], params, lam=0.1)
        one = SampleMatrix(tree_samples.data[:1])
        with pytest.raises(SingularMatrixError):
            construct_witness(one, 0, g.neighbors[0], params, lam=0.1)

    def test_json_payload(self, tree_fixture):
        g, params = tree_fixture
        cert = construct_witness(tree_moments(g), 0, g.neighbors[0], params, lam=0.02)
        obj = json.loads(cert.to_json())
        assert obj["node"] == 0
        assert obj["checks"]["strict_dual_feasibility"]
        assert obj["strict_feasibility_margin"] > 0


_CONVERSE_TOL = 1e-10


def _check_converse(seed, n, kappa):
    """The converse of test_witness_agrees_with_unrestricted (Wainwright,
    IEEE Trans. IT 2009): wherever the full working-set Lasso recovers node
    r's signed neighbourhood S with every off-support |z| <= 1 - 1e-6, the
    witness on S is sign-consistent and strictly dual-feasible, and both
    solutions agree. Each is within sqrt|S| res / c_min of the unique
    restricted minimiser (res its KKT residual, at most tol; c_min the
    least eigenvalue of Q_SS), so theta_hat_S differs by at most
    2 tol sqrt|S| / c_min; z_sc differs by Q_{off,S} dtheta / lambda, with
    |Q| <= 1, so by at most 2 tol |S| / (c_min lambda). 1e-12 covers the
    rounding of the two formulas. Returns the number of nodes checked."""
    rng = np.random.default_rng(seed)
    g = random_paramagnetic_tree(rng, p_max=10)
    samples = gibbs_sample(g, n, SamplerConfig(burn_in_sweeps=100, thinning_sweeps=1, seed=seed))
    params = rescaled_theta(g)
    lam = lambda_from_kappa(kappa, n, g.p)
    cfg = SolverConfig(tol=_CONVERSE_TOL)
    checked = 0
    for r in range(g.p):
        sol = solve_lasso(samples, r, lam, cfg)
        z_full = np.insert(sol.subgradient, r, 0.0)  # by vertex label
        support = list(g.neighbors[r])
        off = np.setdiff1d(np.arange(g.p), support + [r])
        truth = {t: (1 if g.coupling(r, t) > 0 else -1) for t in support}
        if (extract_signed_neighborhood(sol, r).signs != truth
                or np.abs(z_full[off]).max(initial=0.0) > 1 - 1e-6):
            continue
        checked += 1
        cert = construct_witness(samples, r, support, params, lam, config=cfg)
        assert cert.sign_consistent and cert.checks()["strict_dual_feasibility"]
        theta_gap = 2 * _CONVERSE_TOL * math.sqrt(len(support)) / cert.c_min_measured
        theta_full = np.insert(sol.coefficients, r, 0.0)[support]
        assert np.abs(cert.theta_hat_s - theta_full).max() <= theta_gap + 1e-12
        z_gap = 2 * _CONVERSE_TOL * len(support) / (cert.c_min_measured * lam)
        assert np.abs(cert.z_sc - z_full[off]).max(initial=0.0) <= z_gap + 1e-12
    return checked


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 3000), kappa=st.floats(1.0, 4.0))
def test_recovery_implies_witness(seed, n, kappa):
    _check_converse(seed, n, kappa)


def test_recovery_implies_witness_is_exercised():
    """The property above is not vacuous: its premise holds on fixed draws."""
    assert sum(_check_converse(seed, 1000, 2.0) for seed in range(5)) > 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(30, 200),
    lam=st.floats(0.02, 0.3),
    diagonal=st.booleans(),
)
def test_vertex_labels_match_reduced_coordinates(seed, n, lam, diagonal):
    """construct_witness, compute_noise_vector and support_conditions read
    node r from the p x p second moment by vertex label; they agree with
    the reference that cuts node r's p-1 coordinates out first, on
    population moments and on random +/-1 samples, also when theta_tilde
    carries a nonzero diagonal that node r's regression must ignore."""
    rng = np.random.default_rng(seed)
    g = random_paramagnetic_tree(rng, p_max=9)
    r = int(rng.integers(g.p))
    others = np.delete(np.arange(g.p), r)
    support = rng.choice(others, size=int(rng.integers(1, g.p)), replace=False).tolist()
    params = rescaled_theta(g)
    if diagonal:
        params = RescaledParams(matrix=params.matrix + np.diag(rng.normal(size=g.p)))
    row = np.delete(params.matrix[r], r)
    samples = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, g.p)))
    cfg = SolverConfig(tol=1e-12)
    for data in (tree_moments(g), samples):
        second = data.second_moment()
        eig_min, incoherence = support_conditions_reference(second, r, support)
        if eig_min <= EIG_FLOOR:
            with pytest.raises(SingularMatrixError):
                construct_witness(data, r, support, params, lam, config=cfg)
            continue
        assert np.abs(np.subtract(support_conditions(second, r, support),
                                  (eig_min, incoherence))).max() <= 1e-12
        cert = construct_witness(data, r, support, params, lam, config=cfg)
        for name, value in witness_reference(second, r, support, row, lam, cfg).items():
            assert np.abs(np.subtract(getattr(cert, name), value)).max(initial=0.0) <= 1e-12, name
    noise = compute_noise_vector(samples, r, params)
    means, max_abs, variance = noise_reference(samples.as_float(), r, row)
    assert noise.means.shape == means.shape
    assert np.abs(noise.means - means).max() <= 1e-12
    assert np.abs(noise.max_abs - max_abs).max() <= 1e-12
    assert np.abs(noise.second_moment - noise.means**2 - variance).max() <= 1e-12


_NODE_CALLS = {
    "support_vertices": lambda g, params, x, r: support_vertices([1], g.p, r),
    "support_conditions": lambda g, params, x, r: support_conditions(x.second_moment(), r, [1]),
    "sample_covariance": lambda g, params, x, r: sample_covariance(x, r, [1]),
    "construct_witness": lambda g, params, x, r: construct_witness(x, r, [1], params, lam=0.1),
    "compute_noise_vector": lambda g, params, x, r: compute_noise_vector(x, r, params),
    "compute_noise_vector_exact": lambda g, params, x, r: compute_noise_vector(
        tree_moments(g), r, params),
    "enumerate_z_statistics": lambda g, params, x, r: enumerate_z_statistics(g, r, params),
}


class TestNodeRange:
    @pytest.mark.parametrize("call", sorted(_NODE_CALLS))
    @pytest.mark.parametrize("past_end", [False, True])
    def test_out_of_range_node_rejected(self, tree_fixture, tree_samples, call, past_end):
        """r = -1 and r = p are errors, not the last node or an IndexError."""
        g, params = tree_fixture
        r = g.p if past_end else -1
        with pytest.raises(ValueError, match=f"node {r} out of range"):
            _NODE_CALLS[call](g, params, tree_samples, r)

    @pytest.mark.parametrize("call", ["construct_witness", "compute_noise_vector"])
    def test_theta_tilde_of_another_p_rejected(self, tree_fixture, call, monkeypatch):
        """theta_tilde for p = 12 on moments for p = 10 is refused by one
        message before any solve, not by numpy's matmul."""
        g, params = tree_fixture
        small = tree_moments(SignedGraph(p=10, edges=()))

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the size check")

        monkeypatch.setattr(witness, "support_conditions", no_solve)
        monkeypatch.setattr(witness, "lasso_cd_gram", no_solve)
        with pytest.raises(ValueError, match="^theta_tilde is for p = 12 vertices, data has p = 10$"):
            _NODE_CALLS[call](g, params, small, 0)

    @pytest.mark.parametrize("call", ["support_conditions", "sample_covariance", "construct_witness"])
    def test_empty_support_rejected(self, tree_fixture, tree_samples, call):
        """One rule in support_conditions, not numpy's zero-size reduction error."""
        g, params = tree_fixture
        entry = {
            "support_conditions": lambda: support_conditions(tree_samples.second_moment(), 0, []),
            "sample_covariance": lambda: sample_covariance(tree_samples, 0, []),
            "construct_witness": lambda: construct_witness(tree_samples, 0, [], params, lam=0.1),
        }[call]
        with pytest.raises(ValueError, match="^support must be nonempty$"):
            entry()

    @pytest.mark.parametrize("call", ["support_conditions", "sample_covariance", "construct_witness"])
    def test_repeated_support_vertex_rejected(self, tree_fixture, call):
        """A repeated label is named at entry, not measured as a singular
        support block (eig_min_ss 0, incoherence inf) or refused by the
        witness as one."""
        g, params = tree_fixture
        moments = tree_moments(g)
        entry = {
            "support_conditions": lambda: support_conditions(moments.second_moment(), 0, [2, 1, 2]),
            "sample_covariance": lambda: sample_covariance(moments, 0, [2, 1, 2]),
            "construct_witness": lambda: construct_witness(moments, 0, [2, 1, 2], params, lam=0.1),
        }[call]
        with pytest.raises(ValueError, match="^support vertex 2 is repeated$"):
            entry()


class TestConditionChecks:
    def test_population_targets_met_exactly(self, tree_fixture):
        g, _ = tree_fixture
        moments = tree_moments(g)
        interior = [r for r in range(g.p) if g.degrees[r] == 3][0]
        # population report computed from exact second moments
        second = moments.second_moment()
        from isinglasso.bethe import support_conditions
        from isinglasso.witness import CovarianceReport

        s = sorted(g.neighbors[interior])
        report = CovarianceReport(
            node=interior,
            support=tuple(g.neighbors[interior]),
            eig_min_ss=float(np.linalg.eigvalsh(second[np.ix_(s, s)]).min()),
            incoherence=support_conditions(second, interior, g.neighbors[interior])[1],
        )
        consts = rr_constants(3, 0.4)
        result = check_conditions(report, consts.c_min, consts.alpha)
        assert result.eig_pass and abs(result.eig_margin) < 1e-10
        assert result.incoherence_pass
        assert abs(result.incoherence_margin - consts.alpha / 2) < 1e-10

    def test_tiny_sample_fails_with_margin(self, tree_fixture):
        g, _ = tree_fixture
        samples = SampleMatrix(np.array([[1] * g.p, [-1] * g.p], dtype=np.int8))
        report = sample_covariance(samples, 0, g.neighbors[0])
        consts = rr_constants(3, 0.4)
        result = check_conditions(report, consts.c_min, consts.alpha)
        assert not result.eig_pass
        assert result.eig_margin < 0

    def test_failure_rate_non_increasing_in_n(self, tree_fixture):
        g, _ = tree_fixture
        consts = rr_constants(3, 0.4)
        rates = []
        for idx, n in enumerate((60, 400, 2500)):
            fails = 0
            trials = 40
            for t in range(trials):
                seed = int(np.random.SeedSequence(entropy=(9, idx, t)).generate_state(1)[0])
                s = gibbs_sample(g, n, SamplerConfig(burn_in_sweeps=150, thinning_sweeps=2, seed=seed))
                report = sample_covariance(s, 0, g.neighbors[0])
                res = check_conditions(report, consts.c_min - 0.25, consts.alpha)
                fails += not (res.eig_pass and res.incoherence_pass)
            rates.append(fails / trials)
        assert rates[0] >= rates[1] >= rates[2]


class TestTailProbe:
    def test_probe_rows_and_csv(self, tree_fixture):
        """Every field of the probe's rows for fixed arguments, float for float."""
        g, params = tree_fixture
        cfg = SamplerConfig(burn_in_sweeps=100, thinning_sweeps=1)
        rows = tail_rate_probe(g, params, [20, 200], trials=8, c=0.5, workers=1,
                               sampler=cfg, seed=5)
        bound = 0.5773502691896257  # the ceiling 2 p^-c at p = 12, c = 0.5
        assert [tuple(row) for row in rows] == [
            (20, 3.8430961280709592, 8, 0, 0.0, 0.0625, bound, False),
            (200, 1.2152937031678392, 8, 0, 0.0, 0.0625, bound, True),
        ]
