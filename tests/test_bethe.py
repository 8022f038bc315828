import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isinglasso.bethe import (
    RRConstants,
    SingularMatrixError,
    bethe_inverse_covariance,
    rescaled_theta,
    rr_constants,
    support_conditions,
    theorem_thresholds,
    tree_covariance,
    tree_moments,
)
from isinglasso.graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    generate_bethe_tree,
    generate_grid_periodic,
)
from isinglasso.sampler import SampleMatrix, exact_enumerate
from conftest import random_forest, random_paramagnetic_tree
from oracles import (
    rr_neighbor_row,
    rr_support_block,
    support_conditions_reference,
    tree_covariance_reference,
)


class TestRescaledClosedForm:
    def test_rr_value(self):
        assert abs(rr_constants(3, 0.4).theta_tilde_rr - 0.294826) < 1e-6
        assert abs(rr_constants(4, 0.2).theta_tilde_rr - 0.176722) < 1e-6

    def test_sign_passthrough(self):
        assert -1 * rr_constants(3, 0.4).theta_tilde_rr < 0

    def test_small_coupling_limit(self):
        theta0 = 1e-4
        assert abs(rr_constants(3, theta0).theta_tilde_rr - theta0) / theta0 < 1e-6

    def test_interior_vertex_matches_closed_form(self, regular_tree):
        params = rescaled_theta(regular_tree)
        interior = [r for r in range(regular_tree.p) if regular_tree.degrees[r] == 3]
        r = interior[0]
        t = regular_tree.neighbors[r][0]
        expected = np.sign(regular_tree.coupling(r, t)) * rr_constants(3, 0.4).theta_tilde_rr
        assert abs(params.matrix[r, t] - expected) < 1e-12

    def test_leaf_vertex_is_tanh(self, regular_tree):
        leaves = [r for r in range(regular_tree.p) if regular_tree.degrees[r] == 1]
        r = leaves[0]
        t = regular_tree.neighbors[r][0]
        params = rescaled_theta(regular_tree)
        expected = math.tanh(regular_tree.coupling(r, t))
        assert abs(params.matrix[r, t] - expected) < 1e-12

    def test_zero_coupling_limit_on_tree(self):
        theta0 = 1e-4
        g = assign_couplings(generate_bethe_tree(10, 3), CouplingScheme.uniform(theta0), seed=0)
        params = rescaled_theta(g)
        for (r, t) in g.edges:
            assert abs(params.matrix[r, t] - theta0) / theta0 < 1e-6

    def test_sign_preservation(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            g = random_paramagnetic_tree(rng)
            params = rescaled_theta(g)
            for (r, t), j in g.couplings.items():
                assert np.sign(params.matrix[r, t]) == np.sign(j)
                assert np.sign(params.matrix[t, r]) == np.sign(j)

    def test_support_matches_edges(self):
        rng = np.random.default_rng(8)
        g = random_paramagnetic_tree(rng)
        params = rescaled_theta(g)
        for r in range(g.p):
            for t in range(g.p):
                if r == t:
                    continue
                is_edge = (min(r, t), max(r, t)) in g.couplings
                assert (params.matrix[r, t] != 0.0) == is_edge

    def test_cyclic_graph_rejected(self):
        g = assign_couplings(generate_grid_periodic(3, 3), CouplingScheme.uniform(0.2), seed=0)
        with pytest.raises(ValueError, match="acyclic"):
            rescaled_theta(g)

    @staticmethod
    def _star(j):
        return SignedGraph(p=4, edges=((0, 1), (1, 2), (1, 3)),
                           couplings={(0, 1): j, (1, 2): 0.4, (1, 3): -0.4})

    @pytest.mark.parametrize("j", [20.0, -20.0])
    def test_saturated_coupling_rejected(self, j):
        """tanh J is exactly +-1 in float64 from |J| = 18.9903 on, where the
        inverse covariance would divide by 1 - tanh^2 J = 0 and the rescaled
        couplings would come back NaN: the edge is refused by name."""
        with pytest.raises(ValueError, match=r"edge \(0,1\) saturates"):
            rescaled_theta(self._star(j))
        with pytest.raises(ValueError, match=r"edge \(0,1\) saturates"):
            theorem_thresholds(self._star(j), 0.02)

    def test_coupling_below_saturation_is_finite(self):
        g = self._star(18.0)
        assert np.isfinite(rescaled_theta(g).matrix).all()
        report = theorem_thresholds(g, 0.02)
        assert all(math.isfinite(v) for v in (report.theta_tilde_min, report.c_min,
                                              report.incoherence, report.threshold))


class TestPopulationRegressionOracle:
    def test_population_regression_matches_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(6):
            g = random_paramagnetic_tree(rng, p_max=10)
            moments = exact_enumerate(g)
            second = moments.second_moment()
            params = rescaled_theta(g)
            for r in range(g.p):
                q = np.delete(np.delete(second, r, axis=0), r, axis=1)
                b = np.delete(second[:, r], r)
                oracle = np.linalg.solve(q, b)
                assert np.abs(oracle - np.delete(params.matrix[r], r)).max() < 1e-10


class TestTreeCovariance:
    def test_adjacent_and_distance_two(self, path3):
        cov = tree_covariance(path3)
        assert abs(cov[0, 1] - math.tanh(0.4)) < 1e-15
        assert abs(cov[0, 2] - math.tanh(0.4) ** 2) < 1e-15

    def test_disconnected_components_uncorrelated(self):
        g = SignedGraph(p=4, edges=((0, 1), (2, 3)), couplings={(0, 1): 0.5, (2, 3): -0.3})
        cov = tree_covariance(g)
        assert cov[0, 2] == 0.0 and cov[1, 3] == 0.0
        assert abs(cov[2, 3] - math.tanh(-0.3)) < 1e-15

    def test_matches_enumeration(self):
        rng = np.random.default_rng(55)
        for _ in range(8):
            g = random_paramagnetic_tree(rng)
            assert np.abs(tree_covariance(g) - exact_enumerate(g).covariance).max() < 1e-12

    def test_inverse_identity(self):
        rng = np.random.default_rng(56)
        for _ in range(8):
            g = random_paramagnetic_tree(rng)
            product = tree_covariance(g) @ bethe_inverse_covariance(g)
            assert np.abs(product - np.eye(g.p)).max() < 1e-10

    def test_single_edge_closed_form(self, single_edge):
        t = math.tanh(0.4)
        inv = bethe_inverse_covariance(single_edge)
        sech2 = 1 - t * t
        expected = np.array([[1 / sech2, -t / sech2], [-t / sech2, 1 / sech2]])
        assert np.abs(inv - expected).max() < 1e-14
        assert np.abs(inv @ np.array([[1, t], [t, 1]]) - np.eye(2)).max() < 1e-14

    def test_free_spins_identity(self):
        g = SignedGraph(p=4, edges=())
        assert np.array_equal(bethe_inverse_covariance(g), np.eye(4))
        assert np.array_equal(tree_covariance(g), np.eye(4))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_dfs_reference(self, seed):
        """The two slice passes multiply the same factors in the same order
        as one depth-first search per root: equal arrays, not close ones."""
        g = random_forest(np.random.default_rng(seed))
        cov = tree_covariance(g)
        assert cov.flags.c_contiguous
        assert np.array_equal(cov, tree_covariance_reference(g))

    def test_cyclic_rejected(self):
        g = assign_couplings(generate_grid_periodic(3, 3), CouplingScheme.uniform(0.2), seed=0)
        with pytest.raises(ValueError, match="acyclic"):
            tree_covariance(g)
        with pytest.raises(ValueError, match="acyclic"):
            bethe_inverse_covariance(g)


class TestTreeMoments:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(77)
        g = random_paramagnetic_tree(rng, p_max=10)
        closed = tree_moments(g)
        brute = exact_enumerate(g)
        assert abs(closed.log_partition - brute.log_partition) < 1e-10
        assert np.abs(closed.covariance - brute.covariance).max() < 1e-12
        assert np.abs(closed.mean - brute.mean).max() < 1e-13


class TestRRConstants:
    def test_reference_values(self):
        c = rr_constants(3, 0.4)
        assert abs(c.c_min - 0.855639) < 1e-6
        assert abs(c.alpha - 0.620051) < 1e-6
        assert abs(c.lambda_max_qss - 1.288722) < 1e-6

    def test_independence_limit(self):
        c = rr_constants(5, 1e-9)
        assert abs(c.c_min - 1.0) < 1e-12
        assert abs(c.alpha - 1.0) < 1e-8

    def test_eigendecomposition_oracle(self):
        for d in (3, 4, 5, 8):
            for theta0 in (0.1, 0.2, 0.4):
                c = rr_constants(d, theta0)
                eigs = np.linalg.eigvalsh(rr_support_block(d, theta0))
                assert abs(eigs.min() - c.c_min) < 1e-12
                assert abs(eigs.max() - c.lambda_max_qss) < 1e-12

    def test_incoherence_oracle(self):
        for d in (3, 4, 5, 8):
            for theta0 in (0.1, 0.2, 0.4):
                c = rr_constants(d, theta0)
                row = rr_neighbor_row(d, theta0)
                image = np.linalg.solve(rr_support_block(d, theta0), row)
                assert abs(np.abs(image).sum() - (1.0 - c.alpha)) < 1e-12

    def test_kappa_floor(self):
        c = rr_constants(3, 0.4)
        sigma = math.sqrt(c.c_min / c.lambda_max_qss)
        assert c.kappa_floor == 2.0 * sigma / c.alpha
        assert abs(c.kappa_floor - 2.6282) < 1e-4

    @pytest.mark.parametrize("d, theta0, message", [
        (3.7, 0.4, "d must be an integer >= 3, got 3.7"),
        (3.0, 0.4, "d must be an integer >= 3, got 3.0"),
        (2, 0.4, "d must be an integer >= 3, got 2"),
        (3, "0.4", "theta0 must be a finite number, got '0.4'"),
        (3, 0.0, "theta0 must be positive"),
    ])
    def test_arguments_checked(self, d, theta0, message):
        with pytest.raises(ValueError) as err:
            rr_constants(d, theta0)
        assert str(err.value) == message

    def test_saturated_theta0_rejected(self):
        """tanh 20 is exactly 1 in float64, so alpha and c_min would be 0:
        the refusal names theta0, not the derived alpha."""
        with pytest.raises(ValueError) as err:
            rr_constants(3, 20.0)
        assert str(err.value) == "theta0 20.0 saturates: tanh theta0 is +1 in float64"

    def test_theta0_below_saturation_unchanged(self):
        th = math.tanh(0.4)
        assert rr_constants(3, 0.4) == RRConstants(
            d=3, theta0=0.4, c_min=1.0 - th * th, alpha=1.0 - th,
            lambda_max_qss=1.0 + 2 * th * th, theta_tilde_rr=th / (1.0 + 2 * th * th),
        )

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            RRConstants(d=3, theta0=0.4, c_min=0.0, alpha=0.5, lambda_max_qss=1.1, theta_tilde_rr=0.2)
        with pytest.raises(ValueError):
            RRConstants(d=3, theta0=0.4, c_min=0.5, alpha=1.5, lambda_max_qss=1.1, theta_tilde_rr=0.2)


class TestIncoherenceNorm:
    def test_regular_tree_interior(self, regular_tree):
        cov = tree_covariance(regular_tree)
        eig_min, value = support_conditions(cov, 0, regular_tree.neighbors[0])
        assert abs(value - math.tanh(0.4)) < 1e-12
        assert abs(eig_min - rr_constants(3, 0.4).c_min) < 1e-12

    def test_identity_covariance(self):
        assert support_conditions(np.eye(6), 2, [0, 4]) == (1.0, 0.0)

    def test_matches_explicit_block_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = random_paramagnetic_tree(rng)
            cov = tree_covariance(g)
            for r in range(g.p):
                support = g.neighbors[r]
                if not support:
                    continue
                others = [v for v in range(g.p) if v != r and v not in support]
                q_ss = cov[np.ix_(support, support)]
                eig_min, value = support_conditions(cov, r, support)
                assert abs(eig_min - np.linalg.eigvalsh(q_ss).min()) < 1e-12
                image = np.linalg.solve(q_ss, cov[np.ix_(support, others)]).T
                expected = np.abs(image).sum(axis=1).max() if others else 0.0
                assert abs(value - expected) < 1e-12

    def test_single_neighbor_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            g = random_paramagnetic_tree(rng)
            cov = tree_covariance(g)
            theta_max = max(abs(j) for j in g.couplings.values())
            r, t = g.edges[0]
            assert support_conditions(cov, r, [t])[1] <= math.tanh(theta_max) + 1e-12

    def test_singular_support_block(self):
        q = np.ones((4, 4))  # rank one
        with pytest.raises(SingularMatrixError) as err:
            support_conditions(q, 0, [1, 2])
        assert err.value.min_eigenvalue <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tree=st.booleans())
    def test_equals_reference(self, seed, tree):
        """The direct LAPACK calls solve each right-hand side as
        cho_factor/cho_solve do: equal floats, on random +/-1 second moments
        and on forest covariances, with supports up to 20 wide."""
        rng = np.random.default_rng(seed)
        if tree:
            second = tree_covariance(random_forest(rng, p_min=2))
        else:
            n, p = int(rng.integers(5, 400)), int(rng.integers(2, 41))
            spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, p))
            second = SampleMatrix(spins).second_moment()
        p = second.shape[0]
        r = int(rng.integers(p))
        width = int(rng.integers(1, min(20, p - 1) + 1))
        support = rng.choice(np.delete(np.arange(p), r), size=width, replace=False).tolist()
        eig_min, incoherence = support_conditions_reference(second, r, support)
        if incoherence == math.inf:
            with pytest.raises(SingularMatrixError) as err:
                support_conditions(second, r, support)
            assert err.value.min_eigenvalue == eig_min
        else:
            assert support_conditions(second, r, support) == (eig_min, incoherence)

    @pytest.mark.parametrize("entry, value", [
        ((1, 1), math.nan), ((1, 2), math.nan), ((2, 1), math.inf),  # Q_SS
        ((3, 1), math.inf), ((4, 2), -math.inf), ((5, 1), math.nan),  # Q_{S^c S}
    ])
    def test_non_finite_input_is_a_plain_value_error(self, entry, value):
        """Not a SingularMatrixError, which sample_covariance would turn
        into incoherence = inf."""
        q = np.eye(6)
        q[entry] = value
        with pytest.raises(ValueError, match="infs or NaNs") as err:
            support_conditions(q, 0, [1, 2])
        assert type(err.value) is ValueError

    def test_failed_cholesky_raises(self):
        """eigvalsh reads the lower triangle of Q_SS and the Cholesky
        factorisation the upper one, so an asymmetric block passes the
        eigenvalue floor and fails the factorisation: LAPACK's info is not
        dropped."""
        q = np.eye(4)
        q[1, 2], q[2, 1] = 5.0, 0.1
        with pytest.raises(ValueError, match="LAPACK Cholesky failed") as err:
            support_conditions(q, 0, [1, 2])
        assert type(err.value) is ValueError

    def test_support_containing_node_rejected(self):
        with pytest.raises(ValueError):
            support_conditions(np.eye(4), 1, [1, 2])
        cov = np.eye(4)
        with pytest.raises(ValueError, match="regression vertex"):
            support_conditions(cov, 2, [2])
        with pytest.raises(ValueError, match="out of range"):
            support_conditions(cov, 2, [-1])
        with pytest.raises(ValueError, match="out of range"):
            support_conditions(cov, 2, [-1, 0])


class TestTheoremThresholds:
    def test_zero_lambda_always_passes(self, regular_tree):
        assert theorem_thresholds(regular_tree, 0.0).passes

    def test_huge_lambda_fails(self, regular_tree):
        assert not theorem_thresholds(regular_tree, 10.0).passes

    def test_reference_values(self, regular_tree):
        rep = theorem_thresholds(regular_tree, 0.03)
        assert abs(rep.threshold - 0.3644) < 2e-4
        assert abs(rep.theta_tilde_min - 0.2948) < 1e-4
        assert not rep.passes
        rep2 = theorem_thresholds(regular_tree, 0.02)
        assert abs(rep2.threshold - 0.2429) < 1e-4
        assert rep2.passes

    def test_c_min_from_support_blocks(self, regular_tree):
        cov = tree_covariance(regular_tree)
        rep = theorem_thresholds(regular_tree, 0.01)
        explicit = min(
            support_conditions(cov, r, regular_tree.neighbors[r])[0]
            for r in range(regular_tree.p)
        )
        assert abs(rep.c_min - explicit) < 1e-14
        assert abs(rep.c_min - rr_constants(3, 0.4).c_min) < 1e-12
