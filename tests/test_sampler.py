import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from isinglasso.graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    check_regular_degree,
    generate_bethe_tree,
    generate_random_regular,
    generate_random_tree,
    generate_star,
)
from isinglasso import sampler
from isinglasso.sampler import (
    _BLOCK_UNIFORMS,
    _color_classes,
    ExactMoments,
    SampleMatrix,
    SamplerConfig,
    exact_enumerate,
    gibbs_sample,
    load_samples_binary,
    load_samples_text,
    save_samples_binary,
    save_samples_text,
)
from isinglasso.bethe import rescaled_theta, tree_moments
from isinglasso.experiment import ExperimentConfig, build_graph, trial_seed_for
from isinglasso.witness import enumerate_z_statistics
from conftest import random_paramagnetic_tree
from oracles import enumeration_oracle, gibbs_reference


def free_graph(p: int) -> SignedGraph:
    """No edges: all pairwise couplings are zero."""
    return SignedGraph(p=p, edges=())


class TestSampleMatrix:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.array([[1, 0], [1, -1]]))
        with pytest.raises(ValueError):
            SampleMatrix(np.empty((0, 3), dtype=np.int8))
        # values an int8 cast would turn into +1
        with pytest.raises(ValueError):
            SampleMatrix(np.array([[1, 257], [1, -1]], dtype=np.int64))
        with pytest.raises(ValueError):
            SampleMatrix(np.array([[1, 1.7], [1, -1]]))

    def test_bool_dtype_rejected(self):
        """All-True entries used to become +1 spins, and a True/False mix
        was refused as if its values were wrong: a bool is no spin."""
        for data in ([[True, True]], [[True, False]]):
            with pytest.raises(ValueError, match="not of dtype bool"):
                SampleMatrix(np.array(data))

    def test_complex_dtype_rejected(self):
        """A complex array used to be cast to spins with only a
        ComplexWarning."""
        with pytest.raises(ValueError, match="not of dtype complex128"):
            SampleMatrix(np.array([[1, -1], [-1, 1]], dtype=complex))

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match=r"n, p >= 1, got shape \(3, 0\)"):
            SampleMatrix(np.empty((3, 0), dtype=np.int8))

    def test_immutable(self):
        s = SampleMatrix(np.array([[1, -1]], dtype=np.int8))
        with pytest.raises(ValueError):
            s.data[0, 0] = -1

    def test_second_moment_is_exact_counts(self):
        rng = np.random.default_rng(8)
        s = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(1001, 9)))
        x = s.data.astype(np.int64)
        second = s.second_moment()
        assert np.array_equal(second, (x.T @ x) / s.n)
        assert np.array_equal(np.diag(second), np.ones(9))
        assert s.second_moment() is second
        with pytest.raises(ValueError):
            second[0, 1] = 0.0


class TestGibbs:
    def test_deterministic(self, path3):
        a = gibbs_sample(path3, 40, SamplerConfig(seed=42))
        b = gibbs_sample(path3, 40, SamplerConfig(seed=42))
        assert np.array_equal(a.data, b.data)

    def test_free_spins_are_fair_coins(self):
        s = gibbs_sample(free_graph(4), 100_000, SamplerConfig(burn_in_sweeps=0, thinning_sweeps=1, seed=3))
        means = s.as_float().mean(axis=0)
        assert np.abs(means).max() < 0.02
        x = s.as_float()
        cov = x.T @ x / s.n - np.outer(means, means)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 0.02

    def test_free_spins_chi_square_joint(self):
        s = gibbs_sample(free_graph(3), 20_000, SamplerConfig(burn_in_sweeps=0, thinning_sweeps=1, seed=11))
        a = (s.data[:, 0] > 0).astype(int)
        b = (s.data[:, 1] > 0).astype(int)
        counts = np.bincount(2 * a + b, minlength=4)
        result = chisquare(counts)
        assert result.pvalue >= 0.001

    def test_single_edge_covariance(self, single_edge):
        s = gibbs_sample(single_edge, 20_000, SamplerConfig(burn_in_sweeps=200, thinning_sweeps=3, seed=1))
        x = s.as_float()
        prod = x[:, 0] * x[:, 1]
        se = prod.std(ddof=1) / math.sqrt(s.n)
        assert abs(prod.mean() - math.tanh(0.4)) < 3 * se

    def test_input_validation(self, path3):
        with pytest.raises(ValueError):
            gibbs_sample(path3, 0, SamplerConfig())
        bare = SignedGraph(p=3, edges=((0, 1),))
        with pytest.raises(ValueError, match="couplings"):
            gibbs_sample(bare, 5, SamplerConfig())

    @pytest.mark.parametrize("n", [5.0, 2.5, True, "5"])
    def test_non_integer_sample_count_rejected(self, path3, n):
        with pytest.raises(ValueError, match="sample count"):
            gibbs_sample(path3, n, SamplerConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(burn_in_sweeps=-1)
        with pytest.raises(ValueError):
            SamplerConfig(thinning_sweeps=0)
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=-1)

    @pytest.mark.parametrize("field", ["burn_in_sweeps", "thinning_sweeps", "seed"])
    @pytest.mark.parametrize("value", [10.0, 2.5, True, None])
    def test_non_integer_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SamplerConfig(**{field: value})
        SamplerConfig(**{field: np.int64(3)})


def _regular_degree_admitted(p: int, d: int) -> bool:
    try:
        check_regular_degree(p, d)
    except ValueError:
        return False
    return True


def chain_graph(kind: str, p: int, seed: int) -> SignedGraph:
    """A graph of the given kind on p vertices with couplings of random
    sign and magnitude in [0.05, 1); edge-free where the kind needs more
    vertices than p."""
    rng = np.random.default_rng(seed)
    degrees = [d for d in range(3, p) if _regular_degree_admitted(p, d)]
    if kind == "rr" and degrees:
        g = generate_random_regular(p, int(rng.choice(degrees)), seed)
    elif kind == "tree" and p >= 2:
        g = generate_random_tree(p, int(rng.integers(2, 5)), seed)
    elif kind == "star" and p >= 2:
        g = generate_star(p, int(rng.integers(1, p)))
    elif kind == "loopy" and p >= 3:
        pairs = [(r, t) for r in range(p) for t in range(r + 1, p)]
        g = SignedGraph(p=p, edges=tuple(e for e in pairs if rng.random() < 0.5))
    else:
        return free_graph(p)
    mags = rng.uniform(0.05, 1.0, len(g.edges))
    signs = rng.choice([-1.0, 1.0], len(g.edges))
    return SignedGraph(p=p, edges=g.edges, couplings=dict(zip(g.edges, mags * signs)))


class TestGibbsMatchesReference:
    """The blocked threshold sampler and the per-class logistic loop of
    tests/oracles.py give bitwise-equal samples from one seed. They could
    differ only where a uniform lands within rounding of its update
    probability, about 2^-52 per update. The sampler holds its state in
    class order, so its neighbour sum h runs over the columns in class
    order and the reference's in vertex order. With equal magnitudes every
    order gives the same double; with mixed magnitudes h may differ from
    the reference's in its last bit, and a sample differs only if a
    threshold falls in that gap."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["rr", "tree", "star", "free"]),
        p=st.integers(1, 40),
        graph_seed=st.integers(0, 2**31 - 1),
        seed=st.integers(0, 2**63 - 1),
        n=st.integers(1, 300),
        burn_in=st.integers(0, 600),
        thinning=st.integers(1, 3),
    )
    # sweep totals one below, equal to, one past and twice the block of
    # _BLOCK_UNIFORMS // p sweeps (256 at p = 32, 204 at p = 40, 910 at p = 9)
    @example(kind="rr", p=32, graph_seed=1, seed=5, n=1, burn_in=_BLOCK_UNIFORMS // 32 - 2, thinning=1)
    @example(kind="rr", p=32, graph_seed=1, seed=5, n=1, burn_in=_BLOCK_UNIFORMS // 32 - 1, thinning=1)
    @example(kind="tree", p=40, graph_seed=2, seed=6, n=2, burn_in=_BLOCK_UNIFORMS // 40 - 1, thinning=1)
    @example(kind="star", p=9, graph_seed=3, seed=7, n=_BLOCK_UNIFORMS // 9, burn_in=0, thinning=2)
    @example(kind="free", p=1, graph_seed=0, seed=0, n=1, burn_in=0, thinning=1)
    def test_bitwise_equal(self, kind, p, graph_seed, seed, n, burn_in, thinning):
        g = chain_graph(kind, p, graph_seed)
        cfg = SamplerConfig(burn_in_sweeps=burn_in, thinning_sweeps=thinning, seed=seed)
        assert np.array_equal(gibbs_sample(g, n, cfg).data, gibbs_reference(g, n, cfg).data)

    @pytest.mark.parametrize("u, kind, spin", [(0.0, "rr", 1), (0.5, "free", -1)])
    def test_edge_uniforms(self, monkeypatch, u, kind, spin):
        """u = 0 makes g = -inf, so every update sets +1, with no divide
        warning; u = 1/2 with no neighbours is the tie h = g = 0, which sets
        -1. The logistic loop does the same."""

        class ConstantUniforms:
            def random(self, size=None):
                return np.full(size, u)

        g = chain_graph(kind, 12, 4)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ConstantUniforms())
        cfg = SamplerConfig(burn_in_sweeps=3, thinning_sweeps=1, seed=0)
        with np.errstate(all="raise"):
            s = gibbs_sample(g, 4, cfg)
        assert (s.data == spin).all()
        assert np.array_equal(s.data, gibbs_reference(g, 4, cfg).data)

    @pytest.mark.parametrize("kind, graph_seed", [("rr", 4), ("rr", 5), ("tree", 4), ("tree", 6)])
    def test_zero_uniforms_among_others(self, monkeypatch, kind, graph_seed):
        """u = 0 at every third draw and 0.3 or 0.7 elsewhere: the gemv adds
        each class's neighbour sums into its thresholds, so a g = -inf slot
        stays -inf (it meets a finite sum, never a zero coupling times
        -inf), sets +1, and leaves the other sites to their own draws."""

        class PatternedUniforms:
            def __init__(self):
                self.drawn = 0

            def random(self, size=None):
                k = self.drawn + np.arange(np.prod(size, dtype=np.int64)).reshape(size)
                self.drawn += k.size
                return np.where(k % 3 == 0, 0.0, np.where(k % 5 < 2, 0.3, 0.7))

        g = chain_graph(kind, 32, graph_seed)  # 32 is no multiple of 3: the zeros visit every site
        monkeypatch.setattr(np.random, "default_rng", lambda seed: PatternedUniforms())
        cfg = SamplerConfig(burn_in_sweeps=40, thinning_sweeps=2, seed=0)
        with np.errstate(all="raise"):
            s = gibbs_sample(g, 30, cfg)
        ref = gibbs_reference(g, 30, cfg)
        assert np.array_equal(s.data, ref.data)
        assert (s.data == -1).any()

    @pytest.mark.parametrize("kind, p", [("rr", 24), ("tree", 31), ("star", 9)])
    def test_block_size_leaves_samples_unchanged(self, monkeypatch, kind, p):
        """The kernel overwrites the threshold block it reads, one slot per
        site and sweep: blocks of one sweep (_BLOCK_UNIFORMS = p), of two
        (2p + 1) and of the default size give the same samples."""
        g = chain_graph(kind, p, 8)
        cfg = SamplerConfig(burn_in_sweeps=37, thinning_sweeps=3, seed=21)
        samples = [gibbs_sample(g, 60, cfg).data]
        for size in (p, 2 * p + 1):
            monkeypatch.setattr(sampler, "_BLOCK_UNIFORMS", size)
            samples.append(gibbs_sample(g, 60, cfg).data)
        assert all(np.array_equal(samples[0], other) for other in samples[1:])


def _sweep_rr32_chain():
    """The first trial of a p = 32, beta = 5 rr cell at master seed 101, as
    run_trial splits its seed: the graph and the chain of 520 samples."""
    config = ExperimentConfig(family="rr", p_list=(32,), beta_grid=(5.0,), trials=1, master_seed=101)
    ss = np.random.SeedSequence(trial_seed_for(101, 0, 0, 0))
    graph_seed, coupling_seed, chain_seed = (int(s) for s in ss.generate_state(3))
    cfg = SamplerConfig(
        burn_in_sweeps=config.burn_in_sweeps, thinning_sweeps=config.thinning_sweeps, seed=chain_seed
    )
    return build_graph(config, 32, graph_seed, coupling_seed), config.sample_size(32, 5.0), cfg


def _rr128_chain():
    """An rr d = 3 graph at p = 128, mixed +/-0.4, whose greedy coloring has 4 classes."""
    g = assign_couplings(generate_random_regular(128, 3, 0), CouplingScheme("mixed", 0.4), 7)
    assert len(_color_classes(g)) == 4
    return g, 100, SamplerConfig(burn_in_sweeps=200, thinning_sweeps=10, seed=11)


def _tree40_chain():
    """A random tree on 40 vertices with couplings of random sign and magnitude."""
    return chain_graph("tree", 40, 3), 300, SamplerConfig(burn_in_sweeps=100, thinning_sweeps=3, seed=13)


class TestGibbsGoldenDigests:
    """sha256 of gibbs_sample's int8 samples for three fixed chains, recorded
    from the vertex-ordered kernel before the chain state was held in class
    order. gibbs_reference imports _color_classes and follows gibbs_sample's
    uniform layout, so a change to either moves both sides of
    test_bitwise_equal together; these digests pin the stream itself."""

    @pytest.mark.parametrize("chain, digest", [
        (_sweep_rr32_chain, "a24ef92ac09048a508095597016ea86d269fa405433a61e1a3b978caeb01ca26"),
        (_rr128_chain, "b8f674079583383d6de83fd04c51699f8c5c52df703703d76fced01044847768"),
        (_tree40_chain, "64524215bd239947b2670cca8da2f0e9a959dd78f0b3629e3559aad750842083"),
    ], ids=["sweep_rr32", "rr128", "tree40"])
    def test_stream_is_pinned(self, chain, digest):
        g, n, cfg = chain()
        assert hashlib.sha256(gibbs_sample(g, n, cfg).data.tobytes()).hexdigest() == digest


class TestExactEnumerate:
    def test_single_edge_tanh(self, single_edge):
        m = exact_enumerate(single_edge)
        assert abs(m.covariance[0, 1] - math.tanh(0.4)) < 1e-15
        assert abs(m.covariance[0, 1] - 0.379949) < 1e-6
        expected_log_z = 2 * math.log(2) + math.log(math.cosh(0.4))
        assert abs(m.log_partition - expected_log_z) < 1e-12

    def test_free_spins_identity(self):
        m = exact_enumerate(free_graph(3))
        assert np.abs(m.covariance - np.eye(3)).max() < 1e-14
        assert np.abs(m.mean).max() < 1e-14

    def test_path_distance_two(self, path3):
        m = exact_enumerate(path3)
        assert abs(m.covariance[0, 2] - math.tanh(0.4) ** 2) < 1e-14
        assert abs(m.covariance[0, 2] - 0.144361) < 1e-6

    def test_spin_flip_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = random_paramagnetic_tree(rng, p_max=10)
            m = exact_enumerate(g)
            assert np.abs(m.mean).max() < 1e-13
            assert np.abs(np.diag(m.second_moment()) - 1.0).max() < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError, match="20"):
            exact_enumerate(free_graph(21))

    def test_matches_state_by_state_oracle(self):
        rng = np.random.default_rng(11)
        graphs = [random_paramagnetic_tree(rng, p_max=10) for _ in range(3)]
        # four blocks of 2^14 states, and a loopy graph
        graphs.append(assign_couplings(generate_bethe_tree(16, 3), CouplingScheme.mixed(0.4), seed=4))
        graphs.append(assign_couplings(
            generate_random_regular(10, 3, seed=1), CouplingScheme.mixed(0.4), seed=2))
        for g in graphs:
            m = exact_enumerate(g)
            mean, cov, log_z = enumeration_oracle(g)
            # the oracle adds 2^p terms one at a time
            tol = (1 << g.p) * np.finfo(float).eps
            assert np.abs(m.mean - mean).max() < tol
            assert np.abs(m.covariance - cov).max() < tol
            assert abs(m.log_partition - log_z) < tol

    @pytest.mark.parametrize("graph", [
        # frustrated triangle: no state satisfies all three bonds
        SignedGraph(p=3, edges=((0, 1), (0, 2), (1, 2)),
                    couplings={(0, 1): 400.0, (0, 2): -400.0, (1, 2): 400.0}),
        # the antiferromagnetic last bond puts the peak energy, 6000, where
        # x14 != x15, and 5200 where they agree: weights near e^-800 of the
        # peak underflow to 0 and must not turn into NaN (TestEnumerationSplit
        # moves the peak across every low/high split)
        SignedGraph(p=16, edges=tuple((v, v + 1) for v in range(15)),
                    couplings={(v, v + 1): (-400.0 if v == 14 else 400.0) for v in range(15)}),
    ], ids=["frustrated_triangle", "path16_peak_in_block_1"])
    def test_large_couplings_do_not_overflow(self, graph):
        m = exact_enumerate(graph)
        mean, cov, log_z = enumeration_oracle(graph)
        assert np.isfinite(m.covariance).all() and math.isfinite(m.log_partition)
        assert np.abs(m.mean - mean).max() < 1e-13
        assert np.abs(m.covariance - cov).max() < 1e-13
        assert abs(m.log_partition - log_z) < 1e-12 * abs(log_z)

    @staticmethod
    def _path20(seed):
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], 19)
        return SignedGraph(p=20, edges=tuple((v, v + 1) for v in range(19)),
                           couplings={(v, v + 1): 400.0 * signs[v] for v in range(19)})

    @pytest.mark.parametrize("graph, peak_high", [
        (assign_couplings(generate_bethe_tree(20, 3), CouplingScheme.mixed(0.4), seed=1), None),
        (assign_couplings(generate_bethe_tree(20, 3), CouplingScheme.mixed(0.4), seed=2), None),
        (_path20(2), 12),
        (_path20(9), 23),
    ], ids=["bethe20_seed1", "bethe20_seed2", "path20_peak_at_high_12", "path20_peak_at_high_23"])
    def test_matches_tree_closed_form_at_the_cap(self, graph, peak_high):
        """p = 20, the largest pass: 2^5 high states (spins 14..18, spin 19
        pinned at +1) by 2^14 low states. On the +-400 paths every weight
        but the ground state's underflows to 0, and that state's high bits
        sit in the first half of the high states on one path and in the
        second on the other."""
        if peak_high is not None:
            j = np.array([graph.couplings[(v, v + 1)] for v in range(19)])
            ground = np.cumprod(np.sign(j)[::-1])[::-1]  # x_v = x_{v+1} sign(J_v,v+1)
            assert sum(1 << b for b in range(5) if ground[14 + b] > 0) == peak_high
        m, closed = exact_enumerate(graph), tree_moments(graph)
        assert np.abs(m.covariance - closed.covariance).max() <= 1e-13
        assert abs(m.log_partition - closed.log_partition) <= 1e-12 * abs(closed.log_partition)

    def test_pass_at_the_cap_stays_small(self):
        """One pass at p = 20 holds a 2^5 x 2^14 weight matrix (4 MB), never
        a table of all 2^19 half-states (2^19 x 20 floats, 84 MB)."""
        g = assign_couplings(generate_bethe_tree(20, 3), CouplingScheme.mixed(0.4), seed=1)
        tracemalloc.start()
        try:
            sampler._enumeration_pass(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestOnePassPerGraph:
    """exact_enumerate stores its record on the graph: every later call, and
    enumerate_z_statistics at every node, reads it. The graph's couplings
    are a read-only copy, so the record cannot go stale."""

    @staticmethod
    def _tree():
        return assign_couplings(generate_bethe_tree(10, 3), CouplingScheme.mixed(0.4), seed=6)

    def test_one_pass_serves_every_node(self, monkeypatch):
        passes = []
        real = sampler._enumeration_pass

        def counted(graph):
            passes.append(graph)
            return real(graph)

        monkeypatch.setattr(sampler, "_enumeration_pass", counted)
        g = self._tree()
        m = exact_enumerate(g)
        params = rescaled_theta(g)
        for r in range(g.p):
            enumerate_z_statistics(g, r, params)
        assert exact_enumerate(g) is m
        assert len(passes) == 1

    def test_couplings_refuse_writes(self):
        """A coupling on a non-edge, a flipped sign or a dropped edge would
        reach the sampler unchecked, and on a tree the closed forms and the
        enumeration would part ways: each write raises."""
        g = self._tree()
        edge = g.edges[0]
        with pytest.raises(TypeError):
            g.couplings[(1, 9)] = 0.9
        with pytest.raises(TypeError):
            g.couplings[edge] = -g.couplings[edge]
        with pytest.raises(TypeError):
            del g.couplings[edge]
        assert set(g.couplings) == set(g.edges) and g.is_acyclic()

    def test_callers_later_edit_leaves_graph_unchanged(self):
        g = self._tree()
        passed = dict(g.couplings)
        h = SignedGraph(p=g.p, edges=g.edges, couplings=passed)
        before = exact_enumerate(h)
        passed[(0, 1)] = math.nan
        passed[(1, 9)] = 0.9
        assert h == g and h.couplings == g.couplings
        assert exact_enumerate(h) is before
        assert np.array_equal(before.covariance, exact_enumerate(g).covariance)

    def test_pickled_graph_is_the_same_graph(self):
        """Spawned workers are sent graphs: one that went through pickle
        equals the original, stays read-only and enumerates to the same
        moments."""
        g = self._tree()
        again = pickle.loads(pickle.dumps(g))
        assert again == g
        with pytest.raises(TypeError):
            again.couplings[(1, 9)] = 0.9
        m, m_again = exact_enumerate(g), exact_enumerate(again)
        assert np.array_equal(m.covariance, m_again.covariance)
        assert m.log_partition == m_again.log_partition


class TestEnumerationSplit:
    """exact_enumerate equals the state-by-state oracle however the states
    split into low and high bits: a single block (no high bits but the
    pinned last spin), no low bits at all, every split between, and
    couplings large enough that the peak energy may sit at any high and
    low state and the weights of most states underflow to 0 relative to
    it. The couplings are mixed +/-scale, so from 4 up
    every energy is an exact integer, as in
    test_large_couplings_do_not_overflow: with couplings of arbitrary
    magnitude near 400, energies near 6000 carry a rounding of about
    1e-12 that separates near-degenerate states in any float64 sum, the
    state-by-state one included."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rr", "tree", "star", "free", "loopy"]),
        p=st.integers(1, 10),
        graph_seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([0.4, 4.0, 40.0, 400.0]),
    )
    def test_every_split_matches_oracle(self, kind, p, graph_seed, scale):
        g = chain_graph(kind, p, graph_seed)
        signed = {e: math.copysign(scale, j) for e, j in g.couplings.items()}
        mean, cov, log_z = enumeration_oracle(SignedGraph(p=p, edges=g.edges, couplings=signed))
        # the looser of test_matches_state_by_state_oracle's and
        # test_large_couplings_do_not_overflow's tolerances
        tol = max((1 << p) * np.finfo(float).eps, 1e-13)
        for bits in range(0, p + 1):
            # patched in the body: a function-scoped fixture would be
            # shared by every Hypothesis example
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sampler, "_ENUM_BLOCK_BITS", bits)
                # a fresh graph per split, or its stored pass would answer
                m = exact_enumerate(SignedGraph(p=p, edges=g.edges, couplings=signed))
            assert np.abs(m.mean - mean).max() < tol
            assert np.abs(m.covariance - cov).max() < tol
            assert abs(m.log_partition - log_z) < max(tol, 1e-12 * abs(log_z))


class TestSampleIO:
    def test_text_round_trip(self, tmp_path, path3):
        s = gibbs_sample(path3, 25, SamplerConfig(burn_in_sweeps=10, thinning_sweeps=1, seed=0))
        path = tmp_path / "samples.txt"
        save_samples_text(s, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "p=3 n=25"
        again = load_samples_text(str(path))
        assert np.array_equal(again.data, s.data)

    def test_binary_round_trip(self, tmp_path, path3):
        s = gibbs_sample(path3, 33, SamplerConfig(burn_in_sweeps=10, thinning_sweeps=1, seed=4))
        path = tmp_path / "samples.isng"
        save_samples_binary(s, str(path))
        assert path.read_bytes()[:4] == b"ISNG"
        again = load_samples_binary(str(path))
        assert np.array_equal(again.data, s.data)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_samples_binary(str(path))

    def test_binary_malformed_sizes(self, tmp_path):
        rng = np.random.default_rng(35)
        s = SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(5, 7)))
        path = tmp_path / "samples.isng"
        save_samples_binary(s, str(path))
        blob = path.read_bytes()  # 12-byte header, 35 spins in a 5-byte body
        cases = (
            (blob[:-2], "body has 3 bytes, expected 5"),
            (blob + b"\x00", "body has 6 bytes, expected 5"),
            (blob[:9], "has 9 bytes, expected a 12-byte header"),
        )
        for bad, message in cases:
            path.write_bytes(bad)
            with pytest.raises(ValueError, match=message):
                load_samples_binary(str(path))

    def test_binary_zero_columns_rejected(self, tmp_path):
        path = tmp_path / "samples.isng"
        path.write_bytes(b"ISNG" + np.array([3, 0], dtype="<u4").tobytes())
        with pytest.raises(ValueError, match=r"got shape \(3, 0\)"):
            load_samples_binary(str(path))

    def test_binary_nonzero_padding_rejected(self, tmp_path):
        # n = p = 3: nine spins, so the second body byte carries 7 padding
        # bits, which save_samples_binary always writes as 0
        path = tmp_path / "samples.isng"
        header = b"ISNG" + np.array([3, 3], dtype="<u4").tobytes()
        path.write_bytes(header + b"\xff\x01")
        with pytest.raises(ValueError, match="padding"):
            load_samples_binary(str(path))
        path.write_bytes(header + b"\xff\x80")
        assert load_samples_binary(str(path)).data.min() == 1

    def test_text_header_without_sizes(self, tmp_path):
        """Only save_samples_text's own header shape loads; any other is one
        ValueError that names the header."""
        for header in ("p=3", "n=2", "", "p=2 n=2 q=1", "p n=3", "p=3=4 n=2", "p=x n=2"):
            path = tmp_path / "samples.txt"
            path.write_text(header + "\n1 -1\n-1 1\n")
            with pytest.raises(ValueError) as err:
                load_samples_text(str(path))
            assert str(err.value) == f"sample file header {header!r} is not p=<p> n=<n>"


def _random_samples(seed: int, n: int, p: int) -> SampleMatrix:
    rng = np.random.default_rng(seed)
    return SampleMatrix(rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, p)))


def _write_binary(path, samples: SampleMatrix) -> bytes:
    save_samples_binary(samples, str(path))
    return path.read_bytes()


sizes = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), p=st.integers(1, 12))


class TestSampleFileFuzz:
    """Malformed sample files raise ValueError at the loader, never load."""

    @settings(max_examples=60, deadline=None)
    @given(**sizes, cut=st.integers(1, 30))
    def test_binary_truncated(self, tmp_path_factory, seed, n, p, cut):
        path = tmp_path_factory.mktemp("fuzz") / "s.isng"
        blob = _write_binary(path, _random_samples(seed, n, p))
        path.write_bytes(blob[:max(len(blob) - cut, 0)])
        with pytest.raises(ValueError):
            load_samples_binary(str(path))

    @settings(max_examples=60, deadline=None)
    @given(**sizes, extra=st.binary(min_size=1, max_size=9))
    def test_binary_extended(self, tmp_path_factory, seed, n, p, extra):
        path = tmp_path_factory.mktemp("fuzz") / "s.isng"
        path.write_bytes(_write_binary(path, _random_samples(seed, n, p)) + extra)
        with pytest.raises(ValueError):
            load_samples_binary(str(path))

    @settings(max_examples=60, deadline=None)
    @given(**sizes, n2=st.integers(0, 40), p2=st.integers(0, 40))
    def test_binary_header_body_mismatch(self, tmp_path_factory, seed, n, p, n2, p2):
        if (n2 * p2 + 7) // 8 == (n * p + 7) // 8:
            return  # same body size: a different but well-formed file
        path = tmp_path_factory.mktemp("fuzz") / "s.isng"
        blob = _write_binary(path, _random_samples(seed, n, p))
        path.write_bytes(blob[:4] + np.array([n2, p2], dtype="<u4").tobytes() + blob[12:])
        with pytest.raises(ValueError):
            load_samples_binary(str(path))

    @settings(max_examples=60, deadline=None)
    @given(**sizes, pad_bits=st.integers(1, 127))
    def test_binary_padding_bits(self, tmp_path_factory, seed, n, p, pad_bits):
        pad = -(n * p) % 8
        if pad == 0:
            return  # n * p a multiple of 8: no padding to corrupt
        path = tmp_path_factory.mktemp("fuzz") / "s.isng"
        blob = bytearray(_write_binary(path, _random_samples(seed, n, p)))
        blob[-1] |= pad_bits % (1 << pad) or 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="padding"):
            load_samples_binary(str(path))

    @settings(max_examples=60, deadline=None)
    @given(
        **sizes,
        token=st.one_of(
            st.integers().filter(lambda v: v not in (-1, 1)).map(str),
            st.floats(allow_nan=True).filter(lambda v: v not in (-1.0, 1.0)).map(repr),
            st.sampled_from(["1.0", "-1.0", "x", "1e0", "--1", "1-", "+-1", "0x1"]),
        ),
        where=st.integers(0, 10**6),
    )
    def test_text_bad_entry(self, tmp_path_factory, seed, n, p, token, where):
        path = tmp_path_factory.mktemp("fuzz") / "s.txt"
        save_samples_text(_random_samples(seed, n, p), str(path))
        lines = path.read_text().splitlines()
        row = 1 + where % n
        cells = lines[row].split()
        cells[where % p] = token
        lines[row] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_samples_text(str(path))

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    @settings(max_examples=60, deadline=None)
    @given(**sizes, drop=st.integers(1, 12), add=st.integers(0, 3))
    def test_text_body_mismatch(self, tmp_path_factory, seed, n, p, drop, add):
        path = tmp_path_factory.mktemp("fuzz") / "s.txt"
        save_samples_text(_random_samples(seed, n, p), str(path))
        lines = path.read_text().splitlines()
        lines = lines[:max(len(lines) - drop, 1)] + lines[1:1 + add]
        if len(lines) == n + 1:
            return  # rows dropped and re-added: the body matches again
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_samples_text(str(path))


class TestMomentsType:
    def test_second_moment_identity(self):
        """With no external field the second moment is the covariance, and
        the mean is zero."""
        m = ExactMoments(covariance=np.array([[1.0, 0.3], [0.3, 1.0]]), log_partition=0.0)
        assert m.second_moment() is m.covariance
        assert m.mean.tolist() == [0.0, 0.0]

    def test_moments_read_only(self):
        cov = np.array([[1.0, 0.1], [0.1, 1.0]])
        m = ExactMoments(covariance=cov, log_partition=0.0)
        cov[0, 1] = 0.0  # the record holds a copy
        assert m.covariance[0, 1] == 0.1
        for arr in (m.covariance, exact_enumerate(free_graph(3)).covariance):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] += 1.0

    def test_second_moment_cached_read_only(self):
        m = ExactMoments(covariance=np.array([[1.0, 0.1], [0.1, 1.0]]), log_partition=0.0)
        assert m.second_moment() is m.second_moment()
        assert not m.second_moment().flags.writeable

    @pytest.mark.parametrize("off", [2e-5, -2e-5, np.nan])
    def test_diagonal_off_one_rejected(self, off):
        with pytest.raises(ValueError, match="unit diagonal"):
            ExactMoments(covariance=np.diag([1.0, 1.0 + off]), log_partition=0.0)

    @pytest.mark.parametrize("off", [1e-6, -1e-6])
    def test_diagonal_within_tolerance_accepted(self, off):
        m = ExactMoments(covariance=np.diag([1.0, 1.0 + off]), log_partition=0.0)
        assert m.second_moment()[1, 1] == 1.0 + off
