import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from isinglasso.graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    generate_bethe_tree,
    generate_random_regular,
)
from isinglasso.sampler import (
    ExactMoments,
    SampleMatrix,
    SamplerConfig,
    estimate_magnetization,
    exact_enumerate,
    gibbs_sample,
    load_samples_binary,
    load_samples_text,
    save_samples_binary,
    save_samples_text,
)
from conftest import random_paramagnetic_tree
from oracles import enumeration_oracle


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
        assert a.provenance == b.provenance

    def test_free_spins_are_fair_coins(self):
        s = gibbs_sample(free_graph(4), 100_000, SamplerConfig(burn_in_sweeps=0, thinning_sweeps=1, seed=3))
        means = estimate_magnetization(s)
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(burn_in_sweeps=-1)
        with pytest.raises(ValueError):
            SamplerConfig(thinning_sweeps=0)


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
        # x14 != x15: past the first block of 2^14 states (x14 = x15 = -1,
        # peak 5200), so the running maximum must grow by 800
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


class TestMagnetization:
    def test_constant_matrix(self):
        s = SampleMatrix(np.ones((4, 3), dtype=np.int8))
        assert estimate_magnetization(s).tolist() == [1.0, 1.0, 1.0]

    def test_balanced_matrix(self):
        s = SampleMatrix(np.array([[1, -1], [-1, 1]], dtype=np.int8))
        assert estimate_magnetization(s).tolist() == [0.0, 0.0]


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
        for header in ("p=3", "n=2", ""):
            path = tmp_path / "samples.txt"
            path.write_text(header + "\n1 -1 1\n-1 1 1\n")
            with pytest.raises(ValueError, match="p=<p> n=<n>"):
                load_samples_text(str(path))


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
        m = ExactMoments(mean=np.array([0.5]), covariance=np.array([[0.75]]), log_partition=0.0)
        assert abs(m.second_moment()[0, 0] - 1.0) < 1e-15
