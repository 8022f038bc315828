"""Spin sampling for pairwise models with +/-1 variables.

The joint distribution is P(x) = exp{ sum_{(r,t) in E, r<t} J_rt x_r x_t } / Z,
one coupling per unordered edge, zero external field. Under this convention
a single edge with weight J has E[x_r x_t] = tanh(J), and on any forest the
pair correlation is the product of tanh(J_e) along the connecting path.

Provides a heat-bath Gibbs sampler for arbitrary graphs and an exact
2^p enumeration oracle for small ones, plus text/binary sample file IO.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .graphs import SignedGraph

ENUMERATION_CAP = 20
_ENUM_BLOCK_BITS = 14  # 2^14 states per block
_BINARY_MAGIC = b"ISNG"


@dataclass(frozen=True)
class SamplerConfig:
    """Gibbs chain settings. thinning_sweeps full-lattice sweeps separate
    retained samples; defaults validated empirically by the moment-matching
    acceptance test."""

    burn_in_sweeps: int = 1000
    thinning_sweeps: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.burn_in_sweeps < 0:
            raise ValueError("burn_in_sweeps must be >= 0")
        if self.thinning_sweeps < 1:
            raise ValueError("thinning_sweeps must be >= 1")

    def digest(self) -> str:
        return f"gibbs:burn={self.burn_in_sweeps}:thin={self.thinning_sweeps}:seed={self.seed}"


@dataclass(frozen=True)
class SampleMatrix:
    """n x p matrix of spins in {-1,+1}; immutable once returned."""

    data: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValueError(f"sample data must be 2-D with n, p >= 1, got shape {arr.shape}")
        # check before the int8 cast, which would turn 257 or 1.7 into +1
        if not np.isin(arr, (-1, 1)).all():
            raise ValueError("sample entries must be -1 or +1")
        arr = arr.astype(np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def as_float(self) -> np.ndarray:
        return self.data.astype(np.float64)

    def second_moment(self) -> np.ndarray:
        """(X^T X)/n, built once and cached read-only. Its entries are
        integer counts over n, exact in float64, so the diagonal is exactly
        1 and every node's slice equals that node's own design Gram."""
        second = self.__dict__.get("_second_moment")
        if second is None:
            x = self.as_float()
            second = (x.T @ x) / self.n
            second.setflags(write=False)
            object.__setattr__(self, "_second_moment", second)
        return second


@dataclass(frozen=True)
class ExactMoments:
    """Exact mean vector, covariance matrix and log partition function."""

    mean: np.ndarray
    covariance: np.ndarray
    log_partition: float

    def second_moment(self) -> np.ndarray:
        """E[x x^T]; unit diagonal for +/-1 spins."""
        return self.covariance + np.outer(self.mean, self.mean)


def node_moments(second: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Node r's regression data from a full second-moment matrix: the
    predictor block Q (row and column r deleted) and the cross-moment
    vector b (column r without entry r)."""
    q = np.delete(np.delete(second, r, axis=0), r, axis=1)
    b = np.delete(second[:, r], r)
    return q, b


def _color_classes(graph: SignedGraph) -> list[np.ndarray]:
    """Greedy proper coloring; vertices in one class are pairwise
    non-adjacent, so their heat-bath updates commute within a sweep."""
    color = np.full(graph.p, -1, dtype=np.int64)
    for v in range(graph.p):
        used = {color[u] for u in graph.neighbors[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return [np.flatnonzero(color == c) for c in range(int(color.max()) + 1)]


def gibbs_sample(graph: SignedGraph, n: int, config: SamplerConfig) -> SampleMatrix:
    """Draw n spin configurations by single-site heat-bath Gibbs sampling.

    Each site update sets x_r = +1 with probability 1/(1 + exp(-2 h_r)),
    h_r = sum_{t in N(r)} J_rt x_t. A sweep visits every site once
    (grouped by graph coloring, which leaves the kernel unchanged since
    same-color sites do not interact). Deterministic given config.seed.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    graph._require_couplings()
    p = graph.p
    rng = np.random.default_rng(config.seed)
    J = graph.coupling_matrix()
    classes = _color_classes(graph)
    class_rows = [J[c] for c in classes]

    x = np.where(rng.random(p) < 0.5, 1.0, -1.0)

    def sweep():
        for c, rows in zip(classes, class_rows):
            h = rows @ x
            prob_up = 1.0 / (1.0 + np.exp(-2.0 * h))
            x[c] = np.where(rng.random(c.size) < prob_up, 1.0, -1.0)

    for _ in range(config.burn_in_sweeps):
        sweep()
    out = np.empty((n, p), dtype=np.int8)
    for i in range(n):
        for _ in range(config.thinning_sweeps):
            sweep()
        out[i] = x
    graph_tag = hashlib.sha256(graph.to_json().encode()).hexdigest()[:12]
    return SampleMatrix(data=out, provenance=f"{config.digest()}:graph={graph_tag}")


def exact_enumerate(graph: SignedGraph) -> ExactMoments:
    """Exact moments by summing over all 2^p configurations; capped at
    p <= ENUMERATION_CAP.

    States come in blocks of up to 2^_ENUM_BLOCK_BITS: the low-bit spin
    columns are filled once and the high-bit columns, constant within a
    block, once per block. A trailing column of ones makes one product per
    block accumulate the total weight, the first and the second moment.
    Weights are taken relative to the largest energy seen so far and the
    sums are rescaled whenever it grows, so large couplings cannot overflow.
    """
    if graph.p > ENUMERATION_CAP:
        raise ValueError(
            f"exact enumeration capped at p <= {ENUMERATION_CAP}, got p = {graph.p}"
        )
    graph._require_couplings()
    p = graph.p
    low = min(p, _ENUM_BLOCK_BITS)
    spins = np.ones((1 << low, p + 1))
    spins[:, :low] = 2.0 * ((np.arange(1 << low)[:, None] >> np.arange(low)) & 1) - 1.0
    half_j = np.pad(0.5 * graph.coupling_matrix(), (0, 1))
    # One work block and two vectors serve every block. Fresh block-sized
    # temporaries were page-faulted in anew on every block in some
    # processes and not in others, by where the heap happened to sit
    # (55k against 3k minor faults per enumerate_tree20 benchmark op, 700
    # against 510 ms on a 2-core host), so run times split in two.
    work = np.empty_like(spins)
    energy = np.empty(1 << low)
    w = np.empty(1 << low)
    top = -np.inf
    sums = np.zeros((p + 1, p + 1))
    for high in range(1 << (p - low)):
        spins[:, low:p] = 2.0 * ((high >> np.arange(p - low)) & 1) - 1.0
        np.einsum("ij,ij->i", np.matmul(spins, half_j, out=work), spins, out=energy)
        peak = float(energy.max())
        if peak > top:
            sums *= math.exp(top - peak)
            top = peak
        np.exp(np.subtract(energy, top, out=w), out=w)
        sums += spins.T @ np.multiply(spins, w[:, None], out=work)
    total = sums[p, p]
    mean = sums[:p, p] / total
    covariance = sums[:p, :p] / total - np.outer(mean, mean)
    return ExactMoments(mean=mean, covariance=covariance, log_partition=top + math.log(total))


def estimate_magnetization(samples: SampleMatrix) -> np.ndarray:
    """Per-spin empirical means (zero in the paramagnetic phase)."""
    return samples.as_float().mean(axis=0)


def magnetization_warning_threshold(n: int) -> float:
    """|mean| above this on paramagnetic data suggests a mixing problem."""
    return 15.0 / np.sqrt(n)


def save_samples_text(samples: SampleMatrix, path: str) -> None:
    """Header line "p=<p> n=<n>", then one space-separated row per sample."""
    with open(path, "w") as fh:
        fh.write(f"p={samples.p} n={samples.n}\n")
        np.savetxt(fh, samples.data, fmt="%d")


def load_samples_text(path: str) -> SampleMatrix:
    with open(path) as fh:
        header = fh.readline().split()
        fields = dict(part.split("=") for part in header)
        if "p" not in fields or "n" not in fields:
            raise ValueError(f"sample file header {' '.join(header)!r} lacks p=<p> n=<n>")
        p, n = int(fields["p"]), int(fields["n"])
        data = np.loadtxt(fh, dtype=np.int8, ndmin=2)
    if data.shape != (n, p):
        raise ValueError(f"sample file body {data.shape} does not match header ({n}, {p})")
    return SampleMatrix(data=data)


def save_samples_binary(samples: SampleMatrix, path: str) -> None:
    """Compact format: magic "ISNG", little-endian u32 n, u32 p, then the
    row-major spin sequence bit-packed (bit 1 encodes +1)."""
    bits = (samples.data.reshape(-1) > 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(np.array([samples.n, samples.p], dtype="<u4").tobytes())
        fh.write(np.packbits(bits).tobytes())


def load_samples_binary(path: str) -> SampleMatrix:
    """Inverse of save_samples_binary; a short header, a truncated body,
    trailing bytes or nonzero padding bits raise ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:4]
    if magic != _BINARY_MAGIC:
        raise ValueError(f"bad magic bytes {magic!r}, expected {_BINARY_MAGIC!r}")
    if len(blob) < 12:
        raise ValueError(f"binary sample file has {len(blob)} bytes, expected a 12-byte header")
    n, p = (int(v) for v in np.frombuffer(blob, dtype="<u4", count=2, offset=4))
    body = (n * p + 7) // 8
    if len(blob) - 12 != body:
        raise ValueError(
            f"binary sample body has {len(blob) - 12} bytes, expected {body} for n={n}, p={p}"
        )
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=12))
    if bits[n * p:].any():  # save_samples_binary zeroes the bits after the last spin
        raise ValueError(f"binary sample body has nonzero padding bits after {n * p} spins")
    data = (2 * bits[:n * p].astype(np.int8) - 1).reshape(n, p)
    return SampleMatrix(data=data)
