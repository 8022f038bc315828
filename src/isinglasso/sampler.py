"""Spin sampling for pairwise models with +/-1 variables.

The joint distribution is P(x) = exp{ sum_{(r,t) in E, r<t} J_rt x_r x_t } / Z,
one coupling per unordered edge, zero external field. Under this convention
a single edge with weight J has E[x_r x_t] = tanh(J), and on any forest the
pair correlation is the product of tanh(J_e) along the connecting path.

Provides a heat-bath Gibbs sampler for arbitrary graphs and an exact
2^p enumeration oracle for small ones, plus text/binary sample file IO.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv

from .graphs import SignedGraph, require_int

ENUMERATION_CAP = 20
_ENUM_BLOCK_BITS = 14  # 2^14 low states
_BLOCK_UNIFORMS = 8192  # per Gibbs generator call: 64 KB of thresholds at any p
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
        require_int("burn_in_sweeps", self.burn_in_sweeps, 0)
        require_int("thinning_sweeps", self.thinning_sweeps, 1)
        require_int("seed", self.seed, 0)


@dataclass(frozen=True)
class SampleMatrix:
    """n x p matrix of spins in {-1,+1}; immutable once returned."""

    data: np.ndarray

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
    """Exact covariance matrix and log partition function; immutable once
    built, as the covariance is stored as a read-only float64 copy. The
    model has no external field, so the mean is exactly 0 and the
    covariance is the second moment E[x x^T]. Construction rejects a
    diagonal that fails np.allclose(., 1, atol=1e-9), with numpy's default
    rtol of 1e-5, so off 1 by more than about 1.0001e-5, or NaN: the unit
    diagonal the Lasso kernel relies on."""

    covariance: np.ndarray
    log_partition: float

    def __post_init__(self):
        cov = np.array(self.covariance, dtype=np.float64)
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        if not np.allclose(np.diag(cov), 1.0, atol=1e-9):
            raise ValueError("E[x x^T] must have unit diagonal for +/-1 spins")

    @property
    def mean(self) -> np.ndarray:
        """E[x], exactly 0; derived, not stored (perfbench reads its size)."""
        return np.zeros(self.covariance.shape[0])

    def second_moment(self) -> np.ndarray:
        """E[x x^T]: the covariance itself, read-only."""
        return self.covariance


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
    h_r = sum_{t in N(r)} J_rt x_t. A sweep visits every site once, class
    by class of a graph coloring (same-class sites do not interact). The
    state is held in class order, so a class is one slice of it and its
    rows of J one contiguous block; its step is two in-place calls (a BLAS
    gemv adds the block's product into the class's thresholds, whose signs
    are copied into the slice), and vertex order is restored once at the end.
    The update runs as h_r > g with threshold g = log(u / (1 - u)) / 2, u
    drawn _BLOCK_UNIFORMS // p sweeps at a time and laid out class by class:
    a tie sets -1, as u = 1/2 does at h_r = 0, and u = 0 sets +1. The
    samples depend only on config.seed (with the graph, n and the sweep
    counts), not on the block size, since the generator's stream does not.
    """
    require_int("sample count n", n, 1)
    graph._require_couplings()
    p = graph.p
    rng = np.random.default_rng(config.seed)
    classes = _color_classes(graph)
    order = np.concatenate(classes)
    J = graph.coupling_matrix()[np.ix_(order, order)]
    bounds = np.cumsum([0] + [c.size for c in classes])
    # The chain holds y = -x, so g + rows @ y = g - h and its sign is y's
    # update, a tie's +0 included. dgemv with beta = 1 adds rows @ y into the
    # class's own slots of the sweep's fresh threshold row, each read once
    # after, so no copy is needed. A sweep costs per-call overhead, not flops:
    # dgemv takes its arguments by position (keywords cost ~550 ns a call).
    y = np.where(rng.random(p) < 0.5, -1.0, 1.0)[order]
    steps = [(J[a:b].T, a, b, y[a:b], np.ones(b - a)) for a, b in zip(bounds, bounds[1:])]
    copysign = np.copysign
    total = config.burn_in_sweeps + n * config.thinning_sweeps
    block = max(1, _BLOCK_UNIFORMS // p)
    kept_y = np.empty((n, p), dtype=np.int8)
    for start in range(0, total, block):
        u = rng.random((min(block, total - start), p))
        with np.errstate(divide="ignore"):
            g = 0.5 * np.log(u / (1.0 - u))
        for sweep, gs in enumerate(g, start + 1):
            for rows_t, a, b, y_c, ones in steps:
                dgemv(1.0, rows_t, y, 1.0, gs, 0, 1, a, 1, 1, 1)
                copysign(ones, gs[a:b], y_c)
            kept = sweep - config.burn_in_sweeps
            if kept > 0 and kept % config.thinning_sweeps == 0:
                kept_y[kept // config.thinning_sweeps - 1] = y
    return SampleMatrix(data=-kept_y[:, np.argsort(order)])


def _spin_table(bits: int) -> np.ndarray:
    """The 2^bits spin states as columns: row b holds bit b of the column
    index as -1/+1, in runs of 2^b -1s and then 2^b +1s."""
    table = np.empty((bits, 1 << bits))
    for b in range(bits):
        runs = table[b].reshape(-1, 2, 1 << b)
        runs[:, 0] = -1.0
        runs[:, 1] = 1.0
    return table


def exact_enumerate(graph: SignedGraph) -> ExactMoments:
    """Exact moments by summing over the 2^p configurations; capped at
    p <= ENUMERATION_CAP.

    The first call makes the pass and stores its record on the graph, whose
    couplings are read-only; a later call returns that record, so every
    caller of one graph (enumerate_z_statistics for each node, say) shares
    one pass. The record is read-only.
    """
    if graph.p > ENUMERATION_CAP:
        raise ValueError(
            f"exact enumeration capped at p <= {ENUMERATION_CAP}, got p = {graph.p}"
        )
    graph._require_couplings()
    stored = graph.__dict__.get("_exact_moments")
    if stored is None:
        stored = _enumeration_pass(graph)
        object.__setattr__(graph, "_exact_moments", stored)
    return stored


def _enumeration_pass(graph: SignedGraph) -> ExactMoments:
    """One pass over the half of the states with x_{p-1} = +1. With no
    external field E(x) = E(-x), so the mean is exactly 0, the second
    moment is the half's sums over the half's total, and Z is twice that
    total.

    A state splits into its low bits l (the first low = min(p - 1,
    _ENUM_BLOCK_BITS) spins) and its high bits h (spins low..p-1, the last
    pinned), with energy E = E_low(l) + E_high(h) + h.(J_hl l). The low
    states, as columns with a trailing row of ones, and each high state's
    field [h J_hl, E_high(h)] are built once; one product of the two, plus
    E_low, is the energy of every state as a high x low matrix (at most
    2^5 x 2^14, 4 MB, at the cap). Its weights, taken relative to its
    largest entry so that large couplings cannot overflow, times the low
    states give the per-high-state sums (the ones row gives their totals),
    from which the low-high and high-high moments come; the low-low moments
    come from the weights summed over high states. States lie on the
    contiguous axis, so every 2^low-term sum is a BLAS dot product.
    """
    p = graph.p
    low = min(p - 1, _ENUM_BLOCK_BITS)
    j = np.triu(graph.coupling_matrix())  # each edge once
    # low states as columns, high states (spin p-1 at +1) as rows, each with a trailing one
    lows = np.ones((low + 1, 1 << low))
    lows[:low] = _spin_table(low)
    highs = np.ones((1 << (p - 1 - low), p - low + 1))
    highs[:, :-2] = _spin_table(p - 1 - low).T
    hs = highs[:, :-1]
    e_low = np.einsum("ij,ij->j", j[:low, :low] @ lows[:low], lows[:low])
    field = np.empty((len(hs), low + 1))
    field[:, :low] = hs @ j[:low, low:].T
    field[:, low] = np.einsum("ij,ij->i", hs @ j[low:, low:], hs)
    energy = field @ lows
    energy += e_low
    top = float(energy.max())
    np.exp(np.subtract(energy, top, out=energy), out=energy)
    low_weight = energy.sum(axis=0)
    per_high = energy @ lows.T
    # freed before the low-low temporary: at an 8 MB peak some processes
    # gave the heap back after each pass and page-faulted it in again
    del energy
    sums = np.empty((p + 1, p + 1))
    lo = np.r_[:low, p]
    sums[np.ix_(lo, lo)] = (lows * low_weight) @ lows.T
    sums[low:, lo] = highs.T @ per_high
    sums[lo, low:] = sums[low:, lo].T
    sums[low:p, low:p] = (hs * per_high[:, low:]).T @ hs
    total = sums[p, p]
    return ExactMoments(covariance=sums[:p, :p] / total, log_partition=top + math.log(2.0 * total))


def save_samples_text(samples: SampleMatrix, path: str) -> None:
    """Header line "p=<p> n=<n>", then one space-separated row per sample."""
    with open(path, "w") as fh:
        fh.write(f"p={samples.p} n={samples.n}\n")
        np.savetxt(fh, samples.data, fmt="%d")


def load_samples_text(path: str) -> SampleMatrix:
    """Inverse of save_samples_text; a header other than "p=<p> n=<n>" or a
    body of another shape raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip()
        sizes = re.fullmatch(r"p=([0-9]+) n=([0-9]+)", header)
        if sizes is None:
            raise ValueError(f"sample file header {header!r} is not p=<p> n=<n>")
        p, n = int(sizes[1]), int(sizes[2])
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
