"""Closed-form population quantities for spin models on acyclic graphs.

On a forest at zero field the pair correlation is the product of tanh(J_e)
over the unique connecting path, the inverse covariance is sparse with
support on the graph, and the population least-squares regression of one
spin on the rest has an explicit solution that keeps the sign pattern of
the couplings. Degree-regular graphs additionally admit scalar constants
(support-block eigenvalue floor, incoherence margin) in closed form.

All of these are wrong on graphs with cycles, so the tree-only operations
reject cyclic inputs outright instead of returning plausible garbage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .graphs import SignedGraph, require_int, require_number, support_vertices
from .sampler import ExactMoments

EIG_FLOOR = 1e-12


class SingularMatrixError(ValueError):
    """Support block is numerically singular; carries the offending eigenvalue."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


def _require_acyclic(graph: SignedGraph) -> None:
    if not graph.is_acyclic():
        raise ValueError(
            "operation is only defined on acyclic graphs: the closed forms "
            "are exact on trees and wrong in the presence of cycles"
        )


@dataclass(frozen=True)
class RescaledParams:
    """Population regression targets theta_tilde per ordered pair.

    matrix[r, t] is the coefficient of spin t when regressing spin r on all
    others; zero exactly on non-edges. On edges it equals
    tanh(J_rt) / (1 - tanh^2 J_rt) / s_r, where the per-vertex prefactor
    s_r = sum_{u in N(r)} 1/(1 - tanh^2 J_ru) - d_r + 1 is the diagonal of
    the inverse covariance.
    """

    matrix: np.ndarray

    @cached_property
    def min_magnitude(self) -> float:
        """Smallest |theta_tilde| over ordered pairs that are edges."""
        nz = np.abs(self.matrix[self.matrix != 0.0])
        return float(nz.min()) if nz.size else 0.0


@dataclass(frozen=True)
class RRConstants:
    """Scalar theory constants for degree-d regular graphs with uniform
    coupling magnitude theta0."""

    d: int
    theta0: float
    c_min: float
    alpha: float
    lambda_max_qss: float
    theta_tilde_rr: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0.0 < self.c_min <= 1.0):
            raise ValueError("c_min must lie in (0, 1]")
        if self.lambda_max_qss < 1.0:
            raise ValueError("lambda_max_qss must be >= 1")

    @property
    def kappa_floor(self) -> float:
        """Dual-feasibility floor kappa* = 2 sigma / alpha of the penalty
        constant, with sigma^2 = c_min / lambda_max_qss the variance of the
        population regression residual (docs/decisions.md)."""
        return 2.0 * math.sqrt(self.c_min / self.lambda_max_qss) / self.alpha


def bethe_inverse_covariance(graph: SignedGraph) -> np.ndarray:
    """Inverse covariance of an acyclic model: diagonal
    sum_u 1/(1-tanh^2 J_ru) - d_r + 1, off-diagonal
    -tanh(J_rt)/(1-tanh^2 J_rt) on edges, zero elsewhere. ValueError names
    an edge whose tanh J is +-1 in float64 (|J| from about 18.99 on), where
    1 - tanh^2 J is 0."""
    _require_acyclic(graph)
    graph._require_couplings()
    p = graph.p
    out = np.zeros((p, p))
    diag = np.ones(p) - graph.degrees.astype(np.float64)
    for (r, t), j in graph.couplings.items():
        th = np.tanh(j)
        sech2 = 1.0 - th * th
        if sech2 == 0.0:
            raise ValueError(
                f"coupling {j} on edge ({r},{t}) saturates: tanh J is {th:+.0f} in float64"
            )
        diag[r] += 1.0 / sech2
        diag[t] += 1.0 / sech2
        out[r, t] = out[t, r] = -th / sech2
    out[np.diag_indices(p)] = diag
    return out


def tree_covariance(graph: SignedGraph) -> np.ndarray:
    """Pair correlations E[x_r x_t] on an acyclic graph: unit diagonal and
    the product of tanh(J_e) along the unique r-t path (zero across
    components). Entry [R, u] is cov[R, v] * tanh(J_vu), v the neighbour of
    u toward R, filled by two passes of slices over one preorder per
    component, where position k's subtree is [k, end[k]) (docs/decisions.md)."""
    _require_acyclic(graph)
    graph._require_couplings()
    p = graph.p
    tanh_edges: list[list[tuple[int, float]]] = [[] for _ in range(p)]
    for (r, t), j in graph.couplings.items():
        th = math.tanh(j)
        tanh_edges[r].append((t, th))
        tanh_edges[t].append((r, th))
    order, parent, th_up = [], [], []  # preorder; parent and tanh by position
    seen = [False] * p
    for root in range(p):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, -1, 1.0)]
        while stack:
            v, up, th = stack.pop()
            for u, th_vu in tanh_edges[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append((u, len(order), th_vu))
            order.append(v)
            parent.append(up)
            th_up.append(th)
    # ct[v, R] holds cov[R, v] by preorder position, so every slice is a row
    ct = np.eye(p)
    end = list(range(1, p + 1))
    for k in range(p - 1, -1, -1):  # R in k's subtree: the parent's step toward R is k
        j = parent[k]
        if j >= 0:
            ct[j, k:end[k]] = ct[k, k:end[k]] * th_up[k]
            end[j] = max(end[j], end[k])
    for k in range(p):  # R outside k's subtree: k's step toward R is its parent
        j = parent[k]
        if j < 0:
            lo, hi = k, end[k]  # a root's subtree is its component
        else:
            ct[k, lo:k] = ct[j, lo:k] * th_up[k]
            ct[k, end[k]:hi] = ct[j, end[k]:hi] * th_up[k]
    pos = np.argsort(order)
    return ct.T[pos[:, None], pos]


def tree_moments(graph: SignedGraph) -> ExactMoments:
    """Exact population moments of an acyclic model in closed form: zero
    mean, path-product covariance, and log Z = p log 2 + sum_e log cosh J_e."""
    cov = tree_covariance(graph)
    log_z = graph.p * math.log(2.0) + sum(
        math.log(math.cosh(j)) for j in graph.couplings.values()
    )
    return ExactMoments(covariance=cov, log_partition=log_z)


def rescaled_theta(graph: SignedGraph) -> RescaledParams:
    """Solve the population zero-gradient condition of the per-node square
    loss on an acyclic graph.

    The solution is a rescaled copy of the couplings: same support, same
    signs, magnitudes shrunk by the per-vertex prefactor. Computed from the
    sparse inverse covariance (theta_tilde[r, t] = -inv[r, t] / inv[r, r]).
    """
    inv = bethe_inverse_covariance(graph)
    matrix = -inv / np.diag(inv)[:, None]
    np.fill_diagonal(matrix, 0.0)
    return RescaledParams(matrix=matrix)


def rr_constants(d: int, theta0: float) -> RRConstants:
    """Closed-form theory constants for degree-d regular graphs.

    The support block of the population covariance has unit diagonal and
    constant off-diagonal tanh^2(theta0), hence exactly two eigenvalues:
    1 - tanh^2 (multiplicity d-1, the floor c_min) and 1 + (d-1) tanh^2.
    The incoherence norm equals tanh(theta0), giving alpha = 1 - tanh(theta0).
    A degree-d vertex regressed on the rest has coefficient magnitude
    theta_tilde_rr = tanh(theta0) / (1 + (d-1) tanh^2) on every neighbor.
    ValueError names a theta0 whose tanh is 1 in float64 (about 19.06 on).
    """
    require_int("d", d, 3)
    if require_number("theta0", theta0) <= 0:
        raise ValueError("theta0 must be positive")
    th = math.tanh(theta0)
    if th == 1.0:
        raise ValueError(f"theta0 {theta0} saturates: tanh theta0 is +1 in float64")
    return RRConstants(
        d=d,
        theta0=theta0,
        c_min=1.0 - th * th,
        alpha=1.0 - th,
        lambda_max_qss=1.0 + (d - 1) * th * th,
        theta_tilde_rr=th / (1.0 + (d - 1) * th * th),
    )


def support_conditions(
    q_full: np.ndarray, r: int, support: list[int] | tuple[int, ...]
) -> tuple[float, float]:
    """Both recovery conditions of node r's support block, from one
    eigensolve: the smallest eigenvalue of Q_SS and the max-absolute-row-sum
    norm of Q_{S^c S} (Q_SS)^{-1}. Q is q_full read by vertex label: S is
    the given support vertices and S^c every other vertex except r. Raises
    ValueError for an empty support, r or a support vertex outside 0..p-1,
    an inf or NaN in Q's columns at S or a failed LAPACK call, and
    SingularMatrixError (carrying the eigenvalue) when Q_SS is singular,
    since the norm is then undefined. The norm takes the column sums of |Q_SS^{-1} Q_{S,v}| over
    every v but S and r, from the LAPACK routines scipy's cho_solve calls,
    with its floats (docs/decisions.md)."""
    s = support_vertices(support, q_full.shape[0], r)
    if not s.size:
        raise ValueError("support must be nonempty")
    rhs = q_full[:, s].T  # Q_{S,v} for every vertex v, read from Q's columns at S
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    q_ss = q_full[s[:, None], s]
    eig_min = float(np.linalg.eigvalsh(q_ss).min())
    if eig_min <= EIG_FLOOR:
        raise SingularMatrixError(
            f"support covariance block is singular (min eigenvalue {eig_min:.3e})",
            min_eigenvalue=eig_min,
        )
    factor, info = dpotrf(q_ss, clean=0)
    if info == 0:
        x, info = dpotrs(factor, rhs, overwrite_b=1)
    if info != 0:
        raise ValueError(f"LAPACK Cholesky failed on the support block (info {info})")
    norms = np.abs(x.T).sum(axis=1)
    norms[s] = norms[r] = 0.0
    return eig_min, float(norms.max())


@dataclass(frozen=True)
class ThresholdReport:
    """Both sides of the minimum-signal condition for exact signed
    recovery: theta_tilde_min against 6 * lambda * sqrt(d) / c_min. c_min
    and incoherence are the worst support-block eigenvalue floor and
    incoherence norm over the vertices."""

    theta_tilde_min: float
    c_min: float
    incoherence: float
    max_degree: int
    lam: float
    threshold: float
    passes: bool


def theorem_thresholds(graph: SignedGraph, lam: float) -> ThresholdReport:
    """Evaluate the minimum-rescaled-magnitude condition on an acyclic
    graph, with c_min taken as the minimum over vertices of the smallest
    support-block eigenvalue of the population covariance, and report the
    largest incoherence norm from the same eigensolves. Raises
    SingularMatrixError when a support block is singular, and ValueError
    for a lambda that is not a finite number >= 0."""
    if require_number("lambda", lam) < 0:
        raise ValueError("lambda must be >= 0")
    params = rescaled_theta(graph)
    cov = tree_covariance(graph)
    c_min, incoherence = 1.0, 0.0
    for r in range(graph.p):
        nbrs = graph.neighbors[r]
        if nbrs:
            eig_min, inc = support_conditions(cov, r, nbrs)
            c_min, incoherence = min(c_min, eig_min), max(incoherence, inc)
    d = graph.max_degree
    threshold = 6.0 * lam * math.sqrt(d) / c_min
    return ThresholdReport(
        theta_tilde_min=params.min_magnitude,
        c_min=c_min,
        incoherence=incoherence,
        max_degree=d,
        lam=lam,
        threshold=threshold,
        passes=params.min_magnitude >= threshold,
    )
