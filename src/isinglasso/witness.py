"""Primal-dual certificates for signed-neighborhood recovery.

Given data for node r, a candidate support S, the population regression
targets theta_tilde, and a penalty lambda, the certificate is built in
four steps: (a) solve the Lasso restricted to S and set the support dual
to the solution signs, (b) pin everything off S to zero, (c) back out the
off-support dual from the stationarity system,

    z_off = [W_off - Q_{off,S} (theta_hat_S - theta_tilde_S)] / lambda,

where W = b - Q theta_tilde is the empirical noise at the population
regression point, and (d) record every inequality the recovery argument
relies on: strict dual feasibility, sign agreement, the l2 deviation
against 3 lambda sqrt(|S|) / c_min, and the sup deviation against half the
minimum rescaled magnitude.

The certificate, the covariance report and the noise vector each accept
either a SampleMatrix or ExactMoments, so the same code path runs in the
population limit (where W vanishes); enumerate_z_statistics is the noise
vector on a graph's 2^p enumeration.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bethe import RescaledParams, SingularMatrixError, support_conditions
from .graphs import SignedGraph, check_node, require_number, support_vertices
from .sampler import ExactMoments, SampleMatrix, exact_enumerate
from .solvers import SolverConfig, lasso_cd_gram


def _regression_row(theta_tilde: RescaledParams, r: int, p: int) -> np.ndarray:
    """theta_tilde for node r's regression by vertex label: row r with entry
    r, which is no predictor, set to 0. A theta_tilde for other than the
    data's p vertices, or an r outside 0..p-1, raises ValueError."""
    if theta_tilde.matrix.shape[0] != p:
        raise ValueError(
            f"theta_tilde is for p = {theta_tilde.matrix.shape[0]} vertices, data has p = {p}"
        )
    check_node(r, p)
    row = theta_tilde.matrix[r].copy()
    row[r] = 0.0
    return row


@dataclass(frozen=True)
class CovarianceReport:
    """The support-block eigenvalue floor and incoherence norm the recovery
    conditions are stated in, measured on one node's empirical second
    moment (incoherence inf when the support block is singular)."""

    node: int
    support: tuple[int, ...]
    eig_min_ss: float
    incoherence: float


def sample_covariance(data: SampleMatrix | ExactMoments, r: int, support) -> CovarianceReport:
    """Recovery conditions of node r's support block on the data's second
    moment: (1/n) sum_i x_i x_i^T for samples, E[x x^T] for exact moments."""
    support = tuple(support)  # read once: support may be an iterator
    try:
        eig_min_ss, inc = support_conditions(data.second_moment(), r, support)  # validates r
    except SingularMatrixError as exc:
        eig_min_ss, inc = exc.min_eigenvalue, float("inf")
    return CovarianceReport(
        node=r,
        support=tuple(sorted(int(v) for v in support)),
        eig_min_ss=eig_min_ss,
        incoherence=inc,
    )


@dataclass(frozen=True)
class NoiseVector:
    """Statistics of Z_s = x_s (x_r - <theta_tilde, x>) at the population
    regression point, over samples or over the exact law: the per-predictor
    means W_s (node r's p-1 predictors in vertex order), the second moment
    E[Z_s^2], which is the same for every s, and the largest |Z_s|."""

    node: int
    means: np.ndarray
    second_moment: float
    max_abs: float

    @property
    def inf_norm(self) -> float:
        return float(np.abs(self.means).max(initial=0.0))


def compute_noise_vector(
    data: SampleMatrix | ExactMoments, r: int, theta_tilde: RescaledParams
) -> NoiseVector:
    """Node r's noise from the shared second moment Q, with b = Q[:, r]:
    W = b - Q theta_tilde, and since |x_s| = 1, E[Z_s^2] = E[(x_r -
    <theta_tilde, x>)^2] = 1 - 2 b.theta_tilde + theta_tilde.Q.theta_tilde
    for every s. No per-sample Z matrix is formed.

    max |Z_s| is the one figure that needs the data kind. On samples it is
    the largest |x_r - <theta_tilde, x>| over the samples, a residual that
    reads only the columns theta_tilde_r touches, r included. On exact
    moments every state has positive weight, so the state with x_r = 1 and
    x_t = -sign(theta_tilde_t) gives 1 + l1_norm(theta_tilde).
    """
    second = data.second_moment()
    tt = _regression_row(theta_tilde, r, second.shape[0])
    b, qt = second[:, r], second @ tt
    if isinstance(data, ExactMoments):
        max_abs = 1.0 + np.abs(tt).sum()
    else:
        coef = -tt
        coef[r] = 1.0
        cols = np.flatnonzero(coef)
        max_abs = np.abs(data.data[:, cols] @ coef[cols]).max()
    return NoiseVector(
        node=r,
        means=np.delete(b - qt, r),
        second_moment=float(1.0 - 2.0 * b @ tt + tt @ qt),
        max_abs=float(max_abs),
    )


def enumerate_z_statistics(
    graph: SignedGraph, r: int, theta_tilde: RescaledParams
) -> NoiseVector:
    """compute_noise_vector on the exact moments of the 2^p enumeration,
    the record exact_enumerate stores on the graph: one pass serves every
    node of a graph."""
    return compute_noise_vector(exact_enumerate(graph), r, theta_tilde)


@dataclass(frozen=True)
class WitnessCertificate:
    """Raw witness quantities; every pass/fail is re-derived from them."""

    node: int
    support: tuple[int, ...]
    lam: float
    theta_hat_s: np.ndarray
    theta_tilde_s: np.ndarray
    true_signs: np.ndarray
    z_s: np.ndarray
    z_sc: np.ndarray
    w_s_inf: float
    w_sc_inf: float
    kkt_residual_s: float
    solver_tol: float
    c_min_measured: float
    alpha_measured: float
    half_theta_tilde_min: float

    @property
    def z_sc_inf(self) -> float:
        return float(np.abs(self.z_sc).max()) if self.z_sc.size else 0.0

    @property
    def strict_feasibility_margin(self) -> float:
        return 1.0 - self.z_sc_inf

    @property
    def w_inf(self) -> float:
        return max(self.w_s_inf, self.w_sc_inf)

    @property
    def l2_error(self) -> float:
        return float(np.linalg.norm(self.theta_hat_s - self.theta_tilde_s))

    @property
    def l2_bound(self) -> float:
        return 3.0 * self.lam * math.sqrt(len(self.support)) / self.c_min_measured

    @property
    def linf_error(self) -> float:
        return float(np.abs(self.theta_hat_s - self.theta_tilde_s).max())

    @property
    def sign_consistent(self) -> bool:
        return bool(np.array_equal(self.z_s, self.true_signs))

    @property
    def noise_hypothesis(self) -> bool:
        """Whether the conditional l2 bound's hypothesis held on this data."""
        return self.w_inf <= self.lam / 2.0

    def checks(self) -> dict[str, bool]:
        return {
            "strict_dual_feasibility": self.z_sc_inf < 1.0,
            "sign_consistency": self.sign_consistent,
            "l2_within_bound": self.l2_error <= self.l2_bound + 1e-12,
            "linf_within_half_min": self.linf_error <= self.half_theta_tilde_min + 1e-12,
            "kkt_stationarity": self.kkt_residual_s <= self.solver_tol + 1e-10,
        }

    def passes_all(self) -> bool:
        return all(self.checks().values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "node": self.node,
                "support": list(self.support),
                "lambda": self.lam,
                "theta_hat_s": self.theta_hat_s.tolist(),
                "theta_tilde_s": self.theta_tilde_s.tolist(),
                "z_s": self.z_s.tolist(),
                "z_sc": self.z_sc.tolist(),
                "z_sc_inf": self.z_sc_inf,
                "strict_feasibility_margin": self.strict_feasibility_margin,
                "w_s_inf": self.w_s_inf,
                "w_sc_inf": self.w_sc_inf,
                "kkt_residual_s": self.kkt_residual_s,
                "c_min_measured": self.c_min_measured,
                "alpha_measured": self.alpha_measured,
                "l2_error": self.l2_error,
                "l2_bound": self.l2_bound,
                "linf_error": self.linf_error,
                "half_theta_tilde_min": self.half_theta_tilde_min,
                "noise_hypothesis": self.noise_hypothesis,
                "checks": self.checks(),
            }
        )


def construct_witness(
    data: SampleMatrix | ExactMoments,
    r: int,
    support,
    theta_tilde: RescaledParams,
    lam: float,
    config: SolverConfig | None = None,
) -> WitnessCertificate:
    """Build the primal-dual witness for node r on the given support.

    c_min and alpha are measured on the supplied data; check_conditions
    compares them with closed-form targets. Raises SingularMatrixError
    when the support block is singular and ValueError for a lambda that is
    not a finite number > 0, an empty support (support_conditions' rule),
    r outside 0..p-1 or a theta_tilde for another p.
    """
    if require_number("lambda", lam) <= 0:
        raise ValueError("witness construction needs lambda > 0")
    second = data.second_moment()
    tt = _regression_row(theta_tilde, r, second.shape[0])
    s = support_vertices(support, tt.size, r)
    cfg = config or SolverConfig()
    off = np.ones(tt.size, dtype=bool)
    off[s] = off[r] = False
    off = np.flatnonzero(off)

    # raises SingularMatrixError when the support block is singular
    eig_min, incoherence = support_conditions(second, r, s)
    alpha_measured = 1.0 - incoherence

    w = second[:, r] - second @ tt

    sol = lasso_cd_gram(second[s[:, None], s], second[s, r], lam, config=cfg)
    theta_hat_s = sol.coefficients
    z_s = np.sign(theta_hat_s)
    dev = theta_hat_s - tt[s]
    z_sc = (w[off] - second[off[:, None], s] @ dev) / lam

    return WitnessCertificate(
        node=r,
        support=tuple(s.tolist()),
        lam=lam,
        theta_hat_s=theta_hat_s,
        theta_tilde_s=tt[s],
        true_signs=np.sign(tt[s]),
        z_s=z_s,
        z_sc=z_sc,
        w_s_inf=float(np.abs(w[s]).max()),
        w_sc_inf=float(np.abs(w[off]).max()) if off.size else 0.0,
        kkt_residual_s=sol.kkt_residual,
        solver_tol=cfg.tol,
        c_min_measured=eig_min,
        alpha_measured=alpha_measured,
        half_theta_tilde_min=theta_tilde.min_magnitude / 2.0,
    )


@dataclass(frozen=True)
class ConditionCheck:
    """Sample-level dependency/incoherence checks with signed margins
    (positive margin = condition satisfied with room to spare)."""

    eig_min: float
    eig_target: float
    eig_margin: float
    eig_pass: bool
    incoherence: float
    incoherence_target: float
    incoherence_margin: float
    incoherence_pass: bool


_CHECK_SLACK = 1e-12


def check_conditions(
    report: CovarianceReport,
    c_min_target: float,
    alpha_target: float,
) -> ConditionCheck:
    """Evaluate eig_min(Q_SS) >= c_min and
    incoherence <= 1 - alpha/2 on a covariance report.

    Pass/fail comparisons carry a 1e-12 slack so that population inputs
    hitting their targets exactly do not flip on eigensolver rounding;
    the reported margins stay raw.
    """
    inc_target = 1.0 - alpha_target / 2.0
    return ConditionCheck(
        eig_min=report.eig_min_ss,
        eig_target=c_min_target,
        eig_margin=report.eig_min_ss - c_min_target,
        eig_pass=report.eig_min_ss >= c_min_target - _CHECK_SLACK,
        incoherence=report.incoherence,
        incoherence_target=inc_target,
        incoherence_margin=inc_target - report.incoherence,
        incoherence_pass=report.incoherence <= inc_target + _CHECK_SLACK,
    )
