"""Per-node L1-penalized regressions on spin data and whole-graph recovery.

For each vertex r the Lasso solves

    min over theta of (1/2n) sum_i (x_r_i - <theta, x_without_r_i>)^2
                      + lambda * l1_norm(theta)

by cyclic coordinate descent on the Gram form of the problem; the logistic
baseline replaces the square loss with the conditional log-loss
(1/n) sum_i log(1 + exp(-2 x_r_i <theta, x_i>)) and runs accelerated
proximal gradient with backtracking. Both report the optimality-system
residual and a reconstructed subgradient, so downstream certificate checks
can consume either one interchangeably.

Because spins are +/-1 the Gram diagonal is exactly 1, which makes the
coordinate update a bare soft-threshold with no denominator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .graphs import SignedGraph, reduced_support, signed_neighborhood_sets
from .sampler import SampleMatrix, node_moments

ACTIVE_TOL = 1e-8
_GRAM_REFRESH_CYCLES = 50


class ConvergenceError(RuntimeError):
    """Solver failed to reach its tolerance; carries the last residual."""

    def __init__(self, message: str, kkt_residual: float):
        super().__init__(message)
        self.kkt_residual = kkt_residual


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iters: int = 100_000
    kkt_check_every: int = 10  # logistic only; CD checks every cycle
    max_coef: float = 1e3      # divergence guard (logistic, lambda = 0)
    track_objective: bool = False


@dataclass(frozen=True)
class NeighborhoodProblem:
    """Regression of spin response_index on the remaining p-1 spins."""

    response_index: int
    samples: SampleMatrix
    lam: float

    def __post_init__(self):
        if not 0 <= self.response_index < self.samples.p:
            raise ValueError("response index out of range")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")


@dataclass
class LassoSolution:
    """Coefficients with the reconstructed subgradient.

    subgradient[j] is sign(coefficients[j]) on active coordinates and
    -gradient[j]/lambda on inactive ones (exact dual value, not clamped).
    kkt_residual is the full stationarity residual: |grad_j + lam*sign| on
    active coordinates and max(0, |grad_j| - lam) on inactive ones.
    """

    coefficients: np.ndarray
    subgradient: np.ndarray
    kkt_residual: float
    iterations: int
    objective: float
    lam: float
    maybe_nonunique: bool = False
    objective_history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class SignedNeighborhood:
    """Estimated signed neighborhood of one vertex."""

    vertex: int
    signs: dict[int, int]

    def __post_init__(self):
        if self.vertex in self.signs:
            raise ValueError("neighborhood must not contain the vertex itself")


def soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def predictor_vertices(p: int, r: int) -> np.ndarray:
    """Vertex labels of the p-1 predictor columns for node r, in order."""
    return np.concatenate([np.arange(r), np.arange(r + 1, p)])


def _kkt_residual(theta: np.ndarray, grad: np.ndarray, lam: float, idx: np.ndarray) -> float:
    th = theta[idx]
    g = grad[idx]
    active = th != 0.0
    res = 0.0
    if active.any():
        res = float(np.abs(g[active] + lam * np.sign(th[active])).max())
    if (~active).any():
        res = max(res, float(max(0.0, np.abs(g[~active]).max() - lam)))
    return res


def _quadratic_loss(gram, linear, theta, constant) -> float:
    return 0.5 * float(theta @ (gram @ theta)) - float(linear @ theta) + constant


def _finalize(theta, grad, loss, lam, iterations, support_idx, history, nonunique=False):
    """Solution record from the final iterate and the gradient of its smooth
    loss, shared by the Lasso and the logistic solver."""
    if lam > 0:
        subgrad = np.where(theta != 0.0, np.sign(theta), -grad / lam)
    else:
        subgrad = np.zeros_like(theta)
    return LassoSolution(
        coefficients=theta,
        subgradient=subgrad,
        kkt_residual=_kkt_residual(theta, grad, lam, support_idx),
        iterations=iterations,
        objective=loss + lam * float(np.abs(theta).sum()),
        lam=lam,
        maybe_nonunique=nonunique,
        objective_history=history,
    )


def lasso_cd_gram(
    gram: np.ndarray,
    linear: np.ndarray,
    lam: float,
    support: np.ndarray | None = None,
    config: SolverConfig | None = None,
    warm_start: np.ndarray | None = None,
    constant: float = 0.5,
) -> LassoSolution:
    """Cyclic coordinate descent on the Gram form
    0.5 theta' G theta - b' theta + constant + lambda l1_norm(theta).

    Requires unit diagonal on G (automatic for +/-1 spin data and for
    population second-moment matrices). Coordinates outside `support`
    (reduced indices) are pinned at zero; the reported residual covers the
    support coordinates. Raises ConvergenceError past config.max_iters.
    """
    cfg = config or SolverConfig()
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    m = gram.shape[0]
    diag = np.diag(gram)
    if not np.allclose(diag, 1.0, atol=1e-9):
        raise ValueError("Gram matrix must have unit diagonal (spin data)")
    if support is None:
        support_idx = np.arange(m)
    else:
        support_idx = np.unique(np.asarray(support, dtype=np.int64))
        if support_idx.size < 1:
            raise ValueError("support must contain at least one coordinate")
        if support_idx[0] < 0 or support_idx[-1] >= m:
            raise ValueError("support index out of range")

    theta = np.zeros(m)
    if warm_start is not None:
        theta[support_idx] = np.asarray(warm_start, dtype=np.float64)[support_idx]
    grad = gram @ theta - linear
    order = [int(j) for j in support_idx]
    history: list[float] = []

    converged = False
    iterations = 0
    for cycle in range(cfg.max_iters):
        max_delta = 0.0
        for j in order:
            old = theta[j]
            new = soft_threshold(old - grad[j], lam)
            delta = new - old
            if delta != 0.0:
                grad += gram[j] * delta
                theta[j] = new
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        iterations = cycle + 1
        if cfg.track_objective:
            history.append(
                _quadratic_loss(gram, linear, theta, constant) + lam * float(np.abs(theta).sum())
            )
        if iterations % _GRAM_REFRESH_CYCLES == 0:
            grad = gram @ theta - linear  # shed accumulated float drift
        if max_delta == 0.0:
            # exact fixed point of every coordinate update: optimal
            converged = True
            break
        if _kkt_residual(theta, grad, lam, support_idx) <= cfg.tol:
            # confirm against a drift-free gradient before stopping
            grad = gram @ theta - linear
            if _kkt_residual(theta, grad, lam, support_idx) <= cfg.tol:
                converged = True
                break
    if not converged:
        grad = gram @ theta - linear
        kkt = _kkt_residual(theta, grad, lam, support_idx)
        if kkt > cfg.tol:
            raise ConvergenceError(
                f"coordinate descent did not converge in {cfg.max_iters} cycles "
                f"(residual {kkt:.3e})",
                kkt_residual=kkt,
            )
    grad = gram @ theta - linear
    nonunique = False
    if lam == 0.0:
        block = gram[np.ix_(support_idx, support_idx)]
        nonunique = float(np.linalg.eigvalsh(block).min()) < 1e-10
    return _finalize(
        theta, grad, _quadratic_loss(gram, linear, theta, constant), lam, iterations,
        support_idx, history, nonunique,
    )


def solve_lasso(problem: NeighborhoodProblem, config: SolverConfig | None = None) -> LassoSolution:
    """Neighborhood Lasso for one node by cyclic coordinate descent."""
    gram, linear = node_moments(problem.samples.second_moment(), problem.response_index)
    return lasso_cd_gram(gram, linear, problem.lam, config=config)


def solve_lasso_restricted(
    problem: NeighborhoodProblem,
    support_vertices,
    config: SolverConfig | None = None,
) -> LassoSolution:
    """Neighborhood Lasso with coordinates outside the given vertex set
    pinned at zero. The reported residual covers the free coordinates; the
    subgradient on pinned coordinates still carries -gradient/lambda, which
    is exactly the dual-feasibility value certificate checks need."""
    gram, linear = node_moments(problem.samples.second_moment(), problem.response_index)
    reduced = reduced_support(support_vertices, problem.samples.p, problem.response_index)
    return lasso_cd_gram(gram, linear, problem.lam, support=reduced, config=config)


def _logistic_loss_grad(theta, yx, n):
    u = yx @ theta
    loss = float(np.logaddexp(0.0, -2.0 * u).mean())
    s = expit(-2.0 * u)
    grad = -(2.0 / n) * (s @ yx)
    return loss, grad


def _is_separable(yx: np.ndarray) -> bool:
    """Strict linear separability check (feasibility of margins >= 1)."""
    from scipy.optimize import linprog

    m = yx.shape[1]
    res = linprog(
        c=np.zeros(m),
        A_ub=-yx,
        b_ub=-np.ones(yx.shape[0]),
        bounds=[(None, None)] * m,
        method="highs",
    )
    return bool(res.success)


def solve_logistic_l1(
    problem: NeighborhoodProblem, config: SolverConfig | None = None
) -> LassoSolution:
    """L1-penalized logistic regression of one spin on the rest, solved by
    accelerated proximal gradient with backtracking line search.

    The factor 2 inside the logit matches the heat-bath conditional of the
    edge-coupling convention, so the population minimizer is the coupling
    row itself. Raises ConvergenceError when coefficients diverge, which
    with lambda = 0 signals separable data.
    """
    cfg = config or SolverConfig()
    data = problem.samples.as_float()
    x = np.delete(data, problem.response_index, axis=1)
    n = problem.samples.n
    lam = problem.lam
    yx = data[:, problem.response_index, None] * x
    m = x.shape[1]

    if lam == 0.0 and _is_separable(yx):
        raise ConvergenceError(
            "data are linearly separable and lambda = 0: the logistic loss "
            "has no minimizer (coefficients diverge)",
            kkt_residual=float("inf"),
        )

    theta = np.zeros(m)
    momentum = theta.copy()
    t_acc = 1.0
    lip = 1.0
    loss_prev = np.inf
    kkt = np.inf

    for it in range(1, cfg.max_iters + 1):
        loss_v, grad_v = _logistic_loss_grad(momentum, yx, n)
        while True:
            step = 1.0 / lip
            cand = momentum - step * grad_v
            theta_new = np.sign(cand) * np.maximum(np.abs(cand) - step * lam, 0.0)
            diff = theta_new - momentum
            quad = loss_v + float(grad_v @ diff) + 0.5 * lip * float(diff @ diff)
            loss_new, _ = _logistic_loss_grad(theta_new, yx, n)
            if loss_new <= quad + 1e-15:
                break
            lip *= 2.0

        obj_new = loss_new + lam * float(np.abs(theta_new).sum())
        if obj_new > loss_prev + 1e-15:
            # objective went up under momentum: restart acceleration
            t_acc = 1.0
            momentum = theta.copy()
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = theta_new + ((t_acc - 1.0) / t_next) * (theta_new - theta)
        theta = theta_new
        t_acc = t_next
        loss_prev = obj_new
        lip = max(lip * 0.9, 1e-6)

        if float(np.abs(theta).max(initial=0.0)) > cfg.max_coef:
            raise ConvergenceError(
                "logistic coefficients diverged (with lambda = 0 this means "
                "the data are linearly separable and no minimizer exists)",
                kkt_residual=float("inf"),
            )
        if it % cfg.kkt_check_every == 0 or it == 1:
            _, grad = _logistic_loss_grad(theta, yx, n)
            kkt = _kkt_residual(theta, grad, lam, np.arange(m))
            if kkt <= cfg.tol:
                break
    else:
        raise ConvergenceError(
            f"proximal gradient did not converge in {cfg.max_iters} iterations "
            f"(residual {kkt:.3e})",
            kkt_residual=kkt,
        )

    loss_fin, grad = _logistic_loss_grad(theta, yx, n)
    return _finalize(theta, grad, loss_fin, lam, it, np.arange(m), [])


def extract_signed_neighborhood(
    solution: LassoSolution, r: int, active_tol: float = ACTIVE_TOL
) -> SignedNeighborhood:
    """Signed neighborhood from the nonzero coefficients, with an absolute
    magnitude threshold tying "nonzero" to solver tolerance."""
    coef = solution.coefficients
    vertices = predictor_vertices(coef.size + 1, r)
    signs = {}
    for v, c in zip(vertices, coef):
        if abs(c) > active_tol:
            signs[int(v)] = 1 if c > 0 else -1
    return SignedNeighborhood(vertex=r, signs=signs)


def lambda_from_kappa(kappa: float, n: int, p: int) -> float:
    """Regularization rule lambda = kappa * sqrt(log(p) / n), natural log."""
    return kappa * math.sqrt(math.log(p) / n)


@dataclass
class GraphEstimate:
    """Combined output of per-node neighborhood regressions."""

    neighborhoods: dict[int, SignedNeighborhood]
    edges: dict[tuple[int, int], int]
    node_errors: dict[int, str]
    lam: float
    solver: str

    def matches_graph(self, graph: SignedGraph) -> bool:
        """True iff every node's estimated signed neighborhood equals the
        true one (the exact-recovery event; failed nodes count as wrong)."""
        if self.node_errors:
            return False
        truth = signed_neighborhood_sets(graph)
        return all(self.neighborhoods[r].signs == truth[r] for r in range(graph.p))


def recover_graph(
    samples: SampleMatrix,
    lam: float | None = None,
    kappa: float | None = None,
    solver: str = "lasso",
    config: SolverConfig | None = None,
) -> GraphEstimate:
    """Run the chosen per-node solver for every vertex and assemble the
    estimated signed neighborhoods.

    Exactly one of lam / kappa must be given; kappa applies the
    sqrt(log(p)/n) rule. Per-node convergence failures are recorded in
    node_errors instead of aborting the remaining nodes. Every Lasso node
    slices the one cached second moment of `samples`.
    """
    if (lam is None) == (kappa is None):
        raise ValueError("give exactly one of lam or kappa")
    if lam is None:
        lam = lambda_from_kappa(kappa, samples.n, samples.p)
    if solver == "lasso":
        solve = solve_lasso
    elif solver == "logistic":
        solve = solve_logistic_l1
    else:
        raise ValueError(f"unknown solver {solver!r}")

    neighborhoods: dict[int, SignedNeighborhood] = {}
    node_errors: dict[int, str] = {}
    for r in range(samples.p):
        try:
            sol = solve(NeighborhoodProblem(response_index=r, samples=samples, lam=lam), config)
            neighborhoods[r] = extract_signed_neighborhood(sol, r)
        except ConvergenceError as exc:
            node_errors[r] = str(exc)

    edges: dict[tuple[int, int], int] = {}
    for r, hood in neighborhoods.items():
        for t, s in hood.signs.items():
            if t > r and t in neighborhoods:
                back = neighborhoods[t].signs.get(r)
                if back == s:
                    edges[(r, t)] = s
    return GraphEstimate(
        neighborhoods=neighborhoods,
        edges=edges,
        node_errors=node_errors,
        lam=lam,
        solver=solver,
    )


def solution_to_json(solution: LassoSolution, r: int) -> str:
    return json.dumps(
        {
            "r": r,
            "lambda": solution.lam,
            "coefficients": solution.coefficients.tolist(),
            "subgradient": solution.subgradient.tolist(),
            "kkt_residual": solution.kkt_residual,
            "iterations": solution.iterations,
            "objective": solution.objective,
        }
    )
