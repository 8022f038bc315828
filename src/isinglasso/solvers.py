"""Per-node L1-penalized regressions on spin data and whole-graph recovery.

For each vertex r the Lasso solves

    min over theta of (1/2n) sum_i (x_r_i - <theta, x_without_r_i>)^2
                      + lambda * l1_norm(theta)

by cyclic coordinate descent on the Gram form of the problem, read in place
from the shared second moment with node r pinned at zero; each cycle visits
only a working set, which a drift-free full gradient confirms or grows. The
logistic baseline replaces the square loss with the conditional log-loss
(1/n) sum_i log(1 + exp(-2 x_r_i <theta, x_i>)), whose gradient for +/-1
spins is (1/n) X'(tanh(X theta) - x_r): the residual against the heat-bath
conditional mean, as the Lasso's is (1/n) X'(X theta - x_r). It runs
accelerated proximal gradient (FISTA) with adaptive restart and one fixed
step, 1 / lambda_max of the second moment, on all requested nodes at once
as columns of one coefficient matrix. Both report the optimality-system
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

from .graphs import SignedGraph, reduced_support, signed_neighborhood_sets
from .sampler import SampleMatrix

ACTIVE_TOL = 1e-8
_GRAM_REFRESH_CYCLES = 50
_KKT_CHECK_EVERY = 10  # logistic only; CD checks every cycle
_MAX_COEF = 1e3  # divergence guard (logistic, lambda = 0)


class ConvergenceError(RuntimeError):
    """Solver failed to reach its tolerance; carries the last residual."""

    def __init__(self, message: str, kkt_residual: float):
        super().__init__(message)
        self.kkt_residual = kkt_residual


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iters: int = 100_000
    track_objective: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0) or self.max_iters < 1:
            raise ValueError(f"need a finite tol > 0 and max_iters >= 1, got {self}")


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


def predictor_vertices(p: int, r: int) -> np.ndarray:
    """Vertex labels of the p-1 predictor columns for node r, in order."""
    return np.concatenate([np.arange(r), np.arange(r + 1, p)])


def _kkt_residual(theta: np.ndarray, grad: np.ndarray, lam: float, idx=slice(None)):
    """LassoSolution's stationarity residual over the rows idx; one value
    per column for 2-D input."""
    th = theta[idx]
    g = grad[idx]
    res = np.where(th != 0.0, np.abs(g + lam * np.sign(th)), np.abs(g) - lam)
    return np.maximum(res.max(axis=0, initial=0.0), 0.0)


def _quadratic_loss(gram, linear, theta) -> float:
    return 0.5 * float(theta @ (gram @ theta)) - float(linear @ theta) + 0.5


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
        kkt_residual=float(_kkt_residual(theta, grad, lam, support_idx)),
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
) -> LassoSolution:
    """Cyclic coordinate descent on the Gram form
    0.5 theta' G theta - b' theta + 0.5 + lambda l1_norm(theta).

    Requires unit diagonal on G (automatic for +/-1 spin data and for
    population second-moment matrices). Coordinates outside `support`
    (indices into G) are pinned at zero; the reported residual covers the
    support coordinates. Cycles visit a working set: the support coordinates
    that are nonzero or have |gradient| > lambda, at the start and at each
    drift-free confirmation, which decides convergence over the whole
    support. Raises ConvergenceError past config.max_iters cycles.
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
    work = support_idx[(theta[support_idx] != 0.0) | (np.abs(grad[support_idx]) > lam)]
    history: list[float] = []

    for iterations in range(1, cfg.max_iters + 1):
        max_delta = 0.0
        for j in work.tolist():
            old = theta[j]
            z = old - grad[j]
            new = z - lam if z > lam else (z + lam if z < -lam else 0.0)  # soft-threshold
            delta = new - old
            if delta != 0.0:
                grad += gram[j] * delta
                theta[j] = new
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        if cfg.track_objective:
            history.append(
                _quadratic_loss(gram, linear, theta) + lam * float(np.abs(theta).sum())
            )
        if iterations % _GRAM_REFRESH_CYCLES == 0:
            grad = gram @ theta - linear  # shed accumulated float drift
        if max_delta == 0.0 or _kkt_residual(theta, grad, lam, work) <= cfg.tol:
            # the working set is solved: confirm over the whole support on a
            # drift-free gradient, and let violators join the set
            grad = gram @ theta - linear
            if _kkt_residual(theta, grad, lam, support_idx) <= cfg.tol:
                break
            grown = np.union1d(work, support_idx[np.abs(grad[support_idx]) > lam])
            if max_delta == 0.0 and grown.size == work.size:
                break  # exact fixed point of every coordinate update: optimal
            work = grown
    else:
        grad = gram @ theta - linear
        kkt = _kkt_residual(theta, grad, lam, support_idx)
        if kkt > cfg.tol:
            raise ConvergenceError(
                f"coordinate descent did not converge in {cfg.max_iters} cycles "
                f"(residual {kkt:.3e})",
                kkt_residual=kkt,
            )
    nonunique = False
    if lam == 0.0:
        block = gram[np.ix_(support_idx, support_idx)]
        nonunique = float(np.linalg.eigvalsh(block).min()) < 1e-10
    return _finalize(
        theta, grad, _quadratic_loss(gram, linear, theta), lam, iterations,
        support_idx, history, nonunique,
    )


def _node_lasso(problem: NeighborhoodProblem, support_vertices, config) -> LassoSolution:
    """Node r's Lasso read in place from the cached second moment, with r
    pinned out by the support and then cut from the result."""
    second, r = problem.samples.second_moment(), problem.response_index
    sol = lasso_cd_gram(second, second[:, r], problem.lam, support_vertices, config)
    sol.coefficients = np.delete(sol.coefficients, r)
    sol.subgradient = np.delete(sol.subgradient, r)
    return sol


def solve_lasso(problem: NeighborhoodProblem, config: SolverConfig | None = None) -> LassoSolution:
    """Neighborhood Lasso for one node by cyclic coordinate descent."""
    return _node_lasso(
        problem, predictor_vertices(problem.samples.p, problem.response_index), config)


def solve_lasso_restricted(
    problem: NeighborhoodProblem,
    support_vertices,
    config: SolverConfig | None = None,
) -> LassoSolution:
    """Neighborhood Lasso with coordinates outside the given vertex set
    pinned at zero. The reported residual covers the free coordinates; the
    subgradient on pinned coordinates still carries -gradient/lambda, which
    is exactly the dual-feasibility value certificate checks need."""
    p, r = problem.samples.p, problem.response_index
    reduced = reduced_support(support_vertices, p, r)  # validates the vertex set
    return _node_lasso(problem, predictor_vertices(p, r)[reduced], config)


def _logistic_grad(x, y, theta, pinned):
    """Gradient of the mean log-loss (1/n) sum_i log(1 + exp(-2 y_ik <theta_k, x_i>))
    at every column k of theta, zeroed at the pinned entries. For y = +/-1,
    y sigmoid(-2 y u) = (y - tanh u) / 2, so it is (1/n) X'(tanh(X theta) - y)."""
    s = x @ theta
    np.tanh(s, out=s)
    s -= y
    grad = (x.T @ s) / x.shape[0]
    grad[pinned] = 0.0
    return grad


def _is_separable(yx: np.ndarray) -> bool:
    """Strict linear separability check (feasibility of margins >= 1)."""
    from scipy.optimize import linprog

    res = linprog(np.zeros(yx.shape[1]), A_ub=-yx, b_ub=-np.ones(yx.shape[0]),
                  bounds=(None, None), method="highs")
    return bool(res.success)


def solve_logistic_l1_batch(
    samples: SampleMatrix, nodes, lam: float, config: SolverConfig | None = None
) -> tuple[dict[int, LassoSolution], dict[int, ConvergenceError]]:
    """L1-penalized logistic regressions of the listed spins on the rest as
    one matrix FISTA: column k of the p x K coefficients is node nodes[k]'s,
    with its own entry pinned at 0. Returns (solutions, errors) by node.

    The factor 2 inside the logit matches the heat-bath conditional of the
    edge-coupling convention, so the population minimizer is the coupling
    row itself. Each sample's curvature 4 sigma (1 - sigma) is at most 1,
    so a node's Hessian is bounded by its predictor Gram, a principal block
    of the second moment: 1 / lambda_max of that is a valid step for every
    column. Each column keeps its own momentum and gradient-based restart
    (O'Donoghue & Candes 2015), KKT test, divergence guard and iteration
    count, and leaves the batch once converged.
    """
    cfg = config or SolverConfig()
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    x = samples.as_float()
    p = samples.p
    errors: dict[int, ConvergenceError] = {}
    if lam == 0.0:
        for r in nodes:
            if _is_separable(np.delete(x, r, axis=1) * x[:, r, None]):
                errors[int(r)] = ConvergenceError(
                    "data are linearly separable and lambda = 0: the logistic loss "
                    "has no minimizer (coefficients diverge)", kkt_residual=float("inf"))
    nodes = np.array([r for r in nodes if r not in errors], dtype=np.int64)
    step = 1.0 / np.linalg.eigvalsh(samples.second_moment())[-1]
    y = samples.data[:, nodes]
    theta, momentum, grad_final = (np.zeros((p, nodes.size)) for _ in range(3))
    t_acc = np.ones(nodes.size)
    iterations = np.zeros(nodes.size, dtype=np.int64)
    kkt = np.full(nodes.size, np.inf)
    act = np.arange(nodes.size)
    for it in range(1, cfg.max_iters + 1):
        if act.size == 0:
            break
        pinned = (nodes[act], np.arange(act.size))
        mom, old = momentum[:, act], theta[:, act]
        cand = mom - step * _logistic_grad(x, y[:, act], mom, pinned)
        new = np.sign(cand) * np.maximum(np.abs(cand) - step * lam, 0.0)
        # restart where the momentum step points against the progress made
        restart = np.einsum("ij,ij->j", mom - new, new - old) > 0.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc[act] ** 2))
        beta = np.where(restart, 0.0, (t_acc[act] - 1.0) / t_next)
        momentum[:, act] = new + beta * (new - old)
        theta[:, act] = new
        t_acc[act] = np.where(restart, 1.0, t_next)
        done = np.abs(new).max(axis=0) > _MAX_COEF
        for j in act[done]:
            errors[int(nodes[j])] = ConvergenceError(
                "logistic coefficients diverged (with lambda = 0 this means the "
                "data are separable and no minimizer exists)", kkt_residual=float("inf"))
        if it % _KKT_CHECK_EVERY == 0 or it == 1:
            grad = _logistic_grad(x, y[:, act], new, pinned)
            kkt[act] = _kkt_residual(new, grad, lam)
            converged = (kkt[act] <= cfg.tol) & ~done
            grad_final[:, act[converged]] = grad[:, converged]
            iterations[act[converged]] = it
            done |= converged
        act = act[~done]
    for j in act:
        errors[int(nodes[j])] = ConvergenceError(
            f"proximal gradient did not converge in {cfg.max_iters} iterations "
            f"(residual {kkt[j]:.3e})", kkt_residual=float(kkt[j]))

    ok = np.flatnonzero(iterations)
    terms = x @ theta[:, ok]
    terms *= y[:, ok]
    terms *= -2.0
    loss = np.logaddexp(0.0, terms, out=terms).mean(axis=0)
    solutions = {}
    for j, loss_j in zip(ok, loss):
        keep = predictor_vertices(p, nodes[j])
        solutions[int(nodes[j])] = _finalize(
            theta[keep, j], grad_final[keep, j], float(loss_j), lam, int(iterations[j]),
            np.arange(p - 1), [])
    return solutions, errors


def solve_logistic_l1(
    problem: NeighborhoodProblem, config: SolverConfig | None = None
) -> LassoSolution:
    """L1-penalized logistic regression of one spin on the rest: the
    one-column call of solve_logistic_l1_batch. Raises ConvergenceError
    when coefficients diverge, which with lambda = 0 signals separable data.
    """
    r = problem.response_index
    solutions, errors = solve_logistic_l1_batch(problem.samples, [r], problem.lam, config)
    if r in errors:
        raise errors[r]
    return solutions[r]


def extract_signed_neighborhood(solution: LassoSolution, r: int) -> SignedNeighborhood:
    """Signed neighborhood from the nonzero coefficients, with an absolute
    magnitude threshold tying "nonzero" to solver tolerance."""
    coef = solution.coefficients
    active = np.flatnonzero(np.abs(coef) > ACTIVE_TOL)
    vertices = active + (active >= r)  # predictor position -> vertex label
    signs = {int(v): 1 if coef[j] > 0 else -1 for v, j in zip(vertices, active)}
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
    slices the one cached second moment of `samples`; the logistic solver
    runs all p nodes as one batch.
    """
    if (lam is None) == (kappa is None):
        raise ValueError("give exactly one of lam or kappa")
    if lam is None:
        lam = lambda_from_kappa(kappa, samples.n, samples.p)
    if solver == "lasso":
        solutions, errors = {}, {}
        for r in range(samples.p):
            try:
                solutions[r] = solve_lasso(NeighborhoodProblem(r, samples, lam), config)
            except ConvergenceError as exc:
                errors[r] = exc
    elif solver == "logistic":
        solutions, errors = solve_logistic_l1_batch(samples, range(samples.p), lam, config)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    neighborhoods = {r: extract_signed_neighborhood(sol, r) for r, sol in solutions.items()}
    node_errors = {r: str(errors[r]) for r in sorted(errors)}

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
