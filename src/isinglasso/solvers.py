"""Per-node L1-penalized regressions on spin data and whole-graph recovery.

For each vertex r the Lasso solves

    min over theta of (1/2n) sum_i (x_r_i - <theta, x_without_r_i>)^2
                      + lambda * l1_norm(theta)

by cyclic coordinate descent on the Gram form of the problem, read in place
from the shared second moment with node r pinned at zero; each cycle visits
only a working set, in Python floats on the set's own block of the Gram,
and a drift-free full gradient confirms or grows the set. The
logistic baseline replaces the square loss with the conditional log-loss
(1/n) sum_i log(1 + exp(-2 x_r_i <theta, x_i>)), whose gradient for +/-1
spins is (1/n) X'tanh(X theta) - (1/n) X'x_r: the residual against the
heat-bath conditional mean, as the Lasso's is (1/n) X'(X theta - x_r), with
the linear term read from the same second moment. It runs accelerated
proximal gradient (FISTA) with adaptive restart on all requested nodes at
once, each node on its own working set W (its nonzeros and the coordinates
whose |gradient| exceeds lambda), with its own step 1 / lambda_max of the
block M[W, W] of the second moment, and its gradient summed over the
2^|W| sign patterns of its columns, weighted by how many samples show each
(the products over all columns stand in where 2^|W| is too many); a
gradient over all coordinates every few iterations, its margins read from
the same patterns, decides convergence and rebuilds the sets. Both report
the optimality-system residual and a reconstructed subgradient, so
downstream certificate checks can consume either one interchangeably.

Because spins are +/-1 the Gram diagonal is exactly 1, which makes the
coordinate update a bare soft-threshold with no denominator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graphs import SignedGraph, check_node, require_number, signed_neighborhood_sets
from .sampler import SampleMatrix, _spin_table

ACTIVE_TOL = 1e-8
_KKT_CHECK_EVERY = 10  # logistic only; CD checks every cycle
_MAX_COEF = 1e3  # divergence guard (logistic, lambda = 0), taken at each check
_MAX_ITERS = 100_000  # CD cycles or FISTA iterations before ConvergenceError


class ConvergenceError(RuntimeError):
    """Solver failed to reach its tolerance; carries the last residual."""

    def __init__(self, message: str, kkt_residual: float):
        super().__init__(message)
        self.kkt_residual = kkt_residual


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8

    def __post_init__(self):
        if require_number("tol", self.tol) <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")


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
    """LassoSolution's stationarity residual over the entries idx of a
    vector, or over every entry of each row of a 2-D input."""
    th = theta[idx]
    g = grad[idx]
    res = np.where(th != 0.0, np.abs(g + lam * np.sign(th)), np.abs(g) - lam)
    return np.maximum(res.max(axis=-1, initial=0.0), 0.0)


def _work_residual(theta, grad, lam: float) -> float:
    """_kkt_residual over a working set from its coefficients and gradient
    as two lists of Python floats: the same IEEE operations, as
    lam * sign(theta_j) is +-lam exactly, without numpy's per-call cost."""
    worst = 0.0
    for th, g in zip(theta, grad):
        res = abs(g + lam) if th > 0.0 else (abs(g - lam) if th < 0.0 else abs(g) - lam)
        if res > worst:
            worst = res
    return worst


def _finalize(theta, grad, loss, lam, iterations, kkt):
    """Solution record from the final iterate, the gradient of its smooth
    loss, its loss and its residual, shared by the Lasso and the logistic
    solver."""
    if lam > 0:
        subgrad = np.where(theta != 0.0, np.sign(theta), -grad / lam)
    else:
        subgrad = np.zeros_like(theta)
    return LassoSolution(
        coefficients=theta,
        subgradient=subgrad,
        kkt_residual=float(kkt),
        iterations=iterations,
        objective=loss + lam * float(np.abs(theta).sum()),
        lam=lam,
    )


def _cut(solution, r):
    """solution with entry r, its pinned response, sliced out of its
    coefficients and subgradient."""
    coef, subgrad = solution.coefficients, solution.subgradient
    solution.coefficients = np.concatenate((coef[:r], coef[r + 1:]))
    solution.subgradient = np.concatenate((subgrad[:r], subgrad[r + 1:]))
    return solution


def _cd_cycle(block, theta, grad, lam: float) -> float:
    """One coordinate-descent pass over a working set, from its block of G
    and its coefficients and gradient as lists of Python floats, updated in
    place; returns the largest |delta|. Each moving coordinate adds
    G[j, W] delta to the gradient entry by entry: the multiply and add that
    numpy's update of the whole gradient makes on the entries of W."""
    max_delta = 0.0
    span = range(len(theta))
    for a in span:
        old = theta[a]
        z = old - grad[a]
        new = z - lam if z > lam else (z + lam if z < -lam else 0.0)  # soft-threshold
        delta = new - old
        if delta != 0.0:
            row = block[a]
            for b in span:
                grad[b] += row[b] * delta
            theta[a] = new
            if abs(delta) > max_delta:
                max_delta = abs(delta)
    return max_delta


def lasso_cd_gram(
    gram: np.ndarray,
    linear: np.ndarray,
    lam: float,
    support: np.ndarray | None = None,
    config: SolverConfig | None = None,
) -> LassoSolution:
    """Cyclic coordinate descent on the Gram form
    0.5 theta' G theta - b' theta + 0.5 + lambda l1_norm(theta).

    Requires unit diagonal on G, which this kernel does not re-check: a
    SampleMatrix second moment has it exactly, and ExactMoments checks it
    at construction. Coordinates outside `support` (sorted, unique indices
    into G, as the callers pass them) are pinned at zero; the reported
    residual covers the support coordinates. Cycles visit a working set:
    the support coordinates that are nonzero or have |gradient| > lambda,
    at the start and at each confirmation. A set cycles in Python floats on
    its block of G (_cd_cycle), which gives the bits of numpy updates of
    the whole gradient at a cost of O(|W|) per update instead of a fixed
    cost per call: less on the narrow sets of the callers' penalties,
    more on sets of a few dozen coordinates and up (docs/decisions.md).
    The confirmation is the one place the full product G theta is formed:
    it follows each solved set and the last of the _MAX_ITERS cycles and
    is the one exit, and on that drift-free gradient over the whole
    support it returns at convergence or at an exact fixed point, grows
    the set, or raises ConvergenceError when the cycles ran out. The
    objective is read from its gradient G theta - b as
    0.5 theta . (G theta - 2 b) + 0.5. Raises ValueError for a lambda that
    is not a finite number >= 0.
    """
    cfg = config or SolverConfig()
    lam = require_number("lambda", lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    m = gram.shape[0]
    support_idx = np.arange(m) if support is None else np.asarray(support, dtype=np.int64)
    if support_idx.size < 1:
        raise ValueError("support must contain at least one coordinate")

    theta = np.zeros(m)
    grad = -linear
    work = support_idx[np.abs(grad[support_idx]) > lam].tolist()
    iterations = 0
    while True:
        # the set cycles on its block of G; nothing reads the gradient off
        # the set before the next full product
        idx = np.array(work, dtype=np.int64)
        block = gram[idx[:, None], idx].tolist()
        th, g = theta[idx].tolist(), grad[idx].tolist()
        while iterations < _MAX_ITERS:
            iterations += 1
            max_delta = _cd_cycle(block, th, g, lam)
            if max_delta == 0.0 or _work_residual(th, g, lam) <= cfg.tol:
                break  # the set is solved
        theta[idx] = th
        # the set is solved or the cycles ran out: confirm over the whole
        # support on a drift-free gradient, and let violators join the set
        grad = gram @ theta - linear
        kkt = _kkt_residual(theta, grad, lam, support_idx)
        if kkt <= cfg.tol:
            break
        grown = np.union1d(work, support_idx[np.abs(grad[support_idx]) > lam])
        if max_delta == 0.0 and grown.size == len(work):
            break  # exact fixed point of every coordinate update: optimal
        if iterations == _MAX_ITERS:
            raise ConvergenceError(
                f"coordinate descent did not converge in {_MAX_ITERS} cycles "
                f"(residual {kkt:.3e})",
                kkt_residual=kkt,
            )
        work = grown.tolist()
    loss = 0.5 * float(theta @ (grad - linear)) + 0.5  # 0.5 theta' G theta - b' theta + 0.5
    return _finalize(theta, grad, loss, lam, iterations, kkt)


def _require_spins(samples: SampleMatrix) -> int:
    """samples.p, or ValueError below two spins: a node's regression needs
    one other spin to regress on."""
    if samples.p < 2:
        raise ValueError(f"regression needs samples of at least two spins, got p = {samples.p}")
    return samples.p


def solve_lasso(
    samples: SampleMatrix, r: int, lam: float, config: SolverConfig | None = None
) -> LassoSolution:
    """Neighborhood Lasso of spin r on the other p-1 spins by cyclic
    coordinate descent, read in place from the cached second moment with r
    pinned out by the support and then cut from the result. Raises
    ValueError for samples of fewer than two spins, r outside 0..p-1 or a
    lambda that is not a finite number >= 0."""
    check_node(r, _require_spins(samples))
    second = samples.second_moment()
    sol = lasso_cd_gram(second, second[:, r], lam, predictor_vertices(samples.p, r), config)
    return _cut(sol, r)


def _logistic_grad(xt, s, linear, pinned):
    """Gradient of the mean log-loss (1/n) sum_i log(1 + exp(-2 y_ik <theta_k, x_i>))
    at every row k of linear, zeroed at the pinned entries, from row k of s
    holding tanh(X theta_k) over the n samples. For y = +/-1, y sigmoid(-2 y u) =
    (y - tanh u) / 2, so it is (1/n) X's_k - (1/n) X'y, where xt is X' and
    linear holds the rows (1/n) X'y of the second moment. The rows of linear
    past the last of s have tanh(X theta_k) = 0 and take 0.0 - linear, the
    floats the product would give."""
    grad = np.zeros(linear.shape)
    grad[:s.shape[0]] = s @ xt.T
    grad /= xt.shape[1]
    grad -= linear
    grad[pinned] = 0.0
    return grad


def _soft_threshold(z, tau):
    """sign(z) max(|z| - tau, 0) row-wise, as +0.0 wherever it is zero."""
    return z - np.clip(z, -tau, tau)


def _pattern_margins(theta_w, table):
    """The margins theta_W . t of each row of theta_w, its entries on the
    row's working set, at each of the 2^w sign patterns t, the columns of
    table. The sum runs over the set's positions in order, as a sum over
    X_W's rows would, so each margin is the float every sample with that
    pattern would get, and it depends on the row's own set only."""
    return np.einsum("kw,wm->km", theta_w[:, :table.shape[0]], table)


def _working_grad(xt, dense, groups, work, theta, linear_w):
    """Each row's log-loss gradient on its working set, (1/n) X_W'tanh(X_W theta_W)
    - M[r, W], zero at the padding, with dense and groups from
    _working_sets. The dense rows take the BLAS products over all p
    columns of xt = X'. For the others the samples enter only through their
    sign patterns on W: the backward sum adds each pattern's count times
    the tanh of its margin (_pattern_margins) once, in a fixed order, so a
    pattern row's result depends on its own set only."""
    p, n = xt.shape
    grad = np.zeros(work.shape)
    if dense:
        at = (np.arange(dense)[:, None], work[:dense])
        full = np.zeros((dense, p + 1))
        full[at] = theta[:dense]
        s = full[:, :p] @ xt
        np.tanh(s, out=s)
        full[:, :p] = s @ xt.T
        full[:, p] = 0.0
        grad[:dense] = full[at]
    for a, b, table, counts, _ in groups:
        s = _pattern_margins(theta[a:b], table)
        np.tanh(s, out=s)
        s *= counts
        grad[a:b, :table.shape[0]] = np.einsum("km,wm->kw", s, table)
    grad /= n
    grad -= linear_w
    return grad


def _check_tanh(xt, dense, groups, theta, theta_w, out):
    """tanh(X theta_k) over the n samples for the rows k of theta (K x p),
    whose entries on the row's working set are theta_w's, written to the
    leading rows of out (K x n) and returned as those rows. The dense rows
    take the BLAS product over all p columns of xt = X'. A pattern row takes
    its 2^w margins (_pattern_margins), and each sample the tanh of its
    pattern's margin, gathered by its code. The rows after the last group
    have empty sets, every margin 0, and are left to _logistic_grad."""
    np.tanh(theta[:dense] @ xt, out=out[:dense])
    for a, b, table, _, codes in groups:
        m = _pattern_margins(theta_w[a:b], table)
        np.take(np.tanh(m), codes, out=out[a:b], mode="clip")  # every code is in range
    return out[:groups[-1][1] if groups else dense]


def _mean_log_cosh(xt, dense, groups, theta, theta_w, rows):
    """(1/n) sum_i log 2cosh(X theta_k) for the rows k listed in rows, with
    the margins of _check_tanh: over the n samples for a dense row, over the
    2^w patterns weighted by their counts for the others, and exactly log 2
    for an empty set. The margins are taken again for these rows, not kept
    from the check: holding every row's margins through the check's
    product with X' raised the process's peak resident memory in all-node
    solves at p = 128."""
    n = xt.shape[1]
    out = np.full(rows.size, math.log(2.0))
    at = rows < dense
    u = theta[rows[at]] @ xt
    out[at] = np.logaddexp(u, -u).mean(axis=1)
    for a, b, table, counts, _ in groups:
        at = (rows >= a) & (rows < b)
        m = _pattern_margins(theta_w[rows[at]], table)
        out[at] = np.einsum("km,km->k", counts[rows[at] - a], np.logaddexp(m, -m)) / n
    return out


def _working_sets(mask, second, bits, n):
    """Each row's padded working set, step and gradient form, from mask
    (K x p, True on the set) with its rows widest first, so that one walk
    over the runs a:b of one width w serves all three. work holds each
    set's columns in order, padded to the widest set (at least 1) with p,
    the zero column after the p columns of the batch's p + 1 wide arrays.
    steps holds 1 / lambda_max(M[W, W]), one eigvalsh call per run, and 1
    for an empty set. The rows with 2^|W| >= n sign patterns, no fewer than
    the samples, are a prefix of length dense and take the products over
    all p columns. Each later run of nonempty sets is a group (a, b, table,
    counts, codes): the w x 2^w +-1 pattern table (column c holds the bits
    of c, bit j for set position j), each row's count of the samples that
    show each pattern on its set, and each sample's pattern as a code into
    the group's flattened rows x 2^w counts (row k's offset by k 2^w, so
    one np.bincount counts them all), from bits (p x n, 1 where x = +1)."""
    widths = mask.sum(axis=1)
    width = max(int(widths.max(initial=0)), 1)
    order = np.argsort(~mask, axis=1, kind="stable")[:, :width]
    work = np.where(np.arange(width) < widths[:, None], order, mask.shape[1])
    steps = np.ones(widths.size)
    dense = int(np.count_nonzero(widths >= (n - 1).bit_length()))
    groups = []
    # the runs of one width among the nonempty sets, which come first
    runs = np.flatnonzero(np.diff(widths[widths > 0], prepend=0, append=0)).tolist()
    for a, b in zip(runs, runs[1:]):
        w = int(widths[a])
        idx = work[a:b, :w]
        steps[a:b] = 1.0 / np.linalg.eigvalsh(second[idx[:, :, None], idx[:, None, :]])[:, -1]
        if a < dense:
            continue
        codes = bits[idx[:, -1]].astype(np.int32)
        for j in range(w - 2, -1, -1):
            codes <<= 1
            codes |= bits[idx[:, j]]
        codes += np.arange(0, (b - a) << w, 1 << w, dtype=np.int32)[:, None]
        counts = np.bincount(codes.ravel(), minlength=(b - a) << w).reshape(b - a, 1 << w)
        groups.append((a, b, _spin_table(w), counts.astype(float), codes))
    return work, steps, dense, groups


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
    one batch of FISTA runs: row k is node nodes[k]'s, with its own entry
    pinned at 0. Returns (solutions, errors) by node.

    The factor 2 inside the logit matches the heat-bath conditional of the
    edge-coupling convention, so the population minimizer is the coupling
    row itself. Each node iterates on a working set W: its nonzero
    coefficients and every coordinate whose |gradient| exceeds lambda, as
    of the last full check. Every decision is taken at a check, at each
    iteration that is a multiple of _KKT_CHECK_EVERY, 0 included: the
    dense gradient over all p - 1 coordinates decides convergence and the
    guard _MAX_COEF divergence, a node that converged or diverged leaves
    the batch there, and the rows that stay are compacted and their sets
    rebuilt from the check's iterate. Every set starts empty at theta = 0,
    so the check at iteration 0 sees the gradient -M[r], builds the first
    sets, and lets each node whose set stays empty leave with 0
    iterations. A node whose set changed restarts its momentum from its
    iterate on the new set (one whose set is the same keeps it, or
    small-lambda problems with repeated columns stall), and each node's
    samples are counted by their sign pattern on its set. Between checks
    the iterate, momentum and gradient live on W, and the gradient sums
    over the 2^|W| patterns instead of the n samples, or takes the
    products over all columns where the patterns are no fewer than the
    samples (_working_sets, _working_grad). At a check a pattern row
    reads its margins from the same table, each sample taking the tanh of
    its pattern's margin, so the check's one sample-sized product is the
    gradient's with X' (_check_tanh); the dense rows take both products,
    and the rows whose set is empty, which only iteration 0 has, neither.
    A node's objective is taken at its converging check from the same
    margins, as log(1 + exp(-2yu)) = log 2cosh(u) - yu for y = +-1 gives
    (1/n) sum_i log 2cosh(u_i) - theta . M[r] + lambda l1_norm(theta):
    exactly log 2 on an empty set. Each converged node's record is built
    at that check from its iterate, gradient, loss and residual there
    (_finalize), and entry r is cut from it; solutions are keyed in the
    order the nodes converge.
    Each sample's curvature 4 sigma (1 - sigma) = sech^2 is at most 1, so
    the Hessian restricted to W is bounded by M[W, W], a principal block of
    the second moment M: each node steps by 1 / lambda_max of its own block.
    Each node keeps its own momentum and gradient-based restart
    (O'Donoghue & Candes 2015), KKT test, divergence guard and iteration
    count; the loop holds the rows of the nodes still running. Raises
    ValueError for samples of fewer than two spins, a node outside 0..p-1
    or a lambda that is not a finite number >= 0.
    """
    cfg = config or SolverConfig()
    p = _require_spins(samples)
    nodes = [check_node(r, p) for r in nodes]
    lam = require_number("lambda", lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    xt = np.array(samples.data.T, dtype=np.float64, order="C")
    bits = (xt > 0.0).view(np.uint8)
    errors: dict[int, ConvergenceError] = {}
    if lam == 0.0:
        for r in nodes:
            if _is_separable(np.delete(xt, r, axis=0).T * xt[r, :, None]):
                errors[int(r)] = ConvergenceError(
                    "data are linearly separable and lambda = 0: the logistic loss "
                    "has no minimizer (coefficients diverge)", kkt_residual=float("inf"))
    nodes = np.array([r for r in nodes if r not in errors], dtype=np.int64)
    second = samples.second_moment()
    solutions: dict[int, LassoSolution] = {}
    kkt = np.full(nodes.size, np.inf)
    # the active rows only, widest working set first and compacted at the
    # check where a node leaves: row k is node act[k]; every set starts
    # empty, all padding, and the check at iteration 0 builds them
    act = np.arange(nodes.size)
    linear = np.zeros((nodes.size, p + 1))
    linear[:, :p] = second[nodes]
    work = np.full((nodes.size, 1), p)
    theta = momentum = np.zeros(work.shape)
    t_acc = np.ones(nodes.size)
    dense_rows, groups = 0, []
    tanh_buf = np.empty((nodes.size, samples.n))  # each check's tanh(X theta), row by row
    for it in range(_MAX_ITERS + 1):
        if act.size == 0:
            break
        if it:  # iteration 0 is the check at theta = 0 alone
            grad_w = _working_grad(xt, dense_rows, groups, work, momentum, linear_w)
            new = _soft_threshold(momentum - step[:, None] * grad_w, (step * lam)[:, None])
            progress = new - theta
            # restart where the momentum step points against the progress made;
            # the running sum adds the padding's zeros last, so they change no bit
            restart = np.cumsum((momentum - new) * progress, axis=1)[:, -1] > 0.0
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            beta = np.where(restart, 0.0, (t_acc - 1.0) / t_next)
            momentum = new + beta[:, None] * progress
            theta = new
            t_acc = np.where(restart, 1.0, t_next)
        if it % _KKT_CHECK_EVERY:
            continue
        # the check: the full gradient decides convergence, the guard
        # divergence, and both which rows leave; the rest get new sets
        dense = np.zeros((act.size, p + 1))
        np.put_along_axis(dense, work, theta, axis=1)
        s = _check_tanh(xt, dense_rows, groups, dense[:, :p], theta, tanh_buf[:act.size])
        grad = _logistic_grad(xt, s, linear[:, :p], (np.arange(act.size), nodes[act]))
        kkt[act] = _kkt_residual(dense[:, :p], grad, lam)
        diverged = np.abs(theta).max(axis=1) > _MAX_COEF
        for j in act[diverged]:
            errors[int(nodes[j])] = ConvergenceError(
                "logistic coefficients diverged (with lambda = 0 this means the "
                "data are separable and no minimizer exists)", kkt_residual=float("inf"))
        converged = (kkt[act] <= cfg.tol) & ~diverged
        # a converged row's record, from its iterate, gradient and residual
        # (the pinned entry adds |0| - lam < 0), and its loss there:
        # log(1 + exp(-2yu)) = log 2cosh(u) - yu for y = +-1, so
        # (1/n) sum_i log 2cosh(u_i) - theta . M[r]
        k = np.flatnonzero(converged)
        loss = (_mean_log_cosh(xt, dense_rows, groups, dense[:, :p], theta, k)
                - np.einsum("kp,kp->k", dense[k, :p], linear[k, :p]))
        for i, j, loss_i in zip(k, act[k], loss.tolist()):
            r = int(nodes[j])
            solutions[r] = _cut(_finalize(dense[i, :p], grad[i], loss_i, lam, it, kkt[j]), r)
        mask = (dense[:, :p] != 0.0) | (np.abs(grad) > lam)
        was = np.zeros((act.size, p + 1), dtype=bool)
        np.put_along_axis(was, work, True, axis=1)
        same = (was[:, :p] == mask).all(axis=1)
        # the rows that stay, widest set first, regathered from the check's
        # iterate; a row whose set is unchanged keeps its momentum, the
        # others restart from their iterate on the new set
        keep = np.flatnonzero(~(diverged | converged))
        keep = keep[np.argsort(-mask[keep].sum(axis=1), kind="stable")]
        kept = np.zeros((keep.size, p + 1))
        np.put_along_axis(kept, work[keep], momentum[keep], axis=1)
        act, linear, same = act[keep], linear[keep], same[keep]
        work, step, dense_rows, groups = _working_sets(mask[keep], second, bits, samples.n)
        theta = np.take_along_axis(dense[keep], work, axis=1)
        momentum = np.where(same[:, None], np.take_along_axis(kept, work, axis=1), theta)
        t_acc = np.where(same, t_acc[keep], 1.0)
        linear_w = np.take_along_axis(linear, work, axis=1)
    for j in act:
        errors[int(nodes[j])] = ConvergenceError(
            f"proximal gradient did not converge in {_MAX_ITERS} iterations "
            f"(residual {kkt[j]:.3e})", kkt_residual=float(kkt[j]))
    return solutions, errors


def solve_logistic_l1(
    samples: SampleMatrix, r: int, lam: float, config: SolverConfig | None = None
) -> LassoSolution:
    """L1-penalized logistic regression of spin r on the rest: the
    one-column call of solve_logistic_l1_batch. Raises ValueError for
    samples of fewer than two spins, r outside 0..p-1 or a lambda that is
    not a finite number >= 0, and ConvergenceError when coefficients
    diverge, which with lambda = 0 signals separable data.
    """
    solutions, errors = solve_logistic_l1_batch(samples, [r], lam, config)
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


def resolve_penalty(lam: float | None, kappa: float | None, n: int, p: int) -> float:
    """The penalty from exactly one of lambda or kappa, kappa by the
    lambda_from_kappa rule: the one rule of recover_graph and the CLI."""
    if (lam is None) == (kappa is None):
        raise ValueError("give exactly one of lambda or kappa")
    if kappa is None:
        return lam
    if require_number("kappa", kappa) < 0:
        raise ValueError("kappa must be >= 0")
    return lambda_from_kappa(kappa, n, p)


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

    Exactly one of lam / kappa must be given (resolve_penalty). Per-node
    convergence failures are recorded in node_errors instead of aborting
    the remaining nodes. Every Lasso node slices the one cached second
    moment of `samples`; the logistic solver runs all p nodes as one batch.
    """
    lam = resolve_penalty(lam, kappa, samples.n, samples.p)
    if solver == "lasso":
        solutions, errors = {}, {}
        for r in range(samples.p):
            try:
                solutions[r] = solve_lasso(samples, r, lam, config)
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
