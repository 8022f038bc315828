"""Independent brute-force references, and the noise-tail probe, used by tests only."""
import itertools
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import expit


def lasso_objective(theta, gram, linear, lam, constant=0.5):
    return (
        0.5 * float(theta @ gram @ theta)
        - float(linear @ theta)
        + constant
        + lam * float(np.abs(theta).sum())
    )


def brute_force_lasso_objective(gram, linear, lam, constant=0.5):
    """Global minimum of the Gram-form Lasso by enumerating every
    (support, sign) pattern and solving its stationarity system exactly.

    The true minimizer appears among the candidates (its own pattern's
    linear system reproduces it), so the smallest candidate objective is
    the global minimum.
    """
    m = gram.shape[0]
    best = constant  # theta = 0
    for k in range(1, m + 1):
        for subset in itertools.combinations(range(m), k):
            idx = list(subset)
            block = gram[np.ix_(idx, idx)]
            for signs in itertools.product((-1.0, 1.0), repeat=k):
                rhs = linear[idx] - lam * np.asarray(signs)
                sol, *_ = np.linalg.lstsq(block, rhs, rcond=None)
                theta = np.zeros(m)
                theta[idx] = sol
                best = min(best, lasso_objective(theta, gram, linear, lam, constant))
    return best


def rr_support_block(d: int, theta0: float) -> np.ndarray:
    """Explicit d x d support covariance block of a degree-d regular graph:
    unit diagonal, tanh^2(theta0) off-diagonal."""
    th2 = math.tanh(theta0) ** 2
    return np.full((d, d), th2) + (1.0 - th2) * np.eye(d)


def rr_neighbor_row(d: int, theta0: float) -> np.ndarray:
    """Worst-case cross-covariance row for the incoherence norm on a
    degree-d regular graph: one entry tanh(theta0) (the adjacent support
    vertex) and d-1 entries tanh^3(theta0) (distance three)."""
    th = math.tanh(theta0)
    row = np.full(d, th**3)
    row[0] = th
    return row


def finalize_reference(theta, grad, loss, lam, iterations, support_idx):
    """One node's solution record from its final iterate and the gradient
    of its smooth loss, built node by node, with the residual taken over
    the positions support_idx."""
    from isinglasso.solvers import LassoSolution, _kkt_residual

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
    )


def logistic_grad_oracle(x, y, theta, pinned):
    """Gradient of the mean log-loss (1/n) sum_i log(1 + exp(-2 y_ik <theta_k, x_i>))
    at every column k of theta, term by term from d/du log(1 + exp(-2yu)) =
    -2y expit(-2yu), zeroed at the pinned entries."""
    u = x @ theta
    grad = (-2.0 / x.shape[0]) * (x.T @ (y * expit(-2.0 * y * u)))
    grad[pinned] = 0.0
    return grad


def logistic_objective_oracle(x, r, theta, lam):
    """Node r's L1-logistic objective at theta, its coefficients on the p-1
    predictors, sample by sample: (1/n) sum_i log(1 + exp(-2 x_ir <theta, x_i>))
    + lam l1_norm(theta), each margin and each sum taken by math.fsum."""
    xs = np.delete(x, r, axis=1)
    terms = [np.logaddexp(0.0, -2.0 * x[i, r] * math.fsum(xs[i] * theta)) for i in range(len(x))]
    return math.fsum(terms) / len(terms) + lam * math.fsum(np.abs(theta))


def logistic_l1_oracle(yx, lam, gtol=1e-8):
    """Minimum of (1/n) sum_i log(1 + exp(-2 yx_i . theta)) + lam l1(theta)
    by L-BFGS-B on the smooth split theta = theta_plus - theta_minus with
    both halves bounded below by 0.

    ftol = 0 turns off the function-decrease stop, so a run counts only when
    L-BFGS-B stops on its projected gradient: every split coordinate has
    |min(value, gradient)| <= gtol. A run that ends otherwise (a failed line
    search near the rounding floor) is restarted from where it stopped.
    Returns (theta, objective).
    """
    n, m = yx.shape

    def fun(v):
        u = yx @ (v[:m] - v[m:])
        grad = -(2.0 / n) * (expit(-2.0 * u) @ yx)
        value = np.logaddexp(0.0, -2.0 * u).mean() + lam * v.sum()
        return value, np.concatenate([grad + lam, lam - grad])

    v = np.zeros(2 * m)
    for _ in range(5):
        res = minimize(fun, v, jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * (2 * m),
                       options={"gtol": gtol, "ftol": 0.0, "maxiter": 10_000})
        v = res.x
        if "PROJECTED GRADIENT" in res.message:
            return v[:m] - v[m:], float(res.fun)
    raise RuntimeError(f"L-BFGS-B did not reach gtol = {gtol}: {res.message}")


def logistic_fista_reference(samples, nodes, lam, tol):
    """Dense matrix FISTA over all p coordinates as one p x K coefficient
    matrix, for lam > 0, with one global step 1 / lambda_max of the second
    moment: every iteration gathers the active columns of the iterate, the
    momentum and the int8 responses, takes the gradient
    (1/n) X'(tanh(X theta) - y) with dense products, and scatters the
    results back. The restart and divergence guard are
    solve_logistic_l1_batch's; its working sets and per-node steps are not,
    nor its KKT cadence: this reference checks after the first iteration
    and every _KKT_CHECK_EVERY after it, the batch from iteration 0 on.
    Returns {node: (coefficients without entry node, iterations, residual)}
    for the nodes that converged."""
    from isinglasso.solvers import _KKT_CHECK_EVERY, _MAX_COEF, _MAX_ITERS

    def grad_of(y, theta, pinned):
        s = x @ theta
        np.tanh(s, out=s)
        s -= y
        grad = (x.T @ s) / x.shape[0]
        grad[pinned] = 0.0
        return grad

    def residual(theta, grad):
        res = np.where(theta != 0.0, np.abs(grad + lam * np.sign(theta)), np.abs(grad) - lam)
        return np.maximum(res.max(axis=0, initial=0.0), 0.0)

    x, p = samples.as_float(), samples.p
    nodes = np.asarray(nodes, dtype=np.int64)
    step = 1.0 / np.linalg.eigvalsh(samples.second_moment())[-1]
    y = samples.data[:, nodes]
    theta, momentum = np.zeros((p, nodes.size)), np.zeros((p, nodes.size))
    t_acc = np.ones(nodes.size)
    iterations = np.zeros(nodes.size, dtype=np.int64)
    kkt = np.full(nodes.size, np.inf)
    act = np.arange(nodes.size)
    for it in range(1, _MAX_ITERS + 1):
        if act.size == 0:
            break
        pinned = (nodes[act], np.arange(act.size))
        mom, old = momentum[:, act], theta[:, act]
        cand = mom - step * grad_of(y[:, act], mom, pinned)
        new = np.sign(cand) * np.maximum(np.abs(cand) - step * lam, 0.0)
        restart = np.einsum("ij,ij->j", mom - new, new - old) > 0.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc[act] ** 2))
        beta = np.where(restart, 0.0, (t_acc[act] - 1.0) / t_next)
        momentum[:, act] = new + beta * (new - old)
        theta[:, act] = new
        t_acc[act] = np.where(restart, 1.0, t_next)
        if it % _KKT_CHECK_EVERY == 0 or it == 1:
            kkt[act] = residual(new, grad_of(y[:, act], new, pinned))
            diverged = np.abs(new).max(axis=0) > _MAX_COEF
            converged = (kkt[act] <= tol) & ~diverged
            iterations[act[converged]] = it
            act = act[~(diverged | converged)]
    return {
        int(r): (np.delete(theta[:, j], r), int(iterations[j]), float(kkt[j]))
        for j, r in enumerate(nodes) if iterations[j]
    }


def gibbs_reference(graph, n, config):
    """Heat-bath Gibbs samples, one generator call and one logistic per
    color class per sweep: x_r = +1 iff u < 1/(1 + exp(-2 h_r)). Consumes
    the stream in the order gibbs_sample lays out its threshold blocks."""
    from isinglasso.sampler import SampleMatrix, _color_classes

    rng = np.random.default_rng(config.seed)
    J = graph.coupling_matrix()
    classes = _color_classes(graph)
    class_rows = [J[c] for c in classes]
    x = np.where(rng.random(graph.p) < 0.5, 1.0, -1.0)

    def sweep():
        for c, rows in zip(classes, class_rows):
            h = rows @ x
            prob_up = 1.0 / (1.0 + np.exp(-2.0 * h))
            x[c] = np.where(rng.random(c.size) < prob_up, 1.0, -1.0)

    for _ in range(config.burn_in_sweeps):
        sweep()
    out = np.empty((n, graph.p), dtype=np.int8)
    for i in range(n):
        for _ in range(config.thinning_sweeps):
            sweep()
        out[i] = x
    return SampleMatrix(data=out)


def random_regular_reference(p, d, seed):
    """The random-regular draw with its pairing tested pair by pair: the
    same shuffle stream and acceptance rule as generate_random_regular,
    whose degree checks it leaves out, returning the sorted edge tuple."""
    dense = 2 * d > p - 1
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(p, dtype=np.int64), p - 1 - d if dense else d)
    while True:
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, stubs.size, 2):
            u, v = sorted((int(stubs[i]), int(stubs[i + 1])))
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            if dense:
                edges = set(itertools.combinations(range(p), 2)) - edges
            return tuple(sorted(edges))


def _state_probabilities(graph):
    """Every state of {-1,+1}^p with its probability, one state at a time.
    Energies are shifted by their maximum before exponentiating so large
    couplings cannot overflow."""
    states = [np.array(x) for x in itertools.product((-1.0, 1.0), repeat=graph.p)]
    energies = [
        math.fsum(j * x[r] * x[t] for (r, t), j in graph.couplings.items()) for x in states
    ]
    top = max(energies)
    weights = [math.exp(e - top) for e in energies]
    total = math.fsum(weights)
    return states, [w / total for w in weights], top + math.log(total)


def enumeration_oracle(graph):
    """(mean, covariance, log Z) of the zero-field Ising law, summed state
    by state."""
    states, probs, log_z = _state_probabilities(graph)
    mean = sum(w * x for w, x in zip(probs, states))
    second = sum(w * np.outer(x, x) for w, x in zip(probs, states))
    return mean, second - np.outer(mean, mean), log_z


def z_statistics_oracle(graph, r, theta_row):
    """Per-coordinate E[Z_s], E[Z_s^2] and max |Z_s| over all states, where
    Z_s = x_s (x_r - <theta_row, x_without_r>), summed state by state."""
    states, probs, _ = _state_probabilities(graph)
    z = [np.delete(x, r) * (x[r] - np.delete(x, r) @ theta_row) for x in states]
    means = sum(w * zi for w, zi in zip(probs, z))
    second = sum(w * zi * zi for w, zi in zip(probs, z))
    max_abs = np.max(np.abs(z), axis=0)
    return means, second, max_abs


def node_moments(second, r):
    """Node r's regression data in its own p-1 coordinates (vertex order
    with r deleted): the predictor block Q, row and column r deleted, and
    the cross-moment vector b, column r without entry r."""
    q = np.delete(np.delete(second, r, axis=0), r, axis=1)
    return q, np.delete(second[:, r], r)


def reduced_support(support, p, r):
    """Sorted positions of the support vertices among node r's p-1
    predictors."""
    return np.asarray(sorted(v - 1 if v > r else v for v in support), dtype=np.int64)


def tree_covariance_reference(graph):
    """Pair correlations of an acyclic model by one depth-first search per
    root, multiplying tanh(J_e) edge by edge outward from the root, so that
    entry [R, u] is cov[R, v] * tanh(J_vu) with v the neighbour of u toward
    R; zero across components."""
    p = graph.p
    cov = np.eye(p)
    tanh_edges = [[] for _ in range(p)]
    for (r, t), j in graph.couplings.items():
        th = math.tanh(j)
        tanh_edges[r].append((t, th))
        tanh_edges[t].append((r, th))
    for root in range(p):
        stack = [(root, -1, 1.0)]
        while stack:
            v, parent, acc = stack.pop()
            for u, th in tanh_edges[v]:
                if u != parent:
                    cov[root, u] = acc * th
                    stack.append((u, v, acc * th))
    return cov


def support_conditions_reference(second, r, support):
    """(smallest eigenvalue of Q_SS, max row l1 norm of Q_{S^c S} Q_SS^-1)
    on node r's p-1 coordinates; the norm is inf when Q_SS has an
    eigenvalue <= 1e-12."""
    q, _ = node_moments(second, r)
    mask = np.zeros(q.shape[0], dtype=bool)
    mask[reduced_support(support, second.shape[0], r)] = True
    q_ss = q[np.ix_(mask, mask)]
    eig_min = float(np.linalg.eigvalsh(q_ss).min())
    if eig_min <= 1e-12:
        return eig_min, math.inf
    a = cho_solve(cho_factor(q_ss), q[np.ix_(~mask, mask)].T).T
    return eig_min, float(np.abs(a).sum(axis=1).max(initial=0.0))


def witness_reference(second, r, support, theta_row, lam, config):
    """Node r's primal-dual witness on its p-1 coordinates, with theta_row
    the regression targets of the p-1 predictors: the restricted Lasso on
    (Q, b), W = b - Q theta_row, and z_off from the stationarity system.
    Returns the certificate's fields by name."""
    from isinglasso.solvers import lasso_cd_gram

    q, b = node_moments(second, r)
    s_idx = reduced_support(support, second.shape[0], r)
    mask = np.zeros(q.shape[0], dtype=bool)
    mask[s_idx] = True
    eig_min, incoherence = support_conditions_reference(second, r, support)
    w = b - q @ theta_row
    theta_hat_s = lasso_cd_gram(q, b, lam, support=s_idx, config=config).coefficients[s_idx]
    dev = theta_hat_s - theta_row[mask]
    return {
        "theta_hat_s": theta_hat_s,
        "z_sc": (w[~mask] - q[np.ix_(~mask, mask)] @ dev) / lam,
        "w_s_inf": float(np.abs(w[mask]).max()),
        "w_sc_inf": float(np.abs(w[~mask]).max(initial=0.0)),
        "c_min_measured": eig_min,
        "alpha_measured": 1.0 - incoherence,
    }


def noise_reference(x, r, theta_row):
    """(mean, max |.|, variance) per predictor of the per-sample statistics
    Z_s_i = x_s_i (x_r_i - <theta_row, x_without_r_i>), from the explicit
    n x (p-1) Z matrix."""
    xs = np.delete(x, r, axis=1)
    z = xs * (x[:, r] - xs @ theta_row)[:, None]
    return z.mean(axis=0), np.abs(z).max(axis=0), z.var(axis=0)


class ProbeRow(NamedTuple):
    """One sample size of tail_rate_probe."""

    n: int
    lam: float
    trials: int
    exceed_count: int
    empirical_prob: float
    stderr: float
    bound: float
    within_precondition: bool


def _probe_sup_noise(graph, theta_tilde, node, n, config):
    """sup|W| of node's noise vector on one Gibbs chain: one probe task."""
    from isinglasso.sampler import gibbs_sample
    from isinglasso.witness import compute_noise_vector

    return compute_noise_vector(gibbs_sample(graph, n, config), node, theta_tilde).inf_norm


def tail_rate_probe(graph, theta_tilde, n_grid, trials, c, workers, sampler=None, seed=0):
    """Monte Carlo estimate, per n, of the probability that the scaled noise
    (2-alpha)/lambda * sup|W| reaches alpha/2, next to its ceiling 2 p^-c, at
    the noise concentration statement's penalty, kappa = 4 sqrt(c+1)
    (2-alpha)/alpha in the lambda_from_kappa rule. The probe node is the first
    max-degree vertex and alpha its population incoherence margin; rows with
    n < (c+1) d^2 log p lie outside the statement's premise. Chain (i, t) of
    n_grid[i] is seeded by SeedSequence((seed, i, t)) and run by
    experiment.parallel_map in `workers` processes, a count that no outcome
    depends on."""
    from isinglasso.bethe import support_conditions, tree_covariance
    from isinglasso.experiment import _wald_stderr, parallel_map
    from isinglasso.sampler import SamplerConfig
    from isinglasso.solvers import lambda_from_kappa

    p, d, node = graph.p, graph.max_degree, int(np.argmax(graph.degrees))
    alpha = 1.0 - support_conditions(tree_covariance(graph), node, graph.neighbors[node])[1]
    kappa = 4.0 * math.sqrt(c + 1.0) * (2.0 - alpha) / alpha
    base = sampler or SamplerConfig()
    tasks = [
        (graph, theta_tilde, node, n,
         replace(base, seed=int(np.random.SeedSequence(entropy=(seed, i, t)).generate_state(1)[0])))
        for i, n in enumerate(n_grid) for t in range(trials)
    ]
    sup_w = iter(parallel_map(_probe_sup_noise, tasks, workers))
    rows = []
    for n in n_grid:
        lam = lambda_from_kappa(kappa, n, p)
        exceed = sum(next(sup_w) >= 0.5 * alpha * lam / (2.0 - alpha) for _ in range(trials))
        rows.append(ProbeRow(n, lam, trials, exceed, exceed / trials, _wald_stderr(exceed, trials),
                             2.0 * math.exp(-c * math.log(p)), n >= (c + 1.0) * d * d * math.log(p)))
    return rows
