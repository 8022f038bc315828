"""Independent brute-force references used by tests only."""
import itertools
import math

import numpy as np
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
