"""Success-probability sweeps over the control parameter beta.

For each (p, beta) cell the harness draws a fresh graph from the configured
family, Gibbs-samples n = round(beta * factor * d * log p) spin snapshots,
runs the per-node solvers with lambda = kappa * sqrt(log(p)/n), and scores
the trial a success iff every signed neighborhood is recovered exactly.
Curves are written as CSV next to a manifest that pins every seed, so a
sweep can be reproduced outcome-for-outcome.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    generate_grid_periodic,
    generate_random_regular,
    generate_random_tree,
    generate_star,
)
from .sampler import (
    SamplerConfig,
    estimate_magnetization,
    gibbs_sample,
    magnetization_warning_threshold,
)
from .solvers import SolverConfig, lambda_from_kappa, recover_graph

FAMILIES = ("rr", "grid", "star_linear", "star_log", "tree")
SOLVERS = ("lasso", "logistic")

# Penalty constant of the sweeps; docs/decisions.md records how it was
# chosen and why it stays. At this kappa exact recovery levels off near 0.7
# for beta 5-10 on rr d=3, every failure a spurious edge: kappa = 2 sits
# below the dual-feasibility floor 2 sigma / alpha ~ 2.63.
KAPPA_DEFAULT = 2.0

_FAMILY_BETA_FACTOR = {"rr": 10, "grid": 15, "star_linear": 10, "star_log": 10, "tree": 10}
_FAMILY_COUPLING = {
    "rr": ("mixed", 0.4),
    "grid": ("uniform", 0.2),
    "star_linear": ("degree_scaled", 1.2),
    "star_log": ("degree_scaled", 1.2),
    "tree": ("mixed", 0.4),
}


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    p_list: tuple[int, ...]
    beta_grid: tuple[float, ...]
    trials: int
    solver: str = "both"
    kappa: float = KAPPA_DEFAULT
    beta_factor: int | None = None
    coupling: str | None = None
    coupling_value: float | None = None
    d: int = 3
    master_seed: int = 0
    burn_in_sweeps: int = 1000
    thinning_sweeps: int = 10
    solver_tol: float = 1e-7
    workers: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.solver not in SOLVERS + ("both",):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        betas = tuple(float(b) for b in self.beta_grid)
        if not betas or any(b <= 0 for b in betas):
            raise ValueError("beta grid values must be positive")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("beta grid must be strictly increasing")
        object.__setattr__(self, "beta_grid", betas)
        object.__setattr__(self, "p_list", tuple(int(p) for p in self.p_list))
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        SolverConfig(tol=self.solver_tol)  # rejects a bad tolerance before any chain runs

    @property
    def solvers(self) -> tuple[str, ...]:
        return SOLVERS if self.solver == "both" else (self.solver,)

    @property
    def factor(self) -> int:
        return self.beta_factor if self.beta_factor is not None else _FAMILY_BETA_FACTOR[self.family]

    def scheme(self) -> CouplingScheme:
        kind, value = _FAMILY_COUPLING[self.family]
        if self.coupling is not None:
            kind = self.coupling
        if self.coupling_value is not None:
            value = self.coupling_value
        return CouplingScheme(kind=kind, value=value)

    def degree_for(self, p: int) -> int:
        """Nominal degree entering the sample-size rule."""
        if self.family == "rr" or self.family == "tree":
            return self.d
        if self.family == "grid":
            return 4
        if self.family == "star_linear":
            return math.ceil(0.1 * p)
        return math.ceil(math.log(p))  # star_log, natural log

    def sample_size(self, p: int, beta: float) -> int:
        return max(2, round(beta * self.factor * self.degree_for(p) * math.log(p)))

    def to_json(self) -> str:
        obj = asdict(self)
        obj["p_list"] = list(self.p_list)
        obj["beta_grid"] = list(self.beta_grid)
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> ExperimentConfig:
        obj = json.loads(text)
        obj["p_list"] = tuple(obj["p_list"])
        obj["beta_grid"] = tuple(obj["beta_grid"])
        return cls(**obj)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def build_graph(config: ExperimentConfig, p: int, graph_seed: int, coupling_seed: int) -> SignedGraph:
    """One graph instance from the configured family, couplings assigned."""
    if config.family == "rr":
        g = generate_random_regular(p, config.d, graph_seed)
    elif config.family == "grid":
        side = math.isqrt(p)
        if side * side != p:
            raise ValueError(f"grid family needs a square p, got {p}")
        g = generate_grid_periodic(side, side)
    elif config.family == "star_linear":
        g = generate_star(p, math.ceil(0.1 * p))
    elif config.family == "star_log":
        g = generate_star(p, math.ceil(math.log(p)))
    else:
        g = generate_random_tree(p, config.d, graph_seed)
    return assign_couplings(g, config.scheme(), coupling_seed)


@dataclass
class TrialResult:
    p: int
    beta: float
    n: int
    lam: float
    trial_seed: int
    success: dict[str, bool]
    failure_cause: dict[str, str]
    duration_ms: float
    magnetization_warning: bool = False


def run_trial(config: ExperimentConfig, p: int, beta: float, trial_seed: int) -> TrialResult:
    """One independent trial: fresh graph, fresh chain, all nodes solved.

    Deterministic given (config, p, beta, trial_seed): the graph, coupling,
    and chain seeds are split off trial_seed with a counter-based scheme.
    """
    t0 = time.perf_counter()
    ss = np.random.SeedSequence(trial_seed)
    graph_seed, coupling_seed, chain_seed = (int(s) for s in ss.generate_state(3))
    graph = build_graph(config, p, graph_seed, coupling_seed)
    n = config.sample_size(p, beta)
    lam = lambda_from_kappa(config.kappa, n, p)
    samples = gibbs_sample(
        graph,
        n,
        SamplerConfig(
            burn_in_sweeps=config.burn_in_sweeps,
            thinning_sweeps=config.thinning_sweeps,
            seed=chain_seed,
        ),
    )
    solver_cfg = SolverConfig(tol=config.solver_tol)
    success: dict[str, bool] = {}
    cause: dict[str, str] = {}
    mag_warn = bool(
        np.abs(estimate_magnetization(samples)).max() > magnetization_warning_threshold(n)
    )
    for solver in config.solvers:
        estimate = recover_graph(samples, lam=lam, solver=solver, config=solver_cfg)
        success[solver] = estimate.matches_graph(graph)
        if estimate.node_errors:
            first = min(estimate.node_errors)
            cause[solver] = f"node {first}: {estimate.node_errors[first]}"
    return TrialResult(
        p=p,
        beta=beta,
        n=n,
        lam=lam,
        trial_seed=trial_seed,
        success=success,
        failure_cause=cause,
        duration_ms=(time.perf_counter() - t0) * 1e3,
        magnetization_warning=mag_warn,
    )


@dataclass(frozen=True)
class CurvePoint:
    p: int
    d: int
    beta: float
    n: int
    lam: float
    trials: int
    successes: int
    probability: float
    stderr: float
    mean_trial_ms: float


def _wald_stderr(successes: int, trials: int) -> float:
    prob = successes / trials
    return max(math.sqrt(prob * (1.0 - prob) / trials), 0.5 / trials)


@dataclass
class SweepResult:
    config: ExperimentConfig
    curves: dict[tuple[str, int], list[CurvePoint]]
    manifest: dict
    monotonicity_warnings: list[str] = field(default_factory=list)


def monotonicity_warnings(curves: dict[tuple[str, int], list[CurvePoint]]) -> list[str]:
    """Flag success-probability drops along beta beyond twice the larger
    stderr of the two points; curves are expected to rise, but a flag is
    advisory, never an error."""
    warnings = []
    for (solver, p), points in curves.items():
        for a, b in zip(points, points[1:]):
            slack = 2.0 * max(a.stderr, b.stderr)
            if b.probability < a.probability - slack:
                warnings.append(
                    f"{solver} p={p}: probability drops {a.probability:.3f} -> "
                    f"{b.probability:.3f} between beta={a.beta} and beta={b.beta}"
                )
    return warnings


def trial_seed_for(master_seed: int, p_idx: int, beta_idx: int, trial: int) -> int:
    """Counter-based per-trial seed; independent of scheduling order."""
    ss = np.random.SeedSequence(entropy=(master_seed, p_idx, beta_idx, trial))
    return int(ss.generate_state(1)[0])


def _trial_task(args):
    config, p, beta, seed = args
    return run_trial(config, p, beta, seed)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Full Cartesian sweep over p_list x beta_grid x trials."""
    tasks = []
    seeds: dict[str, list[int]] = {}
    for pi, p in enumerate(config.p_list):
        for bi, beta in enumerate(config.beta_grid):
            cell = [trial_seed_for(config.master_seed, pi, bi, t) for t in range(config.trials)]
            seeds[f"{p}:{beta}"] = cell
            tasks.extend((config, p, beta, s) for s in cell)

    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_trial_task, tasks, chunksize=4))
    else:
        results = [_trial_task(t) for t in tasks]

    by_cell: dict[tuple[int, float], list[TrialResult]] = {}
    mag_warnings = 0
    for res in results:
        by_cell.setdefault((res.p, res.beta), []).append(res)
        mag_warnings += res.magnetization_warning

    curves: dict[tuple[str, int], list[CurvePoint]] = {
        (solver, p): [] for solver in config.solvers for p in config.p_list
    }
    failures: dict[str, list[str]] = {}
    for p in config.p_list:
        for beta in config.beta_grid:
            cell = by_cell[(p, beta)]
            mean_ms = sum(r.duration_ms for r in cell) / len(cell)
            causes = [r.failure_cause[s] for r in cell for s in r.failure_cause]
            if causes:
                failures[f"{p}:{beta}"] = causes
            for solver in config.solvers:
                wins = sum(r.success[solver] for r in cell)
                curves[(solver, p)].append(
                    CurvePoint(
                        p=p,
                        d=config.degree_for(p),
                        beta=beta,
                        n=cell[0].n,
                        lam=cell[0].lam,
                        trials=len(cell),
                        successes=wins,
                        probability=wins / len(cell),
                        stderr=_wald_stderr(wins, len(cell)),
                        mean_trial_ms=mean_ms,
                    )
                )

    warnings = monotonicity_warnings(curves)

    manifest = {
        "config": json.loads(config.to_json()),
        "config_hash": config.digest(),
        "trial_seeds": seeds,
        "solver_failures": failures,
        "magnetization_warnings": mag_warnings,
    }
    return SweepResult(
        config=config, curves=curves, manifest=manifest, monotonicity_warnings=warnings
    )


CSV_COLUMNS = [
    "solver", "family", "p", "d", "beta", "n", "lambda",
    "trials", "successes", "probability", "stderr", "mean_trial_ms",
]


def sweep_to_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for (solver, p), points in sorted(result.curves.items()):
            for pt in points:
                writer.writerow(
                    [
                        solver,
                        result.config.family,
                        pt.p,
                        pt.d,
                        format(pt.beta, ".17g"),
                        pt.n,
                        format(pt.lam, ".17g"),
                        pt.trials,
                        pt.successes,
                        format(pt.probability, ".17g"),
                        format(pt.stderr, ".17g"),
                        format(pt.mean_trial_ms, ".17g"),
                    ]
                )


def save_manifest(result: SweepResult, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(result.manifest, fh, indent=2, sort_keys=True)


def crossing_half(points: list[CurvePoint]) -> float | None:
    """beta at which the curve first reaches probability 0.5, linearly
    interpolated; the first grid point if it starts at or above 0.5, None
    if the curve never gets there."""
    if points[0].probability >= 0.5:
        return points[0].beta
    for a, b in zip(points, points[1:]):
        if a.probability < 0.5 <= b.probability:
            frac = (0.5 - a.probability) / (b.probability - a.probability)
            return a.beta + frac * (b.beta - a.beta)
    return None


@dataclass(frozen=True)
class AlignmentReport:
    betas: tuple[float, ...]
    differences: tuple[float, ...]
    max_abs_difference: float
    crossing_a: float | None
    crossing_b: float | None
    crossing_difference: float | None


def compare_solvers(curve_a: list[CurvePoint], curve_b: list[CurvePoint]) -> AlignmentReport:
    """Per-beta probability gaps and the offset between the two curves'
    half-success crossings."""
    betas_a = tuple(pt.beta for pt in curve_a)
    betas_b = tuple(pt.beta for pt in curve_b)
    if betas_a != betas_b:
        raise ValueError(f"mismatched beta grids: {betas_a} vs {betas_b}")
    diffs = tuple(a.probability - b.probability for a, b in zip(curve_a, curve_b))
    ca = crossing_half(curve_a)
    cb = crossing_half(curve_b)
    cdiff = abs(ca - cb) if ca is not None and cb is not None else None
    return AlignmentReport(
        betas=betas_a,
        differences=diffs,
        max_abs_difference=max(abs(x) for x in diffs),
        crossing_a=ca,
        crossing_b=cb,
        crossing_difference=cdiff,
    )
