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
import ctypes
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from multiprocessing import get_context

import numpy as np

from .graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    check_regular_degree,
    generate_graph,
    require_int,
    require_number,
)
from .sampler import SamplerConfig, gibbs_sample
from .solvers import SolverConfig, lambda_from_kappa, recover_graph

SOLVERS = ("lasso", "logistic")
CHUNKSIZE = 4  # tasks a pool worker takes at a time; no outcome depends on it

# Penalty constant of the sweeps; docs/decisions.md records how it was
# chosen and why it stays. At this kappa exact recovery levels off near 0.7
# for beta 5-10 on rr d=3, every failure a spurious edge: kappa = 2 sits
# below the dual-feasibility floor 2 sigma / alpha ~ 2.63.
KAPPA_DEFAULT = 2.0

# One row per sweep family: the generate_graph family, the nominal degree d
# as a function of (p, config d), which both the generator and the
# sample-size rule n = beta * factor * d * log p read, the factor, then the
# coupling scheme's kind and value. Both star families are stars of hub degree d.
_FAMILY_RULES = {
    "rr": ("rr", lambda p, d: d, 10, "mixed", 0.4),
    "grid": ("grid", lambda p, d: 4, 15, "uniform", 0.2),
    "star_linear": ("star", lambda p, d: math.ceil(0.1 * p), 10, "degree_scaled", 1.2),
    "star_log": ("star", lambda p, d: math.ceil(math.log(p)), 10, "degree_scaled", 1.2),
    "tree": ("tree", lambda p, d: d, 10, "mixed", 0.4),
}


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    p_list: tuple[int, ...]
    beta_grid: tuple[float, ...]
    trials: int
    solver: str = "both"
    kappa: float = KAPPA_DEFAULT
    coupling_value: float | None = None
    d: int = 3
    master_seed: int = 0
    burn_in_sweeps: int = SamplerConfig.burn_in_sweeps
    thinning_sweeps: int = SamplerConfig.thinning_sweeps
    solver_tol: float = 1e-7

    def __post_init__(self):
        """Every field is checked here, for a config built in Python and
        one read by from_json alike."""
        if not isinstance(self.family, str) or self.family not in _FAMILY_RULES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.solver not in SOLVERS + ("both",):
            raise ValueError(f"unknown solver {self.solver!r}")
        for name, low in (("trials", 1), ("d", 1), ("master_seed", 0)):
            require_int(name, getattr(self, name), low)
        for key in ("p_list", "beta_grid"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or not value:
                raise ValueError(f"{key} must be a nonempty array, got {value!r}")
        p_list = tuple(require_int("p_list entry", p, 1) for p in self.p_list)
        if len(set(p_list)) < len(p_list):
            raise ValueError(f"p_list entries must be distinct, got {list(p_list)}")
        object.__setattr__(self, "p_list", p_list)
        if self.family == "tree":  # generate_random_tree's degree-cap floor
            require_int("d", self.d, 2)
        betas = tuple(require_number("beta_grid entry", b) for b in self.beta_grid)
        if any(b <= 0 for b in betas):
            raise ValueError("beta grid values must be positive")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("beta grid must be strictly increasing")
        object.__setattr__(self, "beta_grid", betas)
        if require_number("kappa", self.kappa) <= 0:
            raise ValueError("kappa must be positive")
        # reject bad coupling, solver and chain settings before any chain runs
        self.scheme()
        SolverConfig(tol=self.solver_tol)
        SamplerConfig(burn_in_sweeps=self.burn_in_sweeps, thinning_sweeps=self.thinning_sweeps)
        for p in p_list:  # each p by its generator's own rule, before any worker starts
            try:
                if self.family == "rr":  # one rr draw can take thousands of attempts
                    check_regular_degree(p, self.d)
                else:
                    build_graph(self, p, 0, 0)
            except ValueError as exc:
                raise ValueError(
                    f"p_list entry {p} is refused by family {self.family!r}: {exc}"
                ) from exc

    @property
    def solvers(self) -> tuple[str, ...]:
        return SOLVERS if self.solver == "both" else (self.solver,)

    def scheme(self) -> CouplingScheme:
        _, _, _, kind, value = _FAMILY_RULES[self.family]
        if self.coupling_value is not None:
            value = self.coupling_value
        return CouplingScheme(kind=kind, value=value)

    def degree_for(self, p: int) -> int:
        """Nominal degree entering the generator and the sample-size rule."""
        return _FAMILY_RULES[self.family][1](p, self.d)

    def sample_size(self, p: int, beta: float) -> int:
        factor = _FAMILY_RULES[self.family][2]
        return max(2, round(beta * factor * self.degree_for(p) * math.log(p)))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> ExperimentConfig:
        """A config from a JSON object. Only the structure is read here: a
        non-object or unknown or missing keys raise ValueError, and the
        constructor checks the values."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a sweep config must be a JSON object")
        known = {f.name: f.default is MISSING for f in fields(cls)}
        unknown = sorted(set(obj) - set(known))
        missing = sorted(key for key, needed in known.items() if needed and key not in obj)
        if unknown or missing:
            raise ValueError(f"sweep config: unknown keys {unknown}, missing keys {missing}")
        return cls(**obj)


def build_graph(config: ExperimentConfig, p: int, graph_seed: int, coupling_seed: int) -> SignedGraph:
    """One graph instance from the configured family's row, couplings assigned."""
    g = generate_graph(_FAMILY_RULES[config.family][0], p, config.degree_for(p), graph_seed)
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
    # the model has no field, so a paramagnetic chain's spin means are
    # O(1/sqrt(n)): max |mean| above 15/sqrt(n) flags a chain that has not mixed
    mag_warn = bool(np.abs(samples.as_float().mean(axis=0)).max() > 15.0 / math.sqrt(n))
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


def openblas_num_threads(verb: str, *args) -> list:
    """What `<verb>_num_threads(*args)` ("get" or "set") returns on each OpenBLAS
    in this process (the numpy and scipy wheels each bundle one); none off Linux."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [ctypes.CDLL(p) for p in sorted({ln.split()[-1] for ln in fh if "openblas" in ln})]
    except FileNotFoundError:
        return []
    names = [f"scipy_openblas_{verb}_num_threads{suffix}" for suffix in ("64_", "")]
    return [getattr(lib, name)(*args) for lib in libs for name in names if hasattr(lib, name)]


def parallel_map(fn, tasks: list, workers: int) -> list:
    """fn(*task) for each task, in task order: here when workers == 1, else in
    min(workers, len(tasks)) spawned processes that each run BLAS on one thread.
    A worker count that is no integer >= 1 raises ValueError before any task runs."""
    if require_int("workers", workers, 1) == 1 or not tasks:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(min(workers, len(tasks)), get_context("spawn"),
                             openblas_num_threads, ("set", 1)) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=CHUNKSIZE))


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Full Cartesian sweep over p_list x beta_grid x trials, the trials run
    by parallel_map in up to `workers` processes; no outcome depends on it."""
    cells = [
        (p, beta, [trial_seed_for(config.master_seed, pi, bi, t) for t in range(config.trials)])
        for pi, p in enumerate(config.p_list)
        for bi, beta in enumerate(config.beta_grid)
    ]
    tasks = [(config, p, beta, seed) for p, beta, seeds in cells for seed in seeds]
    results = iter(parallel_map(run_trial, tasks, workers))

    curves: dict[tuple[str, int], list[CurvePoint]] = {
        (solver, p): [] for solver in config.solvers for p in config.p_list
    }
    trial_seeds: dict[str, list[int]] = {}
    failures: dict[str, list[str]] = {}
    mag_warnings = 0
    for p, beta, seeds in cells:
        cell, key = [next(results) for _ in seeds], f"{p}:{beta}"
        trial_seeds[key] = seeds
        causes = [r.failure_cause[s] for r in cell for s in r.failure_cause]
        if causes:
            failures[key] = causes
        mag_warnings += sum(r.magnetization_warning for r in cell)
        mean_ms = sum(r.duration_ms for r in cell) / len(cell)
        for solver in config.solvers:
            wins = sum(r.success[solver] for r in cell)
            curves[(solver, p)].append(CurvePoint(
                p=p, d=config.degree_for(p), beta=beta, n=cell[0].n, lam=cell[0].lam,
                trials=len(cell), successes=wins, probability=wins / len(cell),
                stderr=_wald_stderr(wins, len(cell)), mean_trial_ms=mean_ms))

    manifest = {
        "config": json.loads(config.to_json()),
        "trial_seeds": trial_seeds,
        "solver_failures": failures,
        "magnetization_warnings": mag_warnings,
    }
    return SweepResult(
        config=config, curves=curves, manifest=manifest,
        monotonicity_warnings=monotonicity_warnings(curves),
    )


CSV_COLUMNS = [
    "solver", "family", "p", "d", "beta", "n", "lambda",
    "trials", "successes", "probability", "stderr", "mean_trial_ms",
]


def sweep_to_csv(result: SweepResult, path: str) -> None:
    """One row per curve point: the solver, the family, then the CurvePoint
    fields in order, floats written exactly (.17g)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for (solver, p), points in sorted(result.curves.items()):
            for pt in points:
                writer.writerow([solver, result.config.family] + [
                    format(v, ".17g") if isinstance(v, float) else v for v in astuple(pt)
                ])


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
