import csv
import dataclasses
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isinglasso import experiment
from isinglasso.experiment import (
    CurvePoint,
    ExperimentConfig,
    build_graph,
    compare_solvers,
    crossing_half,
    monotonicity_warnings,
    openblas_num_threads,
    parallel_map,
    run_sweep,
    run_trial,
    save_manifest,
    sweep_to_csv,
    trial_seed_for,
)
from conftest import value_kinds


def tiny_config(**overrides):
    base = dict(
        family="rr",
        p_list=(8,),
        beta_grid=(0.5, 1.0),
        trials=2,
        solver="lasso",
        kappa=2.0,
        master_seed=11,
        burn_in_sweeps=50,
        thinning_sweeps=1,
        solver_tol=1e-6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Per key: a valid value and one below the valid range (a kind's "range"
# for the string keys).
_KEYS = {
    "family": ("rr", 0), "p_list": ([8], [0]), "beta_grid": ([0.5, 1.0], [-1]),
    "trials": (2, 0), "solver": ("lasso", 0), "kappa": (2.0, 0), "coupling_value": (0.4, 0),
    "d": (3, 0), "master_seed": (5, -1), "burn_in_sweeps": (50, -1), "thinning_sweeps": (1, 0),
    "solver_tol": (1e-6, 0),
}

_VALID = {key: valid for key, (valid, _) in _KEYS.items()}


def _config_value(key):
    valid, below = _KEYS[key]
    if isinstance(valid, list):  # the arrays: the whole value, or each entry
        return st.one_of(value_kinds(valid, below),
                         st.lists(value_kinds(valid[-1], below[0]), min_size=1, max_size=2))
    return value_kinds(valid, below)


def _outcome(make):
    """The config make() builds, or the message of the ValueError it raises;
    any other exception fails the test."""
    try:
        return make()
    except ValueError as exc:
        return f"ValueError: {exc}"


def point(beta, prob, p=32, trials=10):
    wins = round(prob * trials)
    return CurvePoint(
        p=p, d=3, beta=beta, n=100, lam=0.1, trials=trials, successes=wins,
        probability=wins / trials, stderr=0.05, mean_trial_ms=1.0,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="family"):
            tiny_config(family="hexagon")
        with pytest.raises(ValueError, match="solver"):
            tiny_config(solver="ridge")
        with pytest.raises(ValueError, match="trials"):
            tiny_config(trials=0)
        with pytest.raises(ValueError, match="increasing"):
            tiny_config(beta_grid=(1.0, 0.5))
        with pytest.raises(ValueError, match="positive"):
            tiny_config(beta_grid=(-0.5, 1.0))
        for tol in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="tol"):
                tiny_config(solver_tol=tol)
        with pytest.raises(ValueError, match="thinning_sweeps"):
            tiny_config(thinning_sweeps=0)
        with pytest.raises(ValueError, match="burn_in_sweeps"):
            tiny_config(burn_in_sweeps=-1)
        with pytest.raises(ValueError, match="p_list"):
            tiny_config(p_list=())
        with pytest.raises(ValueError, match="p_list entries must be distinct"):
            tiny_config(p_list=(8, 8))  # one cell's trials would be read as both
        with pytest.raises(ValueError, match="workers"):  # before any trial runs
            parallel_map(run_trial, [(tiny_config(), 8, 1.0, 0)], 0)
        with pytest.raises(ValueError, match="positive"):
            tiny_config(coupling_value=-0.4)  # at construction, before any trial

    @pytest.mark.parametrize(
        "override, field",
        [
            (dict(p_list=(8.7,)), "p_list"),
            (dict(p_list=(True,)), "p_list"),
            (dict(trials=2.5), "trials"),
            (dict(workers=1.5), "workers"),
            (dict(d=3.5), "d"),
            (dict(master_seed=1.5), "master_seed"),
            (dict(master_seed=-1), "master_seed"),
            (dict(burn_in_sweeps=10.0), "burn_in_sweeps"),
            (dict(thinning_sweeps=True), "thinning_sweeps"),
        ],
    )
    def test_bad_integer_settings_rejected(self, override, field):
        """A bad count fails before any trial runs: a config field when the
        config is built, the worker count when run_sweep asks for the pool."""
        settings = dict(override)
        workers = settings.pop("workers", 1)
        with pytest.raises(ValueError, match=field):
            run_sweep(tiny_config(**settings), workers)

    @pytest.mark.parametrize("p_list, d, message", [
        ((8,), 2, "integer >= 3"),
        ((8, 16), 8, "< p"),
        ((8, 9), 3, "even"),
        ((32,), 12, "pairing model's reach"),
    ])
    def test_rr_degree_the_generator_refuses(self, p_list, d, message):
        """An rr config fails when it is built, with the generator's own
        rule for every p, not in its first trial after workers start."""
        with pytest.raises(ValueError, match=message):
            tiny_config(p_list=p_list, d=d)

    def test_tree_degree_the_generator_refuses(self):
        """A tree config with d < 2 fails when it is built, by the Python
        path and the JSON path, not in its first trial."""
        with pytest.raises(ValueError, match="d must be an integer >= 2, got 1"):
            tiny_config(family="tree", d=1)
        obj = {**json.loads(tiny_config(family="tree").to_json()), "d": 1}
        with pytest.raises(ValueError, match="d must be an integer >= 2, got 1"):
            ExperimentConfig.from_json(json.dumps(obj))
        assert tiny_config(family="tree", d=2).d == 2

    @pytest.mark.parametrize("family, p, message", [
        ("grid", 10, "grid family needs a square p, got 10"),
        ("grid", 4, "rows must be an integer >= 3, got 2"),
        ("star_linear", 1, "hub degree must be <= p-1"),
        ("star_log", 1, "hub degree must be an integer >= 1, got 0"),
        ("tree", 1, "p must be an integer >= 2, got 1"),
    ])
    def test_p_the_generator_refuses(self, family, p, message):
        """A p that the family's generator refuses fails when the config is
        built, naming the entry and the family before the generator's own
        message, not in a worker's first trial."""
        entry = f"p_list entry {p} is refused by family {family!r}: "
        with pytest.raises(ValueError, match=f"^{re.escape(entry + message)}$"):
            tiny_config(family=family, p_list=(9, p))

    def test_from_json_takes_integers_as_numbers(self):
        obj = json.loads(tiny_config().to_json())
        cfg = ExperimentConfig.from_json(json.dumps({**obj, "kappa": 2, "beta_grid": [1, 2]}))
        assert cfg.kappa == 2 and cfg.beta_grid == (1.0, 2.0) and cfg.coupling_value is None

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({key: _config_value(key) for key in _KEYS}))
    @example({**_VALID, "beta_grid": [True]})
    @example({**_VALID, "kappa": "2"})
    def test_json_and_python_paths_agree(self, obj):
        """from_json only parses, so a value is accepted or refused, with the
        same message, whichever way it comes in; it is never a TypeError."""
        from_json = _outcome(lambda: ExperimentConfig.from_json(json.dumps(obj)))
        assert from_json == _outcome(lambda: ExperimentConfig(**obj))

    @pytest.mark.parametrize("override, message", [
        (dict(beta_grid=(True, "2.5")), "beta_grid entry must be a finite number, got True"),
        (dict(beta_grid=(0.5, "2.5")), "beta_grid entry must be a finite number, got '2.5'"),
        (dict(kappa="2"), "kappa must be a finite number, got '2'"),
        (dict(solver_tol=True), "tol must be a finite number, got True"),
        (dict(coupling_value=True), "coupling value must be a finite number, got True"),
        (dict(p_list=8), "p_list must be a nonempty array, got 8"),
    ])
    def test_python_path_checks_kinds(self, override, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_config(**override)

    def test_sample_size_rule(self):
        cfg = tiny_config()
        assert cfg.sample_size(32, 1.0) == round(10 * 3 * math.log(32))
        assert cfg.sample_size(32, 1e-9) == 2  # floor
        grid = tiny_config(family="grid", p_list=(16,))
        assert grid.sample_size(16, 1.0) == round(15 * 4 * math.log(16))

    def test_degree_rules(self):
        assert tiny_config(family="star_linear", p_list=(50,)).degree_for(50) == 5
        assert tiny_config(family="star_log", p_list=(16,)).degree_for(16) == 3
        assert tiny_config(family="grid", p_list=(16,)).degree_for(16) == 4

    def test_json_round_trip(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg


class TestBuildGraph:
    def test_families(self):
        cfg = tiny_config()
        g = build_graph(cfg, 8, graph_seed=1, coupling_seed=2)
        assert g.max_degree == 3 and g.couplings
        grid_cfg = tiny_config(family="grid", p_list=(9,))
        g2 = build_graph(grid_cfg, 9, 1, 2)
        assert g2.max_degree == 4
        assert all(j == 0.2 for j in g2.couplings.values())
        star_cfg = tiny_config(family="star_linear", p_list=(20,))
        g3 = build_graph(star_cfg, 20, 1, 2)
        assert g3.degrees[0] == 2
        assert abs(list(g3.couplings.values())[0] - 1.2 / math.sqrt(2)) < 1e-12
        tree_cfg = tiny_config(family="tree")
        g4 = build_graph(tree_cfg, 8, 1, 2)
        assert g4.is_acyclic()

    @pytest.mark.parametrize("p", [16, 200])
    def test_star_log_hub_degree(self, p):
        cfg = tiny_config(family="star_log", p_list=(p,))
        assert build_graph(cfg, p, 1, 2).degrees[0] == cfg.degree_for(p)

    def test_grid_requires_square(self):
        cfg = tiny_config(family="grid", p_list=(9,))  # a config refuses p = 12 itself
        with pytest.raises(ValueError, match="square"):
            build_graph(cfg, 12, 1, 2)


class TestRunTrial:
    def test_deterministic(self):
        cfg = tiny_config()
        a = run_trial(cfg, 8, 1.0, 999)
        b = run_trial(cfg, 8, 1.0, 999)
        assert a.success == b.success
        assert a.n == b.n and a.lam == b.lam

    def test_both_solvers_share_samples(self):
        cfg = tiny_config(solver="both")
        res = run_trial(cfg, 8, 1.0, 123)
        assert set(res.success) == {"lasso", "logistic"}


class TestRunSweep:
    def test_structure_and_reproducibility(self, tmp_path):
        cfg = tiny_config()
        result = run_sweep(cfg)
        points = result.curves[("lasso", 8)]
        assert [pt.beta for pt in points] == [0.5, 1.0]
        for pt in points:
            assert 0 <= pt.successes <= pt.trials == 2
            assert pt.probability == pt.successes / pt.trials
        again = run_sweep(cfg)
        assert [pt.successes for pt in again.curves[("lasso", 8)]] == [
            pt.successes for pt in points
        ]
        assert len(result.manifest["trial_seeds"]) == 2
        assert all(len(v) == 2 for v in result.manifest["trial_seeds"].values())

        csv_path = tmp_path / "curves.csv"
        sweep_to_csv(result, str(csv_path))
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "solver", "family", "p", "d", "beta", "n", "lambda",
            "trials", "successes", "probability", "stderr", "mean_trial_ms",
        ]
        assert len(rows) == 3
        manifest_path = tmp_path / "manifest.json"
        save_manifest(result, str(manifest_path))
        loaded = json.loads(manifest_path.read_text())
        assert loaded["config"]["family"] == "rr"

    def test_workers_match_serial_outcomes(self, monkeypatch):
        """Every curve field but the timing, the failure causes and the
        magnetization warnings are the same in one process and in two, for
        the pool's chunk size and for chunks of one task."""
        def outcomes(result):
            curves = {key: [dataclasses.replace(pt, mean_trial_ms=0.0) for pt in points]
                      for key, points in result.curves.items()}
            manifest = result.manifest
            return curves, manifest["solver_failures"], manifest["magnetization_warnings"]

        serial = outcomes(run_sweep(tiny_config()))
        for chunksize in (experiment.CHUNKSIZE, 1):
            monkeypatch.setattr(experiment, "CHUNKSIZE", chunksize)
            assert outcomes(run_sweep(tiny_config(), workers=2)) == serial

    def test_frozen_chain_is_flagged(self):
        """At coupling 2.0 on rr d=3 the chain barely moves, so some spin's
        mean over n = 250 samples stays above 15/sqrt(250) < 1: each trial
        raises the mixing warning and the manifest counts all three."""
        cfg = tiny_config(p_list=(16,), beta_grid=(3.0,), trials=3, coupling_value=2.0)
        seed = trial_seed_for(cfg.master_seed, 0, 0, 0)
        assert run_trial(cfg, 16, 3.0, seed).magnetization_warning
        result = run_sweep(cfg)
        assert result.curves[("lasso", 16)][0].n == 250
        assert result.manifest["magnetization_warnings"] == 3

    def test_pool_bounded_by_tasks(self, monkeypatch):
        """--workers 64 on a 4-trial sweep asks for 4 processes; the
        executor is replaced by one that runs the tasks here."""
        sizes = []

        class InProcessExecutor:
            def __init__(self, max_workers, *args):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessExecutor)
        result = run_sweep(tiny_config(), workers=64)
        assert sizes == [4]
        assert sum(pt.trials for pt in result.curves[("lasso", 8)]) == 4

    def test_rerun_from_manifest(self, tmp_path):
        """A manifest pins its sweep: the config read back from it and run
        in two processes writes the same manifest.json byte for byte and
        the same curves.csv but for the trial times."""
        def write(config, workers, name):
            result = run_sweep(config, workers)
            sweep_to_csv(result, str(tmp_path / f"{name}.csv"))
            save_manifest(result, str(tmp_path / f"{name}.json"))
            with open(tmp_path / f"{name}.csv") as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("mean_trial_ms")
            rows = [row[:drop] + row[drop + 1:] for row in rows]
            return (tmp_path / f"{name}.json").read_bytes(), rows

        manifest, rows = write(tiny_config(solver="both"), 1, "first")
        config = ExperimentConfig.from_json(json.dumps(json.loads(manifest)["config"]))
        assert write(config, 2, "rerun") == (manifest, rows)

    def test_workers_run_one_blas_thread(self):
        """A pool worker's OpenBLAS libraries run one thread each, and the
        calling process keeps its own setting."""
        before = openblas_num_threads("get")
        if not before:
            pytest.skip("no OpenBLAS thread query is loaded")
        assert parallel_map(openblas_num_threads, [("get",)], workers=2) == [[1] * len(before)]
        assert openblas_num_threads("get") == before

    def test_trial_seed_counter_based(self):
        a = trial_seed_for(3, 0, 1, 7)
        b = trial_seed_for(3, 0, 1, 7)
        c = trial_seed_for(3, 0, 1, 8)
        assert a == b != c


class TestCrossing:
    def test_interpolated(self):
        curve = [point(1.0, 0.1), point(2.0, 0.9)]
        assert abs(crossing_half(curve) - 1.5) < 1e-12

    def test_starts_above(self):
        curve = [point(1.0, 0.7), point(2.0, 0.9)]
        assert crossing_half(curve) == 1.0

    def test_never_crosses(self):
        curve = [point(1.0, 0.0), point(2.0, 0.4)]
        assert crossing_half(curve) is None


class TestCompareSolvers:
    def test_identical_curves(self):
        curve = [point(1.0, 0.2), point(2.0, 0.8)]
        report = compare_solvers(curve, curve)
        assert report.max_abs_difference == 0.0
        assert report.crossing_difference == 0.0

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            compare_solvers([point(1.0, 0.2)], [point(1.5, 0.2)])

    def test_crossing_difference(self):
        a = [point(1.0, 0.1), point(2.0, 0.9)]
        b = [point(1.0, 0.3), point(2.0, 0.7)]
        report = compare_solvers(a, b)
        assert abs(report.crossing_a - 1.5) < 1e-12
        assert abs(report.crossing_b - 1.5) < 1e-12
        assert report.crossing_difference == pytest.approx(0.0)


class TestWaldFloor:
    def test_single_trial_stderr(self):
        cfg = tiny_config(trials=1, beta_grid=(0.5,))
        result = run_sweep(cfg)
        pt = result.curves[("lasso", 8)][0]
        assert pt.stderr == 0.5  # Wald with 0.5/trials floor
