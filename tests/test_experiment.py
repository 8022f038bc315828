import csv
import json
import math

import pytest

from isinglasso.experiment import (
    CurvePoint,
    ExperimentConfig,
    build_graph,
    compare_solvers,
    crossing_half,
    monotonicity_warnings,
    run_sweep,
    run_trial,
    save_manifest,
    sweep_to_csv,
    trial_seed_for,
)


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

    def test_sample_size_rule(self):
        cfg = tiny_config()
        assert cfg.sample_size(32, 1.0) == round(10 * 3 * math.log(32))
        assert cfg.sample_size(32, 1e-9) == 2  # floor
        grid = tiny_config(family="grid", p_list=(16,))
        assert grid.factor == 15
        assert grid.sample_size(16, 1.0) == round(15 * 4 * math.log(16))

    def test_degree_rules(self):
        assert tiny_config(family="star_linear", p_list=(50,)).degree_for(50) == 5
        assert tiny_config(family="star_log", p_list=(16,)).degree_for(16) == 3
        assert tiny_config(family="grid", p_list=(16,)).degree_for(16) == 4

    def test_json_round_trip(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.digest() == cfg.digest()


class TestBuildGraph:
    def test_families(self):
        cfg = tiny_config()
        g = build_graph(cfg, 8, graph_seed=1, coupling_seed=2)
        assert g.max_degree == 3 and g.has_couplings
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

    def test_grid_requires_square(self):
        cfg = tiny_config(family="grid", p_list=(12,))
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
        assert result.manifest["config_hash"] == cfg.digest()
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

    def test_workers_match_serial_outcomes(self):
        cfg = tiny_config()
        serial = run_sweep(cfg)
        parallel = run_sweep(tiny_config(workers=2))
        for key in serial.curves:
            assert [pt.successes for pt in serial.curves[key]] == [
                pt.successes for pt in parallel.curves[key]
            ]

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
