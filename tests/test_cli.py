import json
import math

import pytest

from isinglasso.bethe import rr_constants
from isinglasso.cli import main
from isinglasso.graphs import SignedGraph
from isinglasso.sampler import load_samples_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphCommand:
    def test_generate_and_reload(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "graph", "--family", "rr", "-p", "12", "-d", "3",
            "--seed", "4", "--coupling", "mixed", "--coupling-value", "0.4",
            "-o", str(out),
        )
        assert code == 0
        g = SignedGraph.from_json(out.read_text())
        assert g.p == 12 and g.max_degree == 3
        assert all(abs(abs(j) - 0.4) < 1e-12 for j in g.couplings.values())

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["graph", "--family", "tree", "-p", "9", "-d", "3", "--seed", "2",
                "--coupling", "uniform", "--coupling-value", "0.3"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_domain_error_json(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "graph", "--family", "rr", "-p", "5", "-d", "3")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "even" in payload["message"]

    def test_complete_graph_k8(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--family", "rr", "-p", "8", "-d", "7")
        assert code == 0 and len(json.loads(out)["edges"]) == 28

    def test_unreachable_degree_fails_fast(self, capsys):
        code, _, err = run_cli(capsys, "graph", "--family", "rr", "-p", "30", "-d", "20")
        assert code == 1
        assert "pairing model's reach" in json.loads(err)["message"]

    def test_grid_needs_square_p(self, capsys):
        code, out, err = run_cli(capsys, "graph", "--family", "grid", "-p", "10")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": "grid family needs a square p, got 10",
        }

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["graph"])  # missing required --family
        assert exc.value.code == 2

    def test_missing_p_is_a_usage_error(self, capsys):
        """No family is drawn at a default p: argparse names -p and exits 2."""
        for family in ("rr", "grid", "star", "tree", "bethe_tree"):
            with pytest.raises(SystemExit) as exc:
                main(["graph", "--family", family, "-d", "3"])
            assert exc.value.code == 2
            assert "required: -p" in capsys.readouterr().err


class TestSampleAndSolve:
    @pytest.fixture
    def graph_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli(
            capsys, "graph", "--family", "bethe_tree", "-p", "8", "-d", "3",
            "--coupling", "mixed", "--coupling-value", "0.4", "--coupling-seed", "1",
            "-o", str(out),
        )
        return out

    def test_sample_then_solve(self, tmp_path, capsys, graph_file):
        samples = tmp_path / "s.txt"
        code, _, _ = run_cli(
            capsys, "sample", "--graph", str(graph_file), "-n", "400",
            "--burn-in", "100", "--thinning", "1", "--seed", "3",
            "-o", str(samples),
        )
        assert code == 0
        loaded = load_samples_text(str(samples))
        assert loaded.n == 400 and loaded.p == 8

        code, out, _ = run_cli(
            capsys, "solve", "--samples", str(samples), "--node", "0",
            "--lambda", "0.1",
        )
        assert code == 0
        sol = json.loads(out)
        assert sol["r"] == 0 and len(sol["coefficients"]) == 7

    def test_logistic_zeros_print_unsigned(self, tmp_path, capsys):
        """The README walk-through's logistic solve prints its inactive
        coefficients as 0.0, as the Lasso does, never as -0.0."""
        graph, samples = tmp_path / "graph.json", tmp_path / "samples.txt"
        run_cli(capsys, "graph", "--family", "rr", "-p", "32", "-d", "3", "--seed", "1",
                "--coupling", "mixed", "--coupling-value", "0.4", "-o", str(graph))
        run_cli(capsys, "sample", "--graph", str(graph), "-n", "5000", "--seed", "2",
                "-o", str(samples))
        code, out, _ = run_cli(capsys, "solve", "--samples", str(samples), "--node", "0",
                               "--lambda", "0.05", "--solver", "logistic")
        assert code == 0
        zeros = [c for c in json.loads(out)["coefficients"] if c == 0.0]
        assert zeros and all(math.copysign(1.0, c) > 0 for c in zeros)

    def test_huge_lambda_empty_neighborhood(self, tmp_path, capsys, graph_file):
        samples = tmp_path / "s.txt"
        run_cli(capsys, "sample", "--graph", str(graph_file), "-n", "100",
                "--burn-in", "50", "--thinning", "1", "--seed", "3", "-o", str(samples))
        code, out, _ = run_cli(
            capsys, "solve", "--samples", str(samples), "--node", "0", "--lambda", "5.0"
        )
        assert code == 0
        sol = json.loads(out)
        assert all(c == 0.0 for c in sol["coefficients"])

    @pytest.mark.parametrize("solver", ["lasso", "logistic"])
    @pytest.mark.parametrize("node", ["-1", "8"])
    def test_node_out_of_range_json_error(self, tmp_path, capsys, graph_file, solver, node):
        samples = tmp_path / "s.txt"
        run_cli(capsys, "sample", "--graph", str(graph_file), "-n", "50",
                "--burn-in", "10", "--thinning", "1", "--seed", "3", "-o", str(samples))
        code, out, err = run_cli(capsys, "solve", "--samples", str(samples), "--node", node,
                                 "--lambda", "0.1", "--solver", solver)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "out of range" in payload["message"]

    def test_binary_format(self, tmp_path, capsys, graph_file):
        samples = tmp_path / "s.isng"
        run_cli(capsys, "sample", "--graph", str(graph_file), "-n", "50",
                "--burn-in", "20", "--thinning", "1", "--seed", "3",
                "--format", "binary", "-o", str(samples))
        code, out, _ = run_cli(
            capsys, "solve", "--samples", str(samples), "--node", "1", "--lambda", "0.2"
        )
        assert code == 0
        assert json.loads(out)["r"] == 1

    def test_lambda_kappa_exclusive(self, tmp_path, capsys, graph_file):
        samples = tmp_path / "s.txt"
        run_cli(capsys, "sample", "--graph", str(graph_file), "-n", "50",
                "--burn-in", "20", "--thinning", "1", "--seed", "3", "-o", str(samples))
        code, _, err = run_cli(capsys, "solve", "--samples", str(samples), "--node", "0")
        assert code == 1
        assert "exactly one" in json.loads(err)["message"]

    def test_bad_tol_json_error(self, tmp_path, capsys, graph_file):
        samples = tmp_path / "s.txt"
        run_cli(capsys, "sample", "--graph", str(graph_file), "-n", "50",
                "--burn-in", "20", "--thinning", "1", "--seed", "3", "-o", str(samples))
        code, out, err = run_cli(
            capsys, "solve", "--samples", str(samples), "--node", "0",
            "--lambda", "0.1", "--tol", "-1",
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "tol" in payload["message"]

    @pytest.mark.parametrize("penalty", ["lambda", "kappa"])
    @pytest.mark.parametrize("solver", ["lasso", "logistic"])
    def test_nan_penalty_json_error(self, tmp_path, capsys, graph_file, solver, penalty):
        """argparse reads "nan" as a float; the penalty rule refuses it by
        the name of the flag with exit 1 and one JSON error, where it used
        to print a NaN residual or an empty neighbourhood."""
        samples = tmp_path / "s.txt"
        run_cli(capsys, "sample", "--graph", str(graph_file), "-n", "50",
                "--burn-in", "20", "--thinning", "1", "--seed", "3", "-o", str(samples))
        code, out, err = run_cli(capsys, "solve", "--samples", str(samples), "--node", "0",
                                 f"--{penalty}", "nan", "--solver", solver)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": f"{penalty} must be a finite number, got nan",
        }

    def test_one_spin_json_error(self, tmp_path, capsys):
        samples = tmp_path / "s.txt"
        samples.write_text("p=1 n=3\n1\n-1\n1\n")
        code, out, err = run_cli(
            capsys, "solve", "--samples", str(samples), "--node", "0", "--kappa", "2"
        )
        assert code == 1 and out == ""
        assert "at least two spins" in json.loads(err)["message"]

    def test_header_without_sizes_json_error(self, tmp_path, capsys):
        samples = tmp_path / "s.txt"
        samples.write_text("p=3\n1 -1 1\n-1 1 1\n")
        code, _, err = run_cli(
            capsys, "solve", "--samples", str(samples), "--node", "0", "--lambda", "0.1"
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "p=<p> n=<n>" in payload["message"]


class TestTheoryCommand:
    def test_rr_constants(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--rr-constants", "d=3", "theta0=0.4")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["c_min"] - 0.855639) < 1e-6
        assert abs(obj["alpha"] - 0.620051) < 1e-6
        assert obj["kappa_floor"] == rr_constants(3, 0.4).kappa_floor

    def test_rr_constants_non_integer_degree(self, capsys):
        code, out, err = run_cli(capsys, "theory", "--rr-constants", "d=3.7", "theta0=0.4")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": "d must be an integer >= 3, got 3.7",
        }

    def test_rr_constants_degree_is_an_integer_literal(self, capsys):
        code, out, err = run_cli(capsys, "theory", "--rr-constants", "d=3.0", "theta0=0.4")
        assert code == 1 and out == ""
        assert json.loads(err)["message"] == "d must be an integer >= 3, got 3.0"

    def test_rr_constants_missing_param(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--rr-constants", "d=3")
        assert code == 1
        assert "theta0" in json.loads(err)["message"]

    def test_rr_constants_saturated_theta0(self, capsys):
        """tanh 20 is 1 in float64: the error names theta0, not the
        derived alpha."""
        code, out, err = run_cli(capsys, "theory", "--rr-constants", "d=3", "theta0=20")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "theta0" in payload["message"] and "saturates" in payload["message"]

    def test_graph_report(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli(capsys, "graph", "--family", "bethe_tree", "-p", "10", "-d", "3",
                "--coupling", "uniform", "--coupling-value", "0.4", "-o", str(out))
        code, text, _ = run_cli(capsys, "theory", "--graph", str(out), "--lambda", "0.02")
        assert code == 0
        obj = json.loads(text)
        assert abs(obj["c_min"] - 0.855639) < 1e-6
        assert obj["alpha"] == 0.6200510377447751  # 1 - tanh(0.4)
        assert obj["thresholds"]["pass"] is True
        assert abs(obj["theta_tilde"]["min_magnitude"] - 0.294826) < 1e-6

    def test_malformed_graph_json_error(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"p": 3}))
        code, out, err = run_cli(capsys, "theory", "--graph", str(graph))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert '"edges"' in payload["message"]

    def test_cyclic_graph_rejected(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        run_cli(capsys, "graph", "--family", "grid", "-p", "9",
                "--coupling", "uniform", "--coupling-value", "0.2", "-o", str(out))
        code, _, err = run_cli(capsys, "theory", "--graph", str(out))
        assert code == 1
        assert "acyclic" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", [
        ("theory", "--lambda", "0.02"),
        ("witness", "--population", "--node", "2", "--lambda", "0.02"),
    ], ids=["theory", "witness"])
    def test_saturated_coupling_json_error(self, tmp_path, capsys, command):
        """tanh 20 is 1 in float64: both commands used to print NaN
        fields and exit 0."""
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"p": 4, "edges": [[0, 1, 20.0], [1, 2, 0.4], [1, 3, -0.4]]}))
        code, out, err = run_cli(capsys, command[0], "--graph", str(graph), *command[1:])
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "edge (0,1) saturates" in payload["message"]


class TestWitnessCommand:
    def test_population_certificate(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        run_cli(capsys, "graph", "--family", "bethe_tree", "-p", "10", "-d", "3",
                "--coupling", "mixed", "--coupling-value", "0.4", "--coupling-seed", "2",
                "-o", str(graph))
        code, out, _ = run_cli(
            capsys, "witness", "--graph", str(graph), "--population",
            "--node", "0", "--lambda", "0.02",
        )
        assert code == 0
        cert = json.loads(out)
        assert all(cert["checks"].values())
        assert cert["strict_feasibility_margin"] > 0.5

    def test_lambda_kappa_exclusive(self, tmp_path, capsys):
        graph, samples = tmp_path / "g.json", tmp_path / "s.txt"
        run_cli(capsys, "graph", "--family", "bethe_tree", "-p", "10", "-d", "3",
                "--coupling", "mixed", "--coupling-value", "0.4", "--coupling-seed", "2",
                "-o", str(graph))
        run_cli(capsys, "sample", "--graph", str(graph), "-n", "200",
                "--burn-in", "50", "--thinning", "1", "--seed", "3", "-o", str(samples))
        base = ("witness", "--graph", str(graph), "--node", "0")
        code, _, err = run_cli(capsys, *base, "--samples", str(samples),
                               "--lambda", "0.1", "--kappa", "2")
        assert code == 1
        assert "exactly one" in json.loads(err)["message"]
        code, out, _ = run_cli(capsys, *base, "--samples", str(samples), "--kappa", "2")
        assert code == 0
        assert abs(json.loads(out)["lambda"] - 2 * math.sqrt(math.log(10) / 200)) < 1e-15
        code, _, err = run_cli(capsys, *base, "--population",
                               "--lambda", "0.1", "--kappa", "2")
        assert code == 1
        assert "--kappa" in json.loads(err)["message"]

    @pytest.mark.parametrize("node", ["-1", "10"])
    def test_node_out_of_range_json_error(self, tmp_path, capsys, node):
        graph = tmp_path / "g.json"
        run_cli(capsys, "graph", "--family", "bethe_tree", "-p", "10", "-d", "3",
                "--coupling", "mixed", "--coupling-value", "0.4", "--coupling-seed", "2",
                "-o", str(graph))
        code, out, err = run_cli(capsys, "witness", "--graph", str(graph), "--population",
                                 "--node", node, "--lambda", "0.05")
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "out of range" in payload["message"]


_SWEEP_CONFIG = {
    "family": "rr", "p_list": [8], "beta_grid": [0.5, 1.0], "trials": 2,
    "solver": "lasso", "kappa": 2.0, "master_seed": 5,
    "burn_in_sweeps": 50, "thinning_sweeps": 1, "solver_tol": 1e-6,
}


class TestExperimentCommand:
    @pytest.fixture
    def cfg_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_SWEEP_CONFIG))
        return path

    def test_sweep_outputs(self, tmp_path, capsys, cfg_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--output-dir", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "curves.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["family"] == "rr"
        assert str(out_dir / "curves.csv") in out

    def test_flags_override_config(self, tmp_path, capsys, cfg_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                             "--output-dir", str(out_dir), "--seed", "9", "--trials", "1")
        assert code == 0
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert (config["master_seed"], config["trials"]) == (9, 1)
        assert "workers" not in config  # a scheduling setting, not part of the experiment

    def test_bad_override_json_error(self, tmp_path, capsys, cfg_path):
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                               "--output-dir", str(tmp_path / "out"), "--trials", "0")
        assert code == 1
        assert "trials" in json.loads(err)["message"]

    def test_bad_workers_json_error(self, tmp_path, capsys, cfg_path):
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                               "--output-dir", str(tmp_path / "out"), "--workers", "0")
        assert code == 1
        assert json.loads(err)["message"] == "workers must be an integer >= 1, got 0"
        assert not (tmp_path / "out").exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "rr", "p_list": [8],
                                        "beta_grid": [1.0, 0.5], "trials": 2}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 1
        assert "increasing" in json.loads(err)["message"]

    # Explicit ids keep a case's name when only its expected message changed.
    @pytest.mark.parametrize("cfg, message", [
        ({**_SWEEP_CONFIG, "beta_factor": 10}, "unknown keys ['beta_factor']"),
        ({**_SWEEP_CONFIG, "coupling": "uniform"}, "unknown keys ['coupling']"),
        ({k: v for k, v in _SWEEP_CONFIG.items() if k != "trials"}, "missing keys ['trials']"),
        pytest.param({**_SWEEP_CONFIG, "p_list": "32"}, "p_list must be a nonempty array",
                     id="cfg3-p_list must be a JSON array"),
        pytest.param({**_SWEEP_CONFIG, "beta_grid": 1.0}, "beta_grid must be a nonempty array",
                     id="cfg4-beta_grid must be a JSON array"),
        ([_SWEEP_CONFIG], "must be a JSON object"),
        pytest.param({**_SWEEP_CONFIG, "trials": "2"}, "trials must be an integer >= 1, got '2'",
                     id="cfg6-trials: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "trials": True}, "trials must be an integer >= 1, got True",
                     id="cfg7-trials: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "workers": 2}, "unknown keys ['workers']",
                     id="cfg8-workers: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "d": 3.0}, "d must be an integer >= 1, got 3.0",
                     id="cfg9-d: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "master_seed": None},
                     "master_seed must be an integer >= 0, got None",
                     id="cfg10-master_seed: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "burn_in_sweeps": "50"},
                     "burn_in_sweeps must be an integer >= 0, got '50'",
                     id="cfg11-burn_in_sweeps: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "thinning_sweeps": 1.5},
                     "thinning_sweeps must be an integer >= 1, got 1.5",
                     id="cfg12-thinning_sweeps: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "p_list": [8.7]},
                     "p_list entry must be an integer >= 1, got 8.7",
                     id="cfg13-p_list: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "p_list": [8, True]},
                     "p_list entry must be an integer >= 1, got True",
                     id="cfg14-p_list: expected a JSON integer"),
        pytest.param({**_SWEEP_CONFIG, "kappa": "2"}, "kappa must be a finite number, got '2'",
                     id="cfg15-kappa: expected a JSON number"),
        pytest.param({**_SWEEP_CONFIG, "kappa": False}, "kappa must be a finite number, got False",
                     id="cfg16-kappa: expected a JSON number"),
        pytest.param({**_SWEEP_CONFIG, "solver_tol": "1e-6"},
                     "tol must be a finite number, got '1e-6'",
                     id="cfg17-solver_tol: expected a JSON number"),
        pytest.param({**_SWEEP_CONFIG, "coupling_value": "0.4"},
                     "coupling value must be a finite number, got '0.4'",
                     id="cfg18-coupling_value: expected a JSON number"),
        pytest.param({**_SWEEP_CONFIG, "beta_grid": ["1"]},
                     "beta_grid entry must be a finite number, got '1'",
                     id="cfg19-beta_grid: expected a JSON number"),
        pytest.param({**_SWEEP_CONFIG, "family": ["rr"]}, "unknown family ['rr']",
                     id="cfg20-family: expected a JSON string"),
        pytest.param({**_SWEEP_CONFIG, "solver": 1}, "unknown solver 1",
                     id="cfg21-solver: expected a JSON string"),
        ({**_SWEEP_CONFIG, "coupling_value": -0.4}, "coupling magnitude must be positive"),
    ])
    def test_bad_config_json_error(self, tmp_path, capsys, cfg, message):
        """A config the sweep cannot run is one JSON ValueError, not a
        traceback or a quietly different sweep."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                                 "--output-dir", str(tmp_path / "out"))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert message in payload["message"]
        assert not (tmp_path / "out").exists()
