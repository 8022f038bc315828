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

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["graph"])  # missing required --family
        assert exc.value.code == 2


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

    def test_rr_constants_missing_param(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--rr-constants", "d=3")
        assert code == 1
        assert "theta0" in json.loads(err)["message"]

    def test_graph_report(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli(capsys, "graph", "--family", "bethe_tree", "-p", "10", "-d", "3",
                "--coupling", "uniform", "--coupling-value", "0.4", "-o", str(out))
        code, text, _ = run_cli(capsys, "theory", "--graph", str(out), "--lambda", "0.02")
        assert code == 0
        obj = json.loads(text)
        assert abs(obj["c_min"] - 0.855639) < 1e-6
        assert obj["thresholds"]["pass"] is True
        assert abs(obj["theta_tilde"]["min_magnitude"] - 0.294826) < 1e-6

    def test_cyclic_graph_rejected(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        run_cli(capsys, "graph", "--family", "grid", "--rows", "3", "--cols", "3",
                "--coupling", "uniform", "--coupling-value", "0.2", "-o", str(out))
        code, _, err = run_cli(capsys, "theory", "--graph", str(out))
        assert code == 1
        assert "acyclic" in json.loads(err)["message"]


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


class TestExperimentCommand:
    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = {
            "family": "rr", "p_list": [8], "beta_grid": [0.5, 1.0], "trials": 2,
            "solver": "lasso", "kappa": 2.0, "master_seed": 5,
            "burn_in_sweeps": 50, "thinning_sweeps": 1, "solver_tol": 1e-6,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--output-dir", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "curves.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["family"] == "rr"
        assert str(out_dir / "curves.csv") in out

    def test_malformed_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "rr", "p_list": [8],
                                        "beta_grid": [1.0, 0.5], "trials": 2}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 1
        assert "increasing" in json.loads(err)["message"]
