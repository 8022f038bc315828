"""Command-line entry point.

Thin adapters only: every subcommand parses arguments, calls the owning
module, and writes that module's file format. Domain errors come back as
one JSON object on stderr with exit code 1; argparse usage errors exit 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bethe, experiment, graphs, sampler, solvers, witness

_EPILOG = """conventions:
  One coupling J per undirected edge; the joint law is
  exp(sum over edges J_rt x_r x_t)/Z, so an isolated edge has correlation
  E[x_r x_t] = tanh(J). All logarithms (sample-size rule, lambda rule,
  star-graph degree ceil(log p)) are natural logs.
"""


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _load_graph(path: str) -> graphs.SignedGraph:
    with open(path) as fh:
        return graphs.SignedGraph.from_json(fh.read())


def _load_samples(path: str) -> sampler.SampleMatrix:
    with open(path, "rb") as fh:
        if fh.read(4) == b"ISNG":
            return sampler.load_samples_binary(path)
    return sampler.load_samples_text(path)


def _scheme_from_args(args) -> graphs.CouplingScheme:
    return graphs.CouplingScheme(kind=args.coupling, value=args.coupling_value)


def _cmd_graph(args) -> int:
    g = graphs.generate_graph(args.family, args.p, args.d, args.seed)
    if args.coupling is not None:
        g = graphs.assign_couplings(g, _scheme_from_args(args), args.coupling_seed)
    _write(g.to_json(), args.output)
    return 0


def _cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    cfg = sampler.SamplerConfig(
        burn_in_sweeps=args.burn_in, thinning_sweeps=args.thinning, seed=args.seed
    )
    samples = sampler.gibbs_sample(g, args.n, cfg)
    if args.format == "binary":
        sampler.save_samples_binary(samples, args.output)
    else:
        sampler.save_samples_text(samples, args.output)
    return 0


def _cmd_solve(args) -> int:
    samples = _load_samples(args.samples)
    lam = solvers.resolve_penalty(args.lam, args.kappa, samples.n, samples.p)
    solve = solvers.solve_lasso if args.solver == "lasso" else solvers.solve_logistic_l1
    sol = solve(samples, args.node, lam, solvers.SolverConfig(tol=args.tol))
    _write(solvers.solution_to_json(sol, args.node), args.output)
    return 0


def _cmd_witness(args) -> int:
    g = _load_graph(args.graph)
    graphs.check_node(args.node, g.p)
    params = bethe.rescaled_theta(g)
    support = g.neighbors[args.node]
    if args.population:
        if args.lam is None or args.kappa is not None:
            raise ValueError("--population needs --lambda: --kappa scales with a sample size")
        data: sampler.SampleMatrix | sampler.ExactMoments = bethe.tree_moments(g)
        lam = args.lam
    else:
        if args.samples is None:
            raise ValueError("--samples is required unless --population is set")
        data = _load_samples(args.samples)
        lam = solvers.resolve_penalty(args.lam, args.kappa, data.n, data.p)
    cert = witness.construct_witness(data, args.node, support, params, lam)
    _write(cert.to_json(), args.output)
    return 0


def _parse_kv(pairs: list[str]) -> dict:
    """key=value pairs; an integer literal is read as an int and any other
    value as a float, so d=3 is the integer 3 and d=3.0 the number 3.0."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = int(value) if value.lstrip("+-").isdigit() else float(value)
    return out


def _cmd_theory(args) -> int:
    if args.rr_constants:
        kv = _parse_kv(args.params)
        unknown = set(kv) - {"d", "theta0"}
        if unknown:
            raise ValueError(f"unknown parameters: {sorted(unknown)}")
        if "d" not in kv or "theta0" not in kv:
            raise ValueError("--rr-constants needs d=<degree> theta0=<coupling>")
        consts = bethe.rr_constants(kv["d"], kv["theta0"])
        _write(
            json.dumps(
                {
                    "d": consts.d,
                    "theta0": consts.theta0,
                    "c_min": consts.c_min,
                    "alpha": consts.alpha,
                    "lambda_max_qss": consts.lambda_max_qss,
                    "kappa_floor": consts.kappa_floor,
                    "theta_tilde": consts.theta_tilde_rr,
                }
            ),
            args.output,
        )
        return 0
    if args.graph is None:
        raise ValueError("give --graph or --rr-constants")
    g = _load_graph(args.graph)
    params = bethe.rescaled_theta(g)
    cov = bethe.tree_covariance(g)
    report = bethe.theorem_thresholds(g, args.lam)
    _write(
        json.dumps(
            {
                "theta_tilde": {
                    "matrix": params.matrix.tolist(),
                    "min_magnitude": params.min_magnitude,
                },
                "c_min": report.c_min,
                "alpha": 1.0 - report.incoherence,
                "lambda_max": float(np.linalg.eigvalsh(cov).max()),
                "thresholds": {
                    "lambda": report.lam,
                    "threshold": report.threshold,
                    "theta_tilde_min": report.theta_tilde_min,
                    "pass": report.passes,
                },
            }
        ),
        args.output,
    )
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        config = experiment.ExperimentConfig.from_json(fh.read())
    overrides = {"master_seed": args.seed, "trials": args.trials}
    config = dataclasses.replace(
        config, **{key: value for key, value in overrides.items() if value is not None})
    result = experiment.run_sweep(config, args.workers)
    os.makedirs(args.output_dir, exist_ok=True)
    csv_path = os.path.join(args.output_dir, "curves.csv")
    manifest_path = os.path.join(args.output_dir, "manifest.json")
    experiment.sweep_to_csv(result, csv_path)
    experiment.save_manifest(result, manifest_path)
    for warning in result.monotonicity_warnings:
        print(f"warning: non-monotone curve: {warning}", file=sys.stderr)
    print(csv_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isinglasso",
        description="Signed structure recovery for pairwise spin models.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="generate a graph and write it as JSON")
    g.add_argument("--family", required=True,
                   choices=["rr", "grid", "star", "tree", "bethe_tree"])
    g.add_argument("-p", type=int, required=True, help="vertex count (a square for grid)")
    g.add_argument("-d", type=int, default=3, help="degree parameter")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--coupling", choices=["uniform", "mixed", "degree_scaled"],
                   help="assign couplings with this scheme")
    g.add_argument("--coupling-value", type=float, default=0.4)
    g.add_argument("--coupling-seed", type=int, default=0)
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_graph)

    s = sub.add_parser("sample", help="Gibbs-sample spin snapshots from a graph")
    s.add_argument("--graph", required=True)
    s.add_argument("-n", type=int, required=True)
    s.add_argument("--burn-in", type=int, default=sampler.SamplerConfig.burn_in_sweeps)
    s.add_argument("--thinning", type=int, default=sampler.SamplerConfig.thinning_sweeps)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--format", choices=["text", "binary"], default="text")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=_cmd_sample)

    so = sub.add_parser("solve", help="one-node penalized regression")
    so.add_argument("--samples", required=True)
    so.add_argument("--node", type=int, required=True)
    so.add_argument("--lambda", dest="lam", type=float)
    so.add_argument("--kappa", type=float)
    so.add_argument("--solver", choices=["lasso", "logistic"], default="lasso")
    so.add_argument("--tol", type=float, default=solvers.SolverConfig.tol)
    so.add_argument("-o", "--output")
    so.set_defaults(func=_cmd_solve)

    w = sub.add_parser("witness", help="primal-dual certificate for one node")
    w.add_argument("--graph", required=True, help="acyclic generating graph JSON")
    w.add_argument("--samples")
    w.add_argument("--population", action="store_true",
                   help="use exact tree moments instead of samples")
    w.add_argument("--node", type=int, required=True)
    w.add_argument("--lambda", dest="lam", type=float)
    w.add_argument("--kappa", type=float)
    w.add_argument("-o", "--output")
    w.set_defaults(func=_cmd_witness)

    t = sub.add_parser("theory", help="closed-form population reports")
    t.add_argument("--graph", help="acyclic graph JSON for a full report")
    t.add_argument("--rr-constants", action="store_true",
                   help="emit regular-graph constants; pass d=<int> theta0=<float>")
    t.add_argument("params", nargs="*", help="key=value parameters")
    t.add_argument("--lambda", dest="lam", type=float, default=0.0)
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_theory)

    e = sub.add_parser("experiment", help="run a success-probability sweep")
    e.add_argument("--config", required=True)
    e.add_argument("--output-dir", default=".")
    e.add_argument("--workers", type=int, default=1,
                   help="processes that run the trials; no outcome depends on it")
    e.add_argument("--seed", type=int, help="override master seed")
    e.add_argument("--trials", type=int, help="override trial count")
    e.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("kkt_residual", "min_eigenvalue"):
            if hasattr(exc, attr):
                payload[attr] = getattr(exc, attr)
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
