"""The four benchmark workloads.

Each workload turns the run seed into its inputs in `setup`, does one unit
of user work in `op`, checks that op's outputs in `check`, and scores the
scientific outcome per node in `outcome`. Ops call the library through
`api` (see tracing.make_api), so the traced run can time them; `check`
calls it directly, so checking stays outside every span.
"""
from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np

from isinglasso import experiment
from isinglasso.bethe import (
    bethe_inverse_covariance,
    rr_constants,
    tree_covariance,
    tree_moments,
)
from isinglasso.experiment import KAPPA_DEFAULT, ExperimentConfig, trial_seed_for
from isinglasso.graphs import (
    CouplingScheme,
    assign_couplings,
    generate_bethe_tree,
    signed_neighborhood_sets,
)
from isinglasso.sampler import SamplerConfig, gibbs_sample, save_samples_binary
from isinglasso.solvers import SolverConfig, lambda_from_kappa

MIXED = CouplingScheme.mixed(0.4)


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    """`count` independent integer seeds drawn from (run seed, stream)."""
    return [int(s) for s in np.random.SeedSequence((seed, stream)).generate_state(count)]


def _node_hits(estimate, truth) -> list[bool]:
    return [
        r in estimate.neighborhoods and estimate.neighborhoods[r].signs == truth[r]
        for r in range(len(truth))
    ]


def _hoods(estimate) -> list:
    return sorted((r, sorted(h.signs.items())) for r, h in estimate.neighborhoods.items())


def _capture_trial_outputs(api_run_trial):
    """run_trial returns only success flags, but its checks need the graph
    and the estimates it built: record them where run_trial looks them up."""

    def run(config, p, beta, seed):
        got = SimpleNamespace(graphs=[], estimates=[])
        build, recover = experiment.build_graph, experiment.recover_graph

        def build_graph(*a, **k):
            got.graphs.append(build(*a, **k))
            return got.graphs[-1]

        def recover_graph(*a, **k):
            got.estimates.append(recover(*a, **k))
            return got.estimates[-1]

        experiment.build_graph, experiment.recover_graph = build_graph, recover_graph
        try:
            return api_run_trial(config, p, beta, seed), got
        finally:
            experiment.build_graph, experiment.recover_graph = build, recover

    return run


class SweepRR32:
    """One sweep-cell trial: graph, Gibbs chain, both solvers, scoring."""

    name = "sweep_rr32"
    why = "the calibrate_kappa / criterion 7 cell (rr d=3, p=32, beta=5): Gibbs-bound, small-p solvers"
    p, beta = 32, 5.0
    success_ops = 24

    def setup(self, seed: int, workdir: str):
        config = ExperimentConfig(
            family="rr", p_list=(self.p,), beta_grid=(self.beta,), trials=1,
            solver="both", kappa=KAPPA_DEFAULT, master_seed=seed,
        )
        return SimpleNamespace(config=config, seed=seed)

    def op(self, st, i: int, api):
        seed = trial_seed_for(st.seed, 0, 0, i)
        result, got = _capture_trial_outputs(api.run_trial)(st.config, self.p, self.beta, seed)
        return SimpleNamespace(result=result, graph=got.graphs[0], estimates=got.estimates)

    def check(self, st, out) -> list[str]:
        res, cfg = out.result, st.config
        problems = []
        if res.failure_cause:
            problems.append(f"failure_cause {res.failure_cause}")
        n = cfg.sample_size(self.p, self.beta)
        if res.n != n:
            problems.append(f"n {res.n} != {n}")
        if res.lam != lambda_from_kappa(cfg.kappa, n, self.p):
            problems.append(f"lam {res.lam} does not follow the kappa rule")
        if [e.solver for e in out.estimates] != list(cfg.solvers):
            problems.append("not one estimate per solver")
        for est in out.estimates:
            if res.success.get(est.solver) != est.matches_graph(out.graph):
                problems.append(f"{est.solver} success flag disagrees with its estimate")
        return problems

    def outcome(self, st, out) -> list[bool]:
        truth = signed_neighborhood_sets(out.graph)
        return [hit for est in out.estimates for hit in _node_hits(est, truth)]

    def facts(self, out):
        res = out.result
        return (sorted(res.success.items()), res.n, res.lam, [_hoods(e) for e in out.estimates])


class RecoverRR128:
    """Load a stored sample set and recover the whole graph with both solvers."""

    name = "recover_rr128"
    why = "all-node lasso and logistic at p=128 (n=1164) from stored samples: solver-bound, no Gibbs"
    p, beta, sets = 128, 8.0, 3
    solver_config = SolverConfig(tol=1e-7)
    success_ops = 6

    def setup(self, seed: int, workdir: str):
        config = ExperimentConfig(
            family="rr", p_list=(self.p,), beta_grid=(self.beta,), trials=1, master_seed=seed
        )
        n = config.sample_size(self.p, self.beta)
        seeds = _seeds(seed, 2, 3 * self.sets)
        st = SimpleNamespace(graphs=[], samples=[], paths=[], truth=[])
        for k in range(self.sets):
            graph_seed, coupling_seed, chain_seed = seeds[3 * k: 3 * k + 3]
            graph = experiment.build_graph(config, self.p, graph_seed, coupling_seed)
            samples = gibbs_sample(graph, n, SamplerConfig(seed=chain_seed))
            path = os.path.join(workdir, f"rr128_{k}.isng")
            save_samples_binary(samples, path)
            st.graphs.append(graph)
            st.samples.append(samples)
            st.paths.append(path)
            st.truth.append(signed_neighborhood_sets(graph))
        return st

    def op(self, st, i: int, api):
        k = i % self.sets
        loaded = api.load_samples_binary(st.paths[k])
        estimates = [
            api.recover_graph(loaded, kappa=KAPPA_DEFAULT, solver=s, config=self.solver_config)
            for s in ("lasso", "logistic")
        ]
        matches = [e.matches_graph(st.graphs[k]) for e in estimates]
        return SimpleNamespace(k=k, loaded=loaded, estimates=estimates, matches=matches)

    def check(self, st, out) -> list[str]:
        problems = []
        if not np.array_equal(out.loaded.data, st.samples[out.k].data):
            problems.append(f"loaded samples differ from sample set {out.k} as written")
        for est in out.estimates:
            if est.node_errors:
                problems.append(f"{est.solver} node_errors {sorted(est.node_errors)}")
        return problems

    def outcome(self, st, out) -> list[bool]:
        return [hit for est in out.estimates for hit in _node_hits(est, st.truth[out.k])]

    def facts(self, out):
        return (out.k, out.matches, [_hoods(e) for e in out.estimates])


class CertifyTree128:
    """Closed forms, thresholds and per-node witnesses on a Bethe tree."""

    name = "certify_tree128"
    why = "closed forms plus population and sample witnesses on every node of p=128 Bethe trees: bethe/witness-bound"
    p, n, trees = 128, 1164, 3
    success_ops = 6

    def setup(self, seed: int, workdir: str):
        seeds = _seeds(seed, 3, 2 * self.trees)
        st = SimpleNamespace(
            trees=[],
            lam=lambda_from_kappa(KAPPA_DEFAULT, self.n, self.p),
            rr=rr_constants(3, 0.4),
        )
        for k in range(self.trees):
            graph = assign_couplings(generate_bethe_tree(self.p, 3), MIXED, seeds[2 * k])
            samples = gibbs_sample(graph, self.n, SamplerConfig(seed=seeds[2 * k + 1]))
            st.trees.append((graph, samples))
        return st

    def op(self, st, i: int, api):
        k = i % self.trees
        graph, samples = st.trees[k]
        moments = api.tree_moments(graph)
        params = api.rescaled_theta(graph)
        thresholds = api.theorem_thresholds(graph, st.lam)
        population, sample, noise, conditions = [], [], [], []
        for r in range(self.p):
            support = graph.neighbors[r]
            population.append(api.construct_witness(moments, r, support, params, st.lam))
            sample.append(api.construct_witness(samples, r, support, params, st.lam))
            noise.append(api.compute_noise_vector(samples, r, params))
            report = api.sample_covariance(samples, r, support)
            conditions.append(api.check_conditions(report, st.rr.c_min, st.rr.alpha))
        return SimpleNamespace(
            k=k, moments=moments, thresholds=thresholds, population=population,
            sample=sample, noise=noise, conditions=conditions,
        )

    def check(self, st, out) -> list[str]:
        graph = st.trees[out.k][0]
        problems = [
            f"population witness fails at node {c.node}: {c.checks()}"
            for c in out.population if not c.passes_all()
        ]
        product = out.moments.covariance @ bethe_inverse_covariance(graph)
        err = float(np.abs(product - np.eye(self.p)).max())
        if err > 1e-9:
            problems.append(f"tree_covariance @ bethe_inverse_covariance is {err:.2e} from I")
        return problems

    def outcome(self, st, out) -> list[bool]:
        return [c.passes_all() for c in out.sample]

    def facts(self, out):
        return (
            out.k,
            out.thresholds.passes,
            [c.passes_all() for c in out.population],
            [(c.passes_all(), c.z_sc_inf) for c in out.sample],
            [v.inf_norm for v in out.noise],
            [(c.eig_pass, c.incoherence_pass) for c in out.conditions],
        )


class EnumerateTree20:
    """The exact 2^p oracle: moments and Z statistics on a p=20 Bethe tree."""

    name = "enumerate_tree20"
    why = "exact 2^20-state enumeration plus Z statistics on a p=20 Bethe tree: the only path to the oracle"
    p = 20
    success_ops = 10

    def setup(self, seed: int, workdir: str):
        return SimpleNamespace(seed=seed)

    def op(self, st, i: int, api):
        coupling_seed = trial_seed_for(st.seed, 0, 0, i)
        graph = api.assign_couplings(api.generate_bethe_tree(self.p, 3), MIXED, coupling_seed)
        moments = api.exact_enumerate(graph)
        params = api.rescaled_theta(graph)
        node = int(np.argmax(graph.degrees))
        zstats = api.enumerate_z_statistics(graph, node, params)
        return SimpleNamespace(graph=graph, moments=moments, zstats=zstats)

    def check(self, st, out) -> list[str]:
        problems = []
        cov_err = float(np.abs(out.moments.covariance - tree_covariance(out.graph)).max())
        if cov_err > 1e-12:
            problems.append(f"enumerated covariance is {cov_err:.2e} from tree_covariance")
        logz_err = abs(out.moments.log_partition - tree_moments(out.graph).log_partition)
        if logz_err > 1e-9:
            problems.append(f"enumerated log Z is {logz_err:.2e} from tree_moments")
        ez = float(np.abs(out.zstats.means).max())
        if ez > 1e-12:
            problems.append(f"max |E Z| = {ez:.2e} > 1e-12")
        return problems

    def outcome(self, st, out) -> list[bool]:
        # No recovery here: the outcome is the oracle agreeing with the
        # closed forms, which is what the checks test.
        return [not self.check(st, out)]

    def facts(self, out):
        z = out.zstats
        return (out.graph.to_json(), out.moments.log_partition, z.second_moment, z.max_abs)


WORKLOADS = {w.name: w for w in (SweepRR32(), RecoverRR128(), CertifyTree128(), EnumerateTree20())}
