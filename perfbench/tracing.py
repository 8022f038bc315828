"""Spans and counters for the traced benchmark run, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, op id). Its name is "<layer>.<what>",
where the layer is one of the package's modules. Spans are recorded
around calls into the library, from the benchmark's own files only: the
calls an op makes itself (through `make_api`), and the places where library
code looks up another public function (`INTERNAL_LOOKUPS`).
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

from isinglasso import bethe, experiment, graphs, sampler, solvers, witness
from isinglasso.sampler import ExactMoments

LAYERS = ("graphs", "sampler", "solvers", "bethe", "witness", "experiment")


class Tracer:
    """Keeps spans and per-op counters in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, key: str, value: float) -> None:
        self.counts[self.op][key] += value

    def peak(self, key: str, value: float) -> None:
        bucket = self.counts[self.op]
        bucket[key] = max(bucket[key], value)

    def wrap(self, fn, name, count=None):
        """`fn` inside a span; `name` is a string or a function of the call
        arguments, `count(tracer, result, args, kwargs)` updates counters."""

        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(args, kwargs)):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self, out, args, kwargs)
            return out

        return traced


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_gibbs(tr, out, args, kwargs):
    cfg = _arg(args, kwargs, 2, "config")
    sweeps = cfg.burn_in_sweeps + out.n * cfg.thinning_sweeps
    tr.add("sampler.sweeps", sweeps)
    tr.add("sampler.site_updates", sweeps * out.p)


def _count_recovery(tr, out, args, kwargs):
    p = _arg(args, kwargs, 0, "samples").p
    tr.add("solvers.nodes", p)
    tr.add("solvers.node_errors", len(out.node_errors))


def _count_lasso_cd(tr, out, args, kwargs):
    coef = out.coefficients
    tr.add("solvers.lasso_cd_calls", 1)
    tr.add("solvers.lasso_cd_cycles", out.iterations)
    tr.add("solvers.lasso_active_sum", float((coef != 0.0).sum()) / max(coef.size, 1))
    tr.peak("solvers.lasso_kkt_max", out.kkt_residual)


def _count_logistic(tr, out, args, kwargs):
    tr.add("solvers.logistic_iters", out.iterations)
    tr.peak("solvers.logistic_kkt_max", out.kkt_residual)


def _count_restricted_cd(tr, out, args, kwargs):
    tr.add("witness.restricted_cd_cycles", out.iterations)


def _count_witness(tr, out, args, kwargs):
    if not isinstance(_arg(args, kwargs, 0, "data"), ExactMoments):
        tr.add("witness.sample_witnesses", 1)
        tr.add("witness.certified", out.passes_all())


def _count_enumeration(tr, out, args, kwargs):
    tr.add("sampler.enum_states", 1 << _arg(args, kwargs, 0, "graph").p)


def _recover_span(args, kwargs):
    return f"solvers.{kwargs.get('solver', 'lasso')}"


def _witness_span(args, kwargs):
    data = _arg(args, kwargs, 0, "data")
    return "witness.population" if isinstance(data, ExactMoments) else "witness.sample"


# Public functions an op calls itself: (module, name, span, counter).
DIRECT_CALLS = (
    (experiment, "run_trial", "experiment.trial", None),
    (graphs, "generate_bethe_tree", "graphs.build", None),
    (graphs, "assign_couplings", "graphs.build", None),
    (sampler, "load_samples_binary", "sampler.load", None),
    (sampler, "exact_enumerate", "sampler.enumerate", _count_enumeration),
    (solvers, "recover_graph", _recover_span, _count_recovery),
    (bethe, "tree_moments", "bethe.closed_forms", None),
    (bethe, "rescaled_theta", "bethe.closed_forms", None),
    (bethe, "theorem_thresholds", "bethe.thresholds", None),
    (witness, "construct_witness", _witness_span, _count_witness),
    (witness, "compute_noise_vector", "witness.noise", None),
    (witness, "sample_covariance", "witness.conditions", None),
    (witness, "check_conditions", "witness.conditions", None),
    (witness, "enumerate_z_statistics", "witness.zstats", None),
)

# Where library code looks up another public function at call time.
INTERNAL_LOOKUPS = (
    (experiment, "build_graph", "graphs.build", None),
    (experiment, "gibbs_sample", "sampler.gibbs", _count_gibbs),
    (experiment, "recover_graph", _recover_span, _count_recovery),
    (solvers, "lasso_cd_gram", "solvers.lasso_cd", _count_lasso_cd),
    (solvers, "solve_logistic_l1", "solvers.logistic_node", _count_logistic),
    (witness, "lasso_cd_gram", "solvers.restricted_cd", _count_restricted_cd),
)


def make_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The library functions an op calls, wrapped in spans when traced."""
    api = {}
    for module, attr, name, count in DIRECT_CALLS:
        fn = getattr(module, attr)
        api[attr] = fn if tracer is None else tracer.wrap(fn, name, count)
    return SimpleNamespace(**api)


@contextmanager
def traced_lookups(tracer: Tracer):
    """Wrap the library-internal lookups for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in INTERNAL_LOOKUPS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, count))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Inclusive span time per op, reported under each metric name.
_SPAN_METRICS = {
    "graphs.build_ms": "graphs.build",
    "sampler.gibbs_ms": "sampler.gibbs",
    "sampler.load_ms": "sampler.load",
    "sampler.enumerate_ms": "sampler.enumerate",
    "solvers.lasso_ms": "solvers.lasso",
    "solvers.logistic_ms": "solvers.logistic",
    "bethe.closed_forms_ms": "bethe.closed_forms",
    "bethe.thresholds_ms": "bethe.thresholds",
    "witness.population_ms": "witness.population",
    "witness.sample_ms": "witness.sample",
    "witness.noise_ms": "witness.noise",
    "witness.conditions_ms": "witness.conditions",
    "witness.zstats_ms": "witness.zstats",
    "experiment.trial_ms": "experiment.trial",
}

# Counters reported as per-op means.
_COUNT_METRICS = (
    "sampler.site_updates",
    "sampler.enum_states",
    "solvers.lasso_cd_calls",
    "solvers.lasso_cd_cycles",
    "solvers.logistic_iters",
    "witness.restricted_cd_cycles",
)

PER_LAYER_UNITS = {
    **{name: "ms" for name in _SPAN_METRICS},
    **{name: "count" for name in _COUNT_METRICS},
    "sampler.gibbs_us_per_sweep": "us",
    "sampler.enum_mstates_per_s": "Mstates/s",
    "solvers.lasso_active_share": "ratio",
    "solvers.lasso_kkt_max": "residual",
    "solvers.logistic_kkt_max": "residual",
    "solvers.node_errors": "ratio",
    "witness.certified_share": "ratio",
    "experiment.self_ms": "ms",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace_overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, speeds: dict[int, float], op_ms: list[float], plain_ms: list[float]
) -> dict:
    """Per-op layer figures over the traced ops. `speeds` scales each op's
    span times to reference speed; `op_ms` are the traced op times and
    `plain_ms` the untraced times of the same ops, both at reference speed."""
    ops = len(op_ms)
    spans = [s for s in tracer.spans if s[4] is not None]
    total = defaultdict(float)
    layer_self = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        speed = speeds[span[4]]
        total[span[0]] += (span[2] - span[1]) * speed
        layer_self[span[0].split(".", 1)[0]] += own * speed
    counts = defaultdict(float)
    for op_counts in tracer.counts.values():
        for key, value in op_counts.items():
            if key.endswith("_max"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value

    out = {}
    for metric, span in _SPAN_METRICS.items():
        out[metric] = total[span] * 1e3 / ops
    for metric in _COUNT_METRICS:
        out[metric] = counts[metric] / ops
    out["sampler.gibbs_us_per_sweep"] = _ratio(total["sampler.gibbs"] * 1e6, counts["sampler.sweeps"])
    out["sampler.enum_mstates_per_s"] = _ratio(
        counts["sampler.enum_states"] / 1e6, total["sampler.enumerate"]
    )
    out["solvers.lasso_active_share"] = _ratio(
        counts["solvers.lasso_active_sum"], counts["solvers.lasso_cd_calls"]
    )
    out["solvers.lasso_kkt_max"] = counts["solvers.lasso_kkt_max"]
    out["solvers.logistic_kkt_max"] = counts["solvers.logistic_kkt_max"]
    out["solvers.node_errors"] = _ratio(counts["solvers.node_errors"], counts["solvers.nodes"])
    out["witness.certified_share"] = _ratio(
        counts["witness.certified"], counts["witness.sample_witnesses"]
    )
    out["experiment.self_ms"] = layer_self["experiment"] * 1e3 / ops
    traced_total = sum(op_ms)
    for layer in LAYERS:
        out[f"share.{layer}"] = layer_self[layer] * 1e3 / traced_total
    out["trace_overhead"] = statistics.fmean(op_ms) / statistics.fmean(plain_ms) - 1.0
    return {name: {"value": out[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS}
