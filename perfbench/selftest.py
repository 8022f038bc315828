"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every output check trips: each workload's first op is checked as
   produced (it must pass), then once per corruption of one checked
   output (each must fail).
2. Seed determinism: the first ops of every workload, traced, run twice
   on one seed must give identical per-op digests (outcome facts plus the
   solver iteration, CD cycle and site-update counts), and a second seed
   must run clean with different digests.

Exits non-zero if anything does not hold.
"""
from __future__ import annotations

import dataclasses
import sys
import tempfile

import run

SEED_A, SEED_B = 11, 12
DETERMINISM_OPS = {"sweep_rr32": 2, "recover_rr128": 2, "certify_tree128": 1, "enumerate_tree20": 2}


def _corruptions(name: str):
    """(label, function that corrupts one op output in place) per check."""
    import numpy as np

    from isinglasso.sampler import SampleMatrix

    def flip_spin(out):
        data = out.loaded.data.copy()
        data[0, 0] = -data[0, 0]
        out.loaded = SampleMatrix(data=data)

    def shift(obj, field, delta):
        return dataclasses.replace(obj, **{field: getattr(obj, field) + delta})

    def fail_population(out):
        cert = out.population[5]
        out.population[5] = dataclasses.replace(cert, z_sc=cert.z_sc + 2.0)

    def shift_means(out):
        means = out.zstats.means.copy()
        means[0] += 1e-9
        out.zstats = dataclasses.replace(out.zstats, means=means)

    table = {
        "sweep_rr32": [
            ("failure_cause", lambda o: o.result.failure_cause.update(lasso="node 0: corrupted")),
            ("n", lambda o: setattr(o.result, "n", o.result.n + 1)),
            ("lam", lambda o: setattr(o.result, "lam", o.result.lam * (1 + 1e-12))),
            ("success flag", lambda o: o.result.success.update(lasso=not o.result.success["lasso"])),
        ],
        "recover_rr128": [
            ("loaded samples", flip_spin),
            ("node_errors", lambda o: o.estimates[1].node_errors.update({3: "corrupted"})),
        ],
        "certify_tree128": [
            ("population witness", fail_population),
            ("tree covariance", lambda o: setattr(o, "moments", dataclasses.replace(
                o.moments, covariance=o.moments.covariance + 1e-6 * np.eye(o.moments.mean.size)))),
        ],
        "enumerate_tree20": [
            ("enumerated covariance", lambda o: setattr(o, "moments", dataclasses.replace(
                o.moments, covariance=o.moments.covariance + 1e-9))),
            ("log Z", lambda o: setattr(o, "moments", shift(o.moments, "log_partition", 1e-6))),
            ("E Z", shift_means),
        ],
    }
    return table[name]


def check_trips(workloads, tracing, workdir: str) -> list[str]:
    bad = []
    api = tracing.make_api()
    for name, wl in workloads.WORKLOADS.items():
        state = wl.setup(SEED_A, workdir)
        clean = wl.check(state, wl.op(state, 0, api))
        print(f"{name}: clean output -> {clean or 'passes'}")
        if clean:
            bad.append(f"{name}: clean output fails its checks: {clean}")
        for label, corrupt in _corruptions(name):
            out = wl.op(state, 0, api)
            corrupt(out)
            problems = wl.check(state, out)
            print(f"{name}: corrupted {label} -> {problems or 'NOT DETECTED'}")
            if not problems:
                bad.append(f"{name}: corrupted {label} passes its checks")
    return bad


def traced_digests(workloads, tracing, name: str, seed: int, ops: int, workdir: str):
    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    loop = run.Loop(wl, wl.setup(seed, workdir), tracing.make_api(tracer), tracer)
    with tracing.traced_lookups(tracer):
        for i in range(ops):
            loop.run_op(i)
    return [r.get("digest") for r in loop.records], [p for r in loop.records for p in r["problems"]]


def check_determinism(workloads, tracing, workdir: str) -> list[str]:
    bad = []
    for name, ops in DETERMINISM_OPS.items():
        first, problems_a = traced_digests(workloads, tracing, name, SEED_A, ops, workdir)
        again, _ = traced_digests(workloads, tracing, name, SEED_A, ops, workdir)
        other, problems_b = traced_digests(workloads, tracing, name, SEED_B, ops, workdir)
        print(f"{name}: seed {SEED_A} {first} / {again}; seed {SEED_B} {other}")
        if problems_a or problems_b:
            bad.append(f"{name}: failed ops {problems_a + problems_b}")
        if first != again or None in first:
            bad.append(f"{name}: seed {SEED_A} digests differ between two runs")
        if other == first:
            bad.append(f"{name}: seeds {SEED_A} and {SEED_B} give the same outcomes")
    return bad


def main() -> int:
    run.pin_blas_threads()
    run.import_library()
    import tracing
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        bad = check_trips(workloads, tracing, workdir) + check_determinism(workloads, tracing, workdir)
    for line in bad:
        print(f"SELFTEST FAILURE: {line}", file=sys.stderr)
    print("selftest " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
