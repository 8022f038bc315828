"""Benchmark runner for isinglasso.

    python3 perfbench/run.py --workload sweep_rr32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs one workload in this process, closed loop with one client: ops run
back to back for --seconds after set-up, every op's outputs are checked,
and the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 reports the per-layer metrics of tracing.py. --workload all runs
every workload in its own child process and prints their tables.

BLAS is pinned to one thread before numpy loads, so solver iteration
counts repeat exactly for a given seed. Per-op records, run metadata and
the spans of a traced run go to .bench_out/ under the checkout root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep_rr32", "recover_rr128", "certify_tree128", "enumerate_tree20")
SETUP_REPS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "success_rate": "ratio",
}


def pin_blas_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_library():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import isinglasso
    except ImportError as exc:
        print(f"error: cannot import isinglasso from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(isinglasso.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: isinglasso was imported from {isinglasso.__file__}, not this checkout",
              file=sys.stderr)
        raise SystemExit(2)


def blas_threads() -> int | str:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "lib*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def metadata(args, counts: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        **counts,
    }


class Loop:
    """Runs ops and keeps one record per op. With a reference kernel, one
    kernel pass runs before each op, outside the op's time, and gives the
    factor that scales that op's times to reference speed."""

    def __init__(self, workload, state, api, tracer=None, reference=None):
        self.workload, self.state, self.api, self.tracer = workload, state, api, tracer
        self.reference = reference
        self.records: list[dict] = []
        self.work_s = 0.0  # ops and their checks at reference speed, without kernel passes

    def run_op(self, i: int) -> dict:
        wl = self.workload
        speed = 1.0 if self.reference is None else self.reference.speed()
        if self.tracer is not None:
            self.tracer.op = i
        out, problems, hits = None, [], []
        t0 = time.perf_counter()
        try:
            out = wl.op(self.state, i, self.api)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        wall_ms = (time.perf_counter() - t0) * 1e3
        if self.tracer is not None:
            self.tracer.op = None
        if out is not None:
            try:
                problems = wl.check(self.state, out)
                hits = wl.outcome(self.state, out)
                facts = wl.facts(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.work_s += (time.perf_counter() - t0) * speed
        rec = {"op": i, "ms": wall_ms * speed, "wall_ms": wall_ms, "speed": speed,
               "problems": problems, "hits": sum(hits), "units": len(hits)}
        if out is not None and not problems:
            counts = {} if self.tracer is None else dict(sorted(self.tracer.counts[i].items()))
            rec["digest"] = hashlib.sha256(repr((facts, counts)).encode()).hexdigest()[:16]
        self.records.append(rec)
        return rec

    def run_for(self, seconds: float, min_ops: int) -> None:
        """Ops 0, 1, ... until `seconds` have passed and at least `min_ops` ran."""
        t0 = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - t0 < seconds:
            self.run_op(i)
            i += 1


def run_workload(args) -> dict:
    pin_blas_threads()
    t_import = time.perf_counter()
    import_library()
    import reference
    import tracing
    import workloads

    import_s = time.perf_counter() - t_import
    wl = workloads.WORKLOADS[args.workload]
    ref = reference.Reference()
    setup_speeds = [ref.speed()]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_speeds.append(ref.speed())
        plain_api = tracing.make_api()
        t0 = time.perf_counter()
        wl.op(state, 0, plain_api)  # warm-up: lazy imports and first-call costs
        warm_s = time.perf_counter() - t0
        setup_speeds.append(ref.speed())
        raw_setup_s = import_s + statistics.median(setup_times) + warm_s

        plain = Loop(wl, state, plain_api, reference=ref)
        if not args.trace:
            plain.run_for(args.seconds, wl.success_ops)
            records = plain.records
        else:
            plain.run_for(args.seconds / 2, wl.success_ops)
            tracer = tracing.Tracer()
            traced = Loop(wl, state, tracing.make_api(tracer), tracer, reference=ref)
            with tracing.traced_lookups(tracer):
                for rec in plain.records:
                    traced.run_op(rec["op"])
            records = plain.records + traced.records

    failed = sum(1 for r in records if r["problems"])
    scored = plain.records[: wl.success_ops]
    ms = [r["ms"] for r in plain.records]
    counts = {
        "ops": len(records),
        "timed_ops": len(plain.records),
        "success_window_ops": len(scored),
        "fully_successful_ops": sum(r["hits"] == r["units"] for r in scored),
        "speed": statistics.fmean(r["speed"] for r in plain.records),
        "setup_speed": statistics.fmean(setup_speeds),
        "wall_op_ms.p50": statistics.median(r["wall_ms"] for r in plain.records),
        "wall_setup_s": raw_setup_s,
        "setup_reps_s": setup_times,
        "import_s": import_s,
        "warmup_s": warm_s,
    }
    if args.trace:
        metrics = tracing.per_layer_metrics(
            tracer, {r["op"]: r["speed"] for r in traced.records},
            [r["ms"] for r in traced.records], ms,
        )
    else:
        values = {
            "ops_per_s": len(records) / plain.work_s,
            "op_ms.p50": statistics.median(ms),
            "setup_s": raw_setup_s * counts["setup_speed"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": (len(records) - failed) / len(records),
            "success_rate": sum(r["hits"] for r in scored) / max(1, sum(r["units"] for r in scored)),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    meta = metadata(args, counts)
    report = {"meta": meta, "metrics": metrics, "records": records}
    if args.trace:
        report["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1))
    return {"meta": meta, "failed_ops": [r for r in records if r["problems"]],
            "result": {"correct": failed == 0, "attempted": len(records),
                       "failed": failed, "metrics": metrics}}


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in a child process, so no peak memory is shared."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    run = run_workload(args)
    result = run["result"]
    for rec in run["failed_ops"]:
        print(f"FAILED op {rec['op']}: {'; '.join(rec['problems'])}", file=sys.stderr)
    print("meta " + json.dumps(run["meta"]))
    print_table(f"{args.workload} seed={args.seed} trace={args.trace} "
                f"attempted={result['attempted']} failed={result['failed']}", result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
