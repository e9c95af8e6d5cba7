"""Benchmark of the conebilliards package.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/` of
that checkout.  A run sets up (import, seeded inputs, one untimed warm-up
op), then repeats passes over the workload's fixed op list until
`--seconds` would be exceeded (at least two passes), checking every op's
outputs.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics.  The last line of stdout is one JSON object; a full
record goes to perfbench/out/.  The exit status is nonzero when any op
fails its correctness gate.

Op times are process CPU time.  On a shared virtual machine the wall clock
also counts time the host gives to other guests, which came in bursts of up
to 2x; the package is single-threaded and BLAS is pinned to one thread, so
on an idle machine the two clocks agree.  Wall-clock figures are kept in
the record.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
SETUP_PROBES = 2  # extra set-ups in child processes; the run's own is one more
TAIL_BEYOND = 10


def prepare(name: str, seed: int):
    """Import the package, build the seeded inputs, run one untimed op."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    import workloads

    cb = workloads.import_package(ROOT)
    wl = workloads.WORKLOADS[name](cb, seed)
    wl.check(wl.items[0], wl.op(wl.items[0]))
    return cb, wl


class Pass:
    """CPU and wall time, events and failures of every op in one pass."""

    def __init__(self):
        self.latency: list[float] = []
        self.wall: list[float] = []
        self.events: list[int] = []
        self.failures: list[str] = []


def run_pass(wl, tracer=None) -> Pass:
    from workloads import GateFailure

    p = Pass()
    for i, item in enumerate(wl.items):
        span = tracer.op_span(i) if tracer else None
        w0 = time.perf_counter()
        t0 = time.process_time()
        try:
            out = wl.op(item)
            error = None
        except Exception:  # a failing op is counted as failed, never retried
            error = traceback.format_exc()
        finally:
            t1 = time.process_time()
            w1 = time.perf_counter()
            if tracer:
                tracer.close_op(span)
        p.latency.append(t1 - t0)
        p.wall.append(w1 - w0)
        events = 0
        if error is None:
            try:
                events = wl.check(item, out)
            except GateFailure as exc:
                error = f"gate failed: {exc}"
        if error is not None:
            p.failures.append(f"{wl.name} op {i}: {error}")
            print(p.failures[-1], file=sys.stderr)
        p.events.append(events)
    return p


def repeat(seconds: float, min_reps: int, step):
    """Call `step` until another call would pass `seconds`; at least `min_reps`."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - t0
        if len(results) >= min_reps and time.perf_counter() - start + last > seconds:
            return results, time.perf_counter() - start


def setup_seconds(name: str, seed: int, own: float) -> list[float]:
    """The run's own set-up time plus that of fresh child processes."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def tail(latencies: list[float]):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when that percentile would not exceed the median."""
    xs = sorted(latencies)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < len(xs) // 2:
        k = len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(wl, passes: list[Pass], elapsed: float, setup: list[float]):
    """End-to-end metrics; each op's time is its median over the passes."""
    per_op = [statistics.median(p.latency[i] for p in passes) for i in range(len(wl.items))]
    pass_s = sum(per_op)
    latencies = [x for p in passes for x in p.latency]
    tail_s, tail_pct = tail(latencies)
    attempted = len(latencies)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "ops_per_s": len(per_op) / pass_s,
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "op_ms_tail_percentile": tail_pct,
        "op_samples": attempted,
        "passes": len(passes),
        "ops_per_pass": len(per_op),
        "events_per_s": sum(passes[0].events) / pass_s,
        "failed_op_ratio": failed / attempted,
        "ops_per_s_whole_run": attempted / elapsed,
        "op_ms_p50_wall": 1e3 * statistics.median(x for p in passes for x in p.wall),
        "setup_s_samples": setup,
        "timed_seconds": elapsed,
    }
    return metrics, info, attempted, failed


def traced(cb, wl, seconds: float, seed: int):
    """Alternate untraced and traced passes over the same ops."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer(cb)

    def pair():
        plain = run_pass(wl)
        tracer.install()
        try:
            traced_pass = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        return plain, traced_pass

    pairs, elapsed = repeat(seconds, 1, pair)
    metrics = layer_metrics(tracer.spans, len(pairs) * len(wl.items))
    metrics["trace.overhead_ratio"] = statistics.median(sum(t.latency) for _, t in pairs) / statistics.median(
        sum(p.latency) for p, _ in pairs
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    passes = [p for pair_ in pairs for p in pair_]
    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    info = {"pairs": len(pairs), "ops_per_pass": len(wl.items), "timed_seconds": elapsed}
    return metrics, info, attempted, failed


def environment(cb) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = ROOT / "src" / "conebilliards"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "conebilliards": cb.__version__,
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(src.rglob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bounds", "theorem", "ensemble", "records"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cb, wl = prepare(args.workload, args.seed)
    own_setup = time.perf_counter() - _START

    if args.trace:
        metrics, info, attempted, failed = traced(cb, wl, args.seconds, args.seed)
        declared = spec["per_layer"]
    else:
        passes, elapsed = repeat(args.seconds, MIN_PASSES, lambda: run_pass(wl))
        setup = setup_seconds(args.workload, args.seed, own_setup)
        metrics, info, attempted, failed = end_to_end(wl, passes, elapsed, setup)
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result, "info": info}
    record["environment"] = environment(cb)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name in units:
        print(f"{args.workload:9s} {name:48s} {metrics[name]:14.6g} {units[name]}")
    for name, value in info.items():
        print(f"{args.workload:9s} {name:48s} {value}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
