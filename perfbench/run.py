"""Benchmark of the `dpswd` CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root. Set-up generates the workload's inputs from
--seed under .perfbench_work/ (not timed). Then fresh interpreters run the
workload as a closed loop of one client, calling `dpswd.cli.main(argv)`
in-process with stdout captured, one operation after another, each checked
after its timer stops (see worker.py and workloads.py).

--trace 0 runs three fresh workers: each sets up and runs one cold
operation, and the first then runs S seconds of operations. It reports the
end-to-end metrics. --trace 1 runs one worker
that alternates untraced and traced operations and reports per-layer
metrics (see tracer.py). Every metric is printed as `name value unit`,
followed by a machine block, and the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

TIMED_WORKERS = 3  # fresh processes per --trace 0 run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "measures.self_s": "s",
    "measures.load_csv_s": "s",
    "measures.save_csv_s": "s",
    "measures.bytes_read": "B",
    "measures.bytes_written": "B",
    "measures.read_mb_per_s": "MB/s",
    "randomness.self_s": "s",
    "randomness.calls": "count",
    "randomness.values_drawn": "count",
    "sliced_distance.self_s": "s",
    "sliced_distance.calls": "count",
    "sliced_distance.gflop_per_s_computed": "GFLOP/s",
    "wasserstein1d.self_s": "s",
    "wasserstein1d.calls": "count",
    "wasserstein1d.support_points": "count",
    "accountant.self_s": "s",
    "accountant.calls": "count",
    "accountant.account_evals": "count",
    "sensitivity.self_s": "s",
    "sensitivity.trials_per_s": "1/s",
    "flow.self_s": "s",
    "flow.step_s": "s",
    "flow.steps": "count",
    "bench.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def run_worker(meta_path: Path, seconds: float, mode: str, index: int, deadline: float) -> dict:
    result_path = meta_path.parent / f"worker-{mode}-{index}.json"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(meta_path), str(result_path), repr(seconds), mode],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return json.loads(result_path.read_text())


def tail_latency(latencies: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile from p50 up with at least ten operations above it, or None."""
    if len(latencies) < 20:
        return None
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    for pct in range(99, 49, -1):
        if sum(v > cuts[pct - 1] for v in latencies) >= 10:
            return pct, cuts[pct - 1]
    return None


def end_to_end(workers: list[dict]) -> tuple[dict, list[str]]:
    warm = [op for w in workers for op in w["ops"] if not op["cold"]]
    ok = [op["latency_s"] for op in warm if op["error"] is None]
    all_ops = [op for w in workers for op in w["ops"]]
    failed = sum(op["error"] is not None for op in all_ops)
    latencies = [op["latency_s"] for op in warm]
    metrics = {
        "ops_per_s": len(ok) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_kb"] for w in workers) / 1024.0,
    }
    notes = [f"failed_ratio {failed / len(all_ops):.6g} ratio ({failed} of {len(all_ops)} ops)"]
    tail = tail_latency(latencies)
    if tail is None:
        notes.append(f"latency_tail_s omitted: {len(latencies)} warm ops leave no percentile "
                     "with ten operations above it")
    else:
        notes.append(f"latency_tail_s {tail[1]:.6g} s (p{tail[0]} of {len(latencies)} ops)")
    return metrics, notes


def per_layer(workload: str, worker: dict) -> tuple[dict, list[str]]:
    traced = worker["traced_ops"]
    per_op = []
    for op in traced:
        spans, work = op["spans"], op["work"]
        self_s = tracer.self_times(spans)
        calls = tracer.call_counts(spans)
        span_s = {}
        for name, start, end, _ in spans:
            span_s[name] = span_s.get(name, 0.0) + end - start
        load_s = span_s.get("measures.load_csv", 0.0)
        steps = work.get("flow.steps", 0)
        row = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in tracer.LAYERS + ("bench",)}
        row.update({
            "measures.load_csv_s": load_s,
            "measures.save_csv_s": span_s.get("measures.save_csv", 0.0),
            "measures.bytes_read": work.get("measures.bytes_read", 0),
            "measures.bytes_written": work.get("measures.bytes_written", 0),
            "measures.read_mb_per_s": work.get("measures.bytes_read", 0) / load_s / 1e6 if load_s else 0.0,
            "randomness.calls": calls["randomness"],
            "randomness.values_drawn": work.get("randomness.values_drawn", 0),
            "sliced_distance.calls": calls["sliced_distance"],
            "sliced_distance.gflop_per_s_computed":
                workloads.min_flop(workload) / row["sliced_distance.self_s"] / 1e9
                if calls["sliced_distance"] else 0.0,
            "wasserstein1d.calls": calls["wasserstein1d"],
            "wasserstein1d.support_points": work.get("wasserstein1d.support_points", 0),
            "accountant.calls": calls["accountant"],
            "accountant.account_evals": work.get("accountant.account.evals", 0),
            "sensitivity.trials_per_s":
                work.get("sensitivity.trials", 0) / row["sensitivity.self_s"]
                if work.get("sensitivity.trials") else 0.0,
            "flow.step_s": span_s.get("flow.run_flow", 0.0) / steps if steps else 0.0,
            "flow.steps": steps,
        })
        accounted = sum(self_s.values())
        if abs(accounted - op["latency_s"]) > 0.01 * op["latency_s"]:
            raise RuntimeError(f"self times sum to {accounted} s, op took {op['latency_s']} s")
        per_op.append(row)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        values = [row[name] for row in per_op]
        # counts are exact: take the first traced op, which every run repeats
        metrics[name] = values[0] if unit in ("count", "B") else statistics.median(values)
    # each traced op follows an untraced one; comparing neighbours keeps slow
    # phases of a shared machine out of the ratio
    latency = {op["op"]: op["latency_s"] for op in worker["ops"]}
    metrics["trace.overhead_ratio"] = statistics.median(
        op["latency_s"] / latency[op["op"] - 1] for op in traced) - 1.0
    notes = [f"traced ops {len(traced)}, each after an untraced one; per-layer values are "
             "per operation (medians of times, counts of the first traced op)"]
    return metrics, notes


def blas_threads() -> str:
    """OpenBLAS's own thread count, read from the loaded library; unchanged by the benchmark."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def l3_size() -> str:
    size = os.sysconf("SC_LEVEL3_CACHE_SIZE") if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    if size > 0:
        return f"{size / 2**20:.0f} MiB"
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def machine(workload: str) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l3_cache": l3_size(),
        "largest_input_array": workloads.LARGEST_ARRAY[workload],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dpswd" / "cli.py").is_file():
        print(f"error: no dpswd source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.setup(args.workload, args.seed, work)
        meta_path = work / "meta.json"
        if args.trace:
            workers = [run_worker(meta_path, args.seconds, "traced", 0, deadline)]
            metrics, notes = per_layer(args.workload, workers[0])
            units = PER_LAYER
            spans_dir = base / "spans"
            spans_dir.mkdir(exist_ok=True)
            spans = [{"op": op["op"], "spans": [dict(zip(("name", "start", "end", "parent"), s))
                                                for s in op["spans"]]}
                     for op in workers[0]["traced_ops"]]
            (spans_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            # the first worker runs the measured loop; the others only set up
            # and run their cold operation, so set-up is sampled three times
            # without splitting the loop into short runs that each overshoot
            workers = [run_worker(meta_path, args.seconds if i == 0 else 0.0, "timed", i, deadline)
                       for i in range(TIMED_WORKERS)]
            metrics, notes = end_to_end(workers)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = [op for w in workers for op in w["ops"]]
    errors = [f"op {op['op']}: {op['error']}" for op in all_ops if op["error"]]
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    for key, value in machine(args.workload).items():
        print(f"machine {key}: {value}")
    for name, value in metrics.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    for line in notes + errors[:5]:
        print(line)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(all_ops),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
