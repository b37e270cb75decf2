"""One fresh interpreter running one workload's closed loop.

    python3 perfbench/worker.py META_JSON RESULT_JSON SECONDS {timed,traced}

The clock for set-up starts just before `import dpswd.cli` and stops when
the first, cold operation returns; nothing imported before it pulls in
numpy. Later operations run until SECONDS of operation time have passed.
Each operation's outputs are checked after its timer stops.

In `traced` mode operations alternate between untraced and traced (at least
two of each), so the two latencies compare like with like; the spans and
work counts of traced operations go into the result file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (standard library only at import)


def invoke(main, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI invocation in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        return 1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def run_op(main, cmds, tracer=None) -> tuple[float, list[tuple[int, str, str]]]:
    """Time one operation; with a tracer, each invocation is a `cli.main` span
    under one `bench.op` root span."""
    start = time.perf_counter()
    if tracer is None:
        results = [invoke(main, argv) for argv in cmds]
    else:
        root = tracer.open("bench.op")
        results = [tracer.call("cli.main", invoke, main, argv) for argv in cmds]
        tracer.close(root)
    return time.perf_counter() - start, results


def main() -> int:
    meta_path, result_path, seconds, mode = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
    meta = json.loads(Path(meta_path).read_text())

    first = workloads.commands(meta, 0)
    started = time.perf_counter()
    import dpswd.cli

    cold_s, cold_results = run_op(dpswd.cli.main, first)
    setup_s = time.perf_counter() - started

    from tracer import Tracer

    checker = workloads.Checker(meta, ROOT / "src" / "dpswd" / "schemas")
    tracer = Tracer() if mode == "traced" else None

    def verdict(cmds, results):
        for argv, (code, stdout, stderr) in zip(cmds, results):
            if code != 0:
                return f"{argv[0]}: exit {code}: {stderr.strip()[-300:]}"
            reason = checker.check(argv, stdout)
            if reason:
                return f"{argv[0]}: {reason}"
        return None

    ops = [{"op": 0, "latency_s": cold_s, "cold": True, "traced": False,
            "error": verdict(first, cold_results)}]
    traced_ops = []
    spent = {False: 0.0, True: 0.0}
    done = {False: 0, True: 0}
    op = 1
    while True:
        traced = mode == "traced" and op % 2 == 0
        if mode == "traced":
            if min(done.values()) >= 2 and sum(spent.values()) >= seconds:
                break
        elif spent[False] >= seconds:
            break
        cmds = workloads.commands(meta, op)
        if traced:
            tracer.install()
            try:
                latency, results = run_op(dpswd.cli.main, cmds, tracer)
            finally:
                tracer.uninstall()
            spans, work = tracer.drain()
            traced_ops.append({"op": op, "latency_s": latency, "spans": spans, "work": work})
        else:
            latency, results = run_op(dpswd.cli.main, cmds)
        spent[traced] += latency
        done[traced] += 1
        ops.append({"op": op, "latency_s": latency, "cold": False, "traced": traced,
                    "error": verdict(cmds, results)})
        op += 1

    result = {
        "setup_s": setup_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
        "traced_ops": traced_ops,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
