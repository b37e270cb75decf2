"""Golden-output corpus of the dpswd CLI: its inputs, its argv and its recorder.

Every case is one argv, run as its own ``python -m dpswd.cli`` process with
``OPENBLAS_NUM_THREADS=1`` and the default warning filters, from one work
directory that holds the seeded input CSVs, so every path the output echoes
is relative. A case's record is its exit code, the sha256 of its stdout
without the manifest's ``duration_s`` and ``version`` lines, the sha256 of
its stderr, and the sha256 of every file under its ``--out`` (null when the
run left no ``--out`` directory). ``tests/test_golden.py`` runs the cases
again and compares.

The inputs are at most 12 columns wide: at that width the SkylakeX and
Haswell OpenBLAS kernels gave the same bytes at 1 and 2 threads, where at
d = 784 they did not.

After a deliberate change of output, rewrite the corpus with

    python tests/golden/regen.py

and name the entries whose record moved in the change's notes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
SRC = HERE.parents[1] / "src"
WORKERS = 2  # CLI processes at a time; each runs OpenBLAS on one thread

# file name -> (rows, columns, seed, shift, scale) of a Gaussian cloud
INPUTS = {
    "a.csv": (120, 12, 1, 0.0, 1.0),
    "b.csv": (90, 12, 2, 0.5, 1.0),
    "source.csv": (80, 12, 3, 1.0, 1.0),
    "target.csv": (80, 12, 4, 0.0, 1.0),
    "target160.csv": (160, 12, 5, 0.0, 1.0),
    "rows30.csv": (30, 12, 6, 1.0, 1.0),
    "rows20.csv": (20, 12, 7, 0.0, 1.0),
    "far.csv": (20, 3, 8, 500.0, 10.0),
    "near.csv": (20, 3, 9, 0.0, 1.0),
}

_MNIST = "--eps 10 --delta 1e-5 --dim 784 --k 1000 --n 60000 --epochs 100 --batch 100"
_CELEBA = "--eps 10 --delta 1e-6 --dim 8192 --k 2000 --n 162000 --epochs 100 --batch 256"
_PAIR = "--a a.csv --b b.csv"
_FLOW = "--source source.csv --target target.csv"
_UNEQUAL = "--source rows30.csv --target rows20.csv --iters 5 --lr 1 --k 8 --seed 1"
_OVERFLOW = "--source far.csv --target near.csv --lr 1.7e308 --k 8 --seed 1"
_SMALL_SCHEDULE = "--eps 10 --delta 1e-5 --dim 2 --n 1000 --epochs 1 --batch 100"

# case name -> argv; a case that writes files names its own --out directory
CASES = {
    "compute-plain": f"compute {_PAIR} --k 50 --seed 3",
    "compute-clip4": f"compute {_PAIR} --k 40 --sigma 0.7 --normalize clip:4 --seed 7",
    "compute-max": f"compute {_PAIR} --sigma 0.5 --normalize max",
    "compute-clip6": f"compute {_PAIR} --sigma 0.5 --normalize clip:6",
    "compute-clip-x": f"compute {_PAIR} --sigma 0.5 --normalize clip:x",
    "compute-clip-0": f"compute {_PAIR} --sigma 0.5 --normalize clip:0",
    "compute-clip-1e308": f"compute {_PAIR} --sigma 0.5 --normalize clip:1e308",
    "compute-normalize-unknown": f"compute {_PAIR} --sigma 0.5 --normalize l2",
    "compute-sigma-without-normalize": f"compute {_PAIR} --sigma 1",
    "compute-missing-file": "compute --a missing.csv --b b.csv",
    "calibrate-mnist-bernstein": f"calibrate {_MNIST}",
    "calibrate-mnist-bernstein-no-amplification": f"calibrate {_MNIST} --amplification none",
    "calibrate-mnist-clt": f"calibrate {_MNIST} --bound clt",
    "calibrate-celeba-bernstein": f"calibrate {_CELEBA}",
    "calibrate-celeba-clt": f"calibrate {_CELEBA} --bound clt",
    "calibrate-celeba-clt-no-amplification": f"calibrate {_CELEBA} --bound clt --amplification none",
    "calibrate-delta-5": "calibrate --eps 10 --delta 5 --dim 784 --k 1000 --n 60000 --epochs 100 --batch 100",
    "calibrate-clt-small-k-warning": ("calibrate --eps 5 --delta 1e-5 --dim 100 --k 10 --n 2000 "
                                      "--epochs 2 --batch 200 --bound clt"),
    "calibrate-w-overflow": f"calibrate {_SMALL_SCHEDULE} --k {10**308}",
    "calibrate-w-near-overflow": f"calibrate {_SMALL_SCHEDULE} --k {10**306}",
    "toy": "toy --d 4 --n 60 --k 30 --sigma 0.6 --grid 0:1:0.25 --repeats 3 --seed 13 --out toy_out",
    "toy-n0": "toy --n 0",
    "sensitivity-d50-k100": "sensitivity --d 50 --k 100 --trials 500 --seed 15 --out sens_d50_k100",
    "sensitivity-d784": "sensitivity --d 784 --k 200 --trials 3000 --delta 1e-5 --seed 3 --out sens_d784",
    "sensitivity-d1": "sensitivity --d 1 --k 7 --trials 50 --seed 2 --out sens_d1",
    "sensitivity-d3": "sensitivity --d 3 --k 20 --trials 500 --delta 0.2 --seed 4 --out sens_d3",
    "sensitivity-d50-k10": "sensitivity --d 50 --k 10 --trials 300 --seed 5 --out sens_d50_k10",
    "sensitivity-k0": "sensitivity --d 50 --k 0 --trials 10 --out sens_k0",
    "flow-private-batch": ("flow --source source.csv --target target160.csv --iters 10 --lr 20 --k 16 "
                           "--sigma 0.5 --normalize clip:8 --batch 80 --seed 11 --out flow_private_batch"),
    "flow-plain-log-every-2": f"flow {_FLOW} --iters 12 --lr 1 --k 16 --seed 9 --log-every 2 --out flow_plain_log2",
    "flow-clt": (f"flow {_FLOW} --iters 8 --lr 10 --k 40 --sigma 1 --normalize clip:8 --bound clt "
                 "--delta 1e-6 --delta-split 0.3 --seed 5 --out flow_clt"),
    "flow-plain": f"flow {_FLOW} --iters 10 --lr 5 --k 20 --seed 21 --out flow_plain",
    "flow-clip6": f"flow {_FLOW} --iters 10 --lr 20 --k 20 --sigma 0.8 --normalize clip:6 --seed 22 --out flow_clip6",
    "flow-clip6-batch20": ("flow --source rows20.csv --target target160.csv --iters 10 --lr 20 --k 20 "
                           "--sigma 1.5 --normalize clip:6 --batch 20 --seed 23 --out flow_clip6_batch20"),
    "flow-delta-5": f"flow {_FLOW} --iters 5 --lr 1 --delta 5 --out flow_delta_5",
    "flow-delta-split-1": f"flow {_FLOW} --iters 5 --lr 1 --delta-split 1 --out flow_delta_split_1",
    "flow-delta-split-0-private": (f"flow {_FLOW} --iters 5 --lr 1 --sigma 1 --normalize clip:8 "
                                   "--delta-split 0 --out flow_delta_split_0"),
    "flow-clip-1e308": f"flow {_FLOW} --iters 5 --lr 1 --sigma 0.5 --normalize clip:1e308 --out flow_clip_1e308",
    "flow-unequal-rows": f"flow {_UNEQUAL} --out flow_unequal",
    "flow-unequal-rows-private": f"flow {_UNEQUAL} --sigma 1 --normalize clip:6 --out flow_unequal_private",
    "flow-unequal-rows-tiny-sigma": f"flow {_UNEQUAL} --sigma 1e-160 --normalize clip:6 --out flow_unequal_tiny",
    "flow-update-overflow-1": f"flow {_OVERFLOW} --iters 1 --out flow_overflow_1",
    "flow-update-overflow-2": f"flow {_OVERFLOW} --iters 2 --out flow_overflow_2",
}

# the manifest's run-dependent lines: the wall time and the package version
_VOLATILE = re.compile(rb'^ *"(?:duration_s|version)": .*\n', re.MULTILINE)


def write_inputs(workdir: Path) -> None:
    """Write every seeded input CSV, six decimals per cell, into workdir."""
    for name, (n, d, seed, shift, scale) in INPUTS.items():
        points = shift + scale * np.random.default_rng(seed).standard_normal((n, d))
        lines = (",".join(f"{x:.6f}" for x in row) + "\n" for row in points)
        (workdir / name).write_text("".join(lines), encoding="utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files_under(out: Path) -> dict[str, str] | None:
    if not out.is_dir():
        return None
    return {path.relative_to(out).as_posix(): _sha256(path.read_bytes())
            for path in sorted(out.rglob("*")) if path.is_file()}


def record(argv: str, workdir: Path) -> dict:
    """Run one argv as a CLI process in workdir and return its record."""
    args = shlex.split(argv)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONWARNINGS"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "dpswd.cli", *args], cwd=workdir,
                            capture_output=True, env=env, check=False)
    out = args[args.index("--out") + 1] if "--out" in args else None
    return {
        "argv": argv,
        "exit": result.returncode,
        "stdout": _sha256(_VOLATILE.sub(b"", result.stdout)),
        "stderr": _sha256(result.stderr),
        "files": _files_under(workdir / out) if out else None,
    }


def record_all(workdir: Path) -> dict[str, dict]:
    """Write the inputs into an empty workdir, then record every case."""
    write_inputs(workdir)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        records = pool.map(lambda argv: record(argv, workdir), CASES.values())
        return dict(zip(CASES, records))


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        corpus = record_all(Path(workdir))
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {CORPUS}")


if __name__ == "__main__":
    main()
