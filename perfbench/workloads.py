"""Workloads: input generation, per-operation command lines and output checks.

Only the standard library is imported at module level. A worker builds its
first command line before `import dpswd.cli` starts the set-up clock, so
numpy must not be imported ahead of it; the functions that need numpy import
it themselves.

Every workload is a closed loop of one client: the next operation starts when
the previous one has returned and been checked. An operation is one or more
`dpswd` invocations whose parameters come from (workload seed, op index), so
no cache across operations can answer one.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

D = 784  # MNIST-like feature count
K = 200  # projections for compute and flow
SIGMA = 1.0

COMPUTE_N_A, COMPUTE_N_B = 2000, 1500
COMPUTE_K_REF = 400  # directions in the benchmark's own reference estimate

FLOW_N = 1000
FLOW_ITERS = 30
FLOW_LR = 5000.0

# (label, dim, k, n, epochs, batch, delta, bound): the acceptance-table schedules
SCHEDULES = (
    ("mnist-bernstein", 784, 1000, 60000, 100, 100, 1e-5, "bernstein"),
    ("mnist-clt", 784, 1000, 60000, 100, 100, 1e-5, "clt"),
    ("celeba-bernstein", 8192, 2000, 162000, 100, 256, 1e-6, "bernstein"),
    ("celeba-clt", 8192, 2000, 162000, 100, 256, 1e-6, "clt"),
)
SENS_D, SENS_K, SENS_TRIALS = 784, 1000, 10000

# Why each workload exists; run.py prints these and BENCHMARK.json repeats them.
WHY = {
    "compute-mnist": "public 2000x784 vs private 1500x784 DP query: unequal sizes take the "
                     "per-projection 1-D path, so CSV parsing and wasserstein1d dominate",
    "flow-mnist": "30-step private particle flow at 1000x784: sliced value+gradient and noise "
                  "draws dominate, wasserstein1d is bypassed, particles are written back",
    "privacy-plan": "calibrate the four reference schedules plus a 10k-trial sensitivity run: "
                    "pure accountant and Monte Carlo, no data files read",
}

# Largest array each workload's inputs imply, recorded in the machine block.
LARGEST_ARRAY = {
    "compute-mnist": f"a: {COMPUTE_N_A}x{D} float64 = {COMPUTE_N_A * D * 8 / 1e6:.1f} MB",
    "flow-mnist": f"source/target/particles: {FLOW_N}x{D} float64 = {FLOW_N * D * 8 / 1e6:.1f} MB",
    "privacy-plan": f"sensitivity samples: {SENS_TRIALS} float64 = {SENS_TRIALS * 8 / 1e3:.0f} kB",
}


def op_rng(seed: int, workload: str, op: int) -> random.Random:
    """Per-operation parameter stream; string seeds hash the same in every process."""
    return random.Random(f"{seed}:{workload}:{op}")


def op_seed(rng: random.Random) -> str:
    return str(rng.getrandbits(63))


def min_flop(workload: str) -> float:
    """Projection and gradient flop the inputs imply for one operation.

    Projecting an n-by-d cloud onto k directions costs 2ndk; the source
    gradient maps n-by-k sorted differences back to d, another 2ndk. Any
    implementation must do at least this much, however it is organised.
    """
    if workload == "compute-mnist":
        return 2.0 * D * K * (COMPUTE_N_A + COMPUTE_N_B)
    if workload == "flow-mnist":
        return FLOW_ITERS * (2.0 * D * K * 2 * FLOW_N + 2.0 * FLOW_N * K * D)
    return 0.0


# ---------------------------------------------------------------- set-up


def _digit_like(rng, n: int, protos, class_weights):
    """n MNIST-like rows in [0, 1]: a class prototype plus clipped pixel noise."""
    import numpy as np

    labels = rng.choice(len(protos), size=n, p=class_weights)
    return np.clip(protos[labels] + 0.15 * rng.standard_normal((n, D)), 0.0, 1.0)


def _prototypes(rng):
    return (rng.random((10, D)) < 0.19) * rng.uniform(0.6, 1.0, (10, D))


def _max_normalize(x):
    import numpy as np

    return x / (2.0 * np.linalg.norm(x, axis=1).max())


def _unit_directions(rng, k: int):
    import numpy as np

    g = rng.standard_normal((D, k))
    return g / np.linalg.norm(g, axis=0)


def _w2sq_columns(pa, pb):
    """Exact 1-D W_2^2 per column between uniform samples of any two sizes."""
    import numpy as np

    n, m = pa.shape[0], pb.shape[0]
    sa, sb = np.sort(pa, axis=0), np.sort(pb, axis=0)
    cuts = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    cuts[-1] = 1.0
    seg = np.diff(np.concatenate(([0.0], cuts)))
    mid = cuts - 0.5 * seg
    ia = np.minimum((mid * n).astype(int), n - 1)
    ib = np.minimum((mid * m).astype(int), m - 1)
    return seg @ (sa[ia] - sb[ib]) ** 2


def _save(path: Path, x) -> None:
    import numpy as np

    np.savetxt(path, x, fmt="%.6g", delimiter=",")


def setup(workload: str, seed: int, work: Path) -> None:
    """Generate the workload's inputs under `work`, and `meta.json`: what workers need."""
    import numpy as np

    rng = np.random.default_rng([seed % 2**64, sum(workload.encode())])
    meta = {"workload": workload, "seed": seed, "work": str(work)}
    if workload == "compute-mnist":
        protos = _prototypes(rng)
        a = _digit_like(rng, COMPUTE_N_A, protos, np.full(10, 0.1))
        b = _digit_like(rng, COMPUTE_N_B, protos, np.arange(1, 11) / 55.0)
        meta["a"], meta["b"] = str(work / "public.csv"), str(work / "private.csv")
        _save(Path(meta["a"]), a)
        _save(Path(meta["b"]), b)
        # The reference draws its own directions and noise, so it agrees with
        # any correct estimator in expectation whatever the CLI's seeding.
        dirs = _unit_directions(rng, COMPUTE_K_REF)
        pa = _max_normalize(a) @ dirs + SIGMA * rng.standard_normal((COMPUTE_N_A, COMPUTE_K_REF))
        pb = _max_normalize(b) @ dirs + SIGMA * rng.standard_normal((COMPUTE_N_B, COMPUTE_K_REF))
        costs = _w2sq_columns(pa, pb)
        meta["ref_value"] = float(costs.mean())
        # six standard errors of the difference of two Monte-Carlo means
        meta["ref_tol"] = 6.0 * float(costs.std()) * math.sqrt(1.0 / K + 1.0 / COMPUTE_K_REF)
    elif workload == "flow-mnist":
        source = rng.random((FLOW_N, D))
        target = _digit_like(rng, FLOW_N, _prototypes(rng), np.full(10, 0.1))
        meta["source"], meta["target"] = str(work / "source.csv"), str(work / "target.csv")
        _save(Path(meta["source"]), source)
        _save(Path(meta["target"]), target)
        dirs = _unit_directions(rng, K)
        target_sorted = np.sort(_max_normalize(target) @ dirs, axis=0)
        start = np.sort(_max_normalize(source) @ dirs, axis=0)
        meta["start_distance"] = float(np.mean((start - target_sorted) ** 2))
        np.save(work / "check_dirs.npy", dirs)
        np.save(work / "check_target_sorted.npy", target_sorted)
    elif workload != "privacy-plan":
        raise ValueError(f"unknown workload {workload!r}")
    (work / "meta.json").write_text(json.dumps(meta))


# ---------------------------------------------------------------- operations


def commands(meta: dict, op: int) -> list[list[str]]:
    """The `dpswd` argument lists that make up operation `op`."""
    workload = meta["workload"]
    rng = op_rng(meta["seed"], workload, op)
    work = Path(meta["work"])
    if workload == "compute-mnist":
        return [["compute", "--a", meta["a"], "--b", meta["b"], "--k", str(K),
                 "--sigma", str(SIGMA), "--normalize", "max", "--seed", op_seed(rng)]]
    if workload == "flow-mnist":
        return [["flow", "--source", meta["source"], "--target", meta["target"],
                 "--iters", str(FLOW_ITERS), "--lr", str(FLOW_LR), "--k", str(K),
                 "--sigma", str(SIGMA), "--normalize", "max", "--seed", op_seed(rng),
                 "--out", str(work / "flow-out")]]
    cmds = []
    for _, dim, k, n, epochs, batch, delta, bound in SCHEDULES:
        eps = rng.uniform(8.0, 12.0)
        cmds.append(["calibrate", "--eps", repr(eps), "--delta", repr(delta), "--dim", str(dim),
                     "--k", str(k), "--n", str(n), "--epochs", str(epochs),
                     "--batch", str(batch), "--bound", bound])
    cmds.append(["sensitivity", "--d", str(SENS_D), "--k", str(SENS_K),
                 "--trials", str(SENS_TRIALS), "--seed", op_seed(rng),
                 "--out", str(work / "sensitivity-out")])
    return cmds


# ---------------------------------------------------------------- checks


class Checker:
    """Validates each invocation's JSON against the shipped schema, then the
    seed-independent properties of its workload."""

    def __init__(self, meta: dict, schema_dir: Path):
        import numpy as np
        from jsonschema.validators import validator_for
        from referencing import Registry, Resource

        schemas = {p.name.split(".")[0]: json.loads(p.read_text())
                   for p in schema_dir.glob("*.schema.json")}
        registry = Registry().with_resources(
            (s["$id"], Resource.from_contents(s)) for s in schemas.values())
        self.validators = {name: validator_for(s)(s, registry=registry)
                           for name, s in schemas.items()}
        self.meta = meta
        work = Path(meta["work"])
        if meta["workload"] == "flow-mnist":
            self.dirs = np.load(work / "check_dirs.npy")
            self.target_sorted = np.load(work / "check_target_sorted.npy")

    def check(self, argv: list[str], stdout: str) -> str | None:
        """None when a successful invocation's output is correct, else the reason it is not."""
        payload = json.loads(stdout)
        sub = argv[0]
        errors = sorted(self.validators[sub].iter_errors(payload), key=str)
        if errors:
            return f"{sub} output violates schema: {errors[0].message}"
        return getattr(self, f"_check_{sub}")(argv, payload)

    def _check_compute(self, argv, out):
        per = out["per_projection"]
        if len(per) != K:
            return f"per_projection has {len(per)} entries, expected {K}"
        mean = math.fsum(per) / len(per)
        if not math.isclose(out["value"], mean, rel_tol=1e-9, abs_tol=1e-15):
            return f"value {out['value']} != mean(per_projection) {mean}"
        gap = abs(out["value"] - self.meta["ref_value"])
        if gap > self.meta["ref_tol"]:
            return (f"value {out['value']:.6g} is {gap:.3g} from the reference "
                    f"{self.meta['ref_value']:.6g} (tolerance {self.meta['ref_tol']:.3g})")
        return None

    def _check_flow(self, argv, out):
        import numpy as np

        out_dir = Path(argv[argv.index("--out") + 1])
        with open(out_dir / "trace.csv", newline="", encoding="utf-8") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        if not losses or not all(math.isfinite(v) for v in losses + [out["final_loss"]]):
            return "flow losses are missing or not finite"
        particles = np.loadtxt(out_dir / "particles.csv", delimiter=",", ndmin=2)
        if particles.shape != (FLOW_N, D) or not np.isfinite(particles).all():
            return f"particles.csv is {particles.shape} or not finite, expected {FLOW_N}x{D} finite"
        moved = np.sort(particles @ self.dirs, axis=0)
        end = float(np.mean((moved - self.target_sorted) ** 2))
        if not end < self.meta["start_distance"]:
            return (f"noise-free sliced distance to the target did not fall: "
                    f"{self.meta['start_distance']:.6g} -> {end:.6g}")
        return None

    def _check_calibrate(self, argv, out):
        eps = float(argv[argv.index("--eps") + 1])
        if not eps * (1.0 - 1e-3) <= out["eps_achieved"] <= eps:
            return f"eps_achieved {out['eps_achieved']} outside [{eps * (1 - 1e-3)}, {eps}]"
        return None

    def _check_sensitivity(self, argv, out):
        # H is a sum of k Beta(1/2, (d-1)/2) terms: mean k/d, variance 2k(d-1)/(d^2(d+2))
        std = math.sqrt(2.0 * SENS_K * (SENS_D - 1) / (SENS_D**2 * (SENS_D + 2)) / SENS_TRIALS)
        if abs(out["empirical_mean"] - SENS_K / SENS_D) > 6.0 * std:
            return f"empirical_mean {out['empirical_mean']} is over 6 standard errors from k/d"
        return None
