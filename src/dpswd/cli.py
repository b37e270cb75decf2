"""Command-line experiments: compute, sensitivity, toy, calibrate, flow.

Every subcommand is a reproducible experiment: identical arguments and
seed produce identical output (the manifest's duration field is the only
exception). --threads is still accepted and still changes nothing: the
sensitivity simulation picks its own thread count, and its sample does not
depend on it. JSON goes to stdout with sorted keys; bulk data goes to CSV
files under --out. The manifest's params are the parsed arguments, except
--seed (the manifest's own seed field) and --threads. The choices of
--bound, --amplification and --sides come from the library's registries.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .accountant import (
    AMPLIFICATION_MODES,
    InfeasibleBudgetError,
    PrivacyBudget,
    calibrate_sigma,
    default_orders,
    dense_orders,
)
from .flow import FlowConfig, FlowDiverged, run_flow
from .measures import DataError, load_csv, normalize_for_privacy, save_csv, write_csv_rows
from .measures import EmpiricalMeasure
from .randomness import PURPOSE_DATA, derive_seed, substream
from .sensitivity import SUMMARY_DELTAS, TAIL_BOUNDS, check_delta, simulate_sensitivity, summarize_simulation
from .sliced_distance import NOISE_SIDES, SwdConfig, dp_swd, smoothed_swd, swd

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4
EXIT_DIVERGED = 5  # flow loss blew up; trace.csv holds the partial trace

# Exit code by exception type, first match wins: a subclass precedes its
# base (InfeasibleBudgetError and DataError are ValueErrors).
_EXIT_CODES = (
    (FlowDiverged, EXIT_DIVERGED),
    (InfeasibleBudgetError, EXIT_INFEASIBLE),
    (DataError, EXIT_DATA),
    (OSError, EXIT_DATA),
    (argparse.ArgumentTypeError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be decimal or 0x-hex, got {text!r}")
    return value & ((1 << 64) - 1)


GRID_MAX_POINTS = 10_000  # each toy grid point costs 2 x --repeats sliced distances


def _parse_grid(text: str) -> list[float]:
    """Inclusive start:stop:step grid, e.g. 0:1:0.1 -> 11 points, at most GRID_MAX_POINTS."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric grid component in {text!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"grid start, stop and step must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"grid must advance from start to stop, got {text!r}")
    # the tolerance keeps a stop that the steps reach up to rounding, e.g. 0:0.3:0.1
    span = (stop - start) / step + 1e-9
    if not span < GRID_MAX_POINTS:  # an infinite quotient included
        raise argparse.ArgumentTypeError(f"grid has more than {GRID_MAX_POINTS} points: {text!r}")
    count = math.floor(span) + 1
    return [min(start + i * step, stop) for i in range(count)]


def _parse_normalize(text: str) -> tuple[str, float | None]:
    if text == "max":
        return "max-norm", None
    if text.startswith("clip:"):
        try:
            radius = float(text.split(":", 1)[1])
        except ValueError:
            radius = math.nan
        if not 0 < radius < math.inf:
            raise argparse.ArgumentTypeError(f"bad clip radius in {text!r}: C must be finite and > 0")
        return "clip", radius
    raise argparse.ArgumentTypeError(f"normalize must be 'max' or 'clip:C', got {text!r}")


def _load_inputs(args, *paths) -> list[EmpiricalMeasure]:
    """Load and normalize each CSV in order; usage errors come before any read."""
    if args.sigma > 0 and args.normalize is None:
        raise argparse.ArgumentTypeError(
            "--sigma > 0 requires --normalize: the private mechanism assumes "
            "privacy-normalized inputs (row norms <= 1/2)"
        )
    if args.normalize is None:
        return [load_csv(path, has_header=args.header) for path in paths]
    mode, radius = _parse_normalize(args.normalize)
    return [normalize_for_privacy(load_csv(path, has_header=args.header), mode=mode, clip=radius)
            for path in paths]


def _manifest(args, started: float) -> dict:
    """Run record: every parsed parameter except the seed (its own field) and --threads."""
    params = {name: value for name, value in vars(args).items()
              if name not in ("func", "subcommand", "seed", "threads")}
    return {
        "subcommand": args.subcommand,
        "params": params,
        "seed": args.seed,
        "version": __version__,
        "duration_s": round(time.perf_counter() - started, 6),
    }


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_compute(args) -> int:
    started = time.perf_counter()
    a, b = _load_inputs(args, args.a, args.b)
    cfg = SwdConfig(k=args.k, q=args.q, seed=args.seed, sigma=args.sigma, noise_sides=args.sides)
    if args.sigma > 0:
        result = dp_swd(a, b, cfg)
    else:
        result = swd(a, b, cfg)
    _emit(
        {
            "value": result.value,
            "distance": result.distance,
            "per_projection": [float(v) for v in result.per_projection],
            "config": {"k": cfg.k, "q": cfg.q, "sigma": cfg.sigma, "noise_sides": cfg.noise_sides, "seed": cfg.seed},
            "manifest": _manifest(args, started),
        }
    )
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    started = time.perf_counter()
    check_delta(args.delta)
    samples = simulate_sensitivity(args.d, args.k, args.trials, args.seed)
    summary = summarize_simulation(samples, args.k, args.d, deltas=(*SUMMARY_DELTAS, args.delta))
    *levels, requested = summary["levels"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_rows(out / "sensitivity_samples.csv", enumerate(samples.tolist()),
                   header=["trial", "h"])
    payload = {
        "empirical_mean": summary["empirical_mean"],
        "expected_mean": summary["expected_mean"],
        "requested": requested,
        "levels": levels,
        "manifest": _manifest(args, started),
    }
    with open(out / "sensitivity_summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(payload)
    return EXIT_OK


def cmd_toy(args) -> int:
    started = time.perf_counter()
    for flag, value in (("--n", args.n), ("--d", args.d), ("--repeats", args.repeats)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    grid = _parse_grid(args.grid)
    values_plain = np.empty((args.repeats, len(grid)))
    values_noised = np.empty((args.repeats, len(grid)))
    for r in range(args.repeats):
        data_rng = substream(args.seed, PURPOSE_DATA, r)
        base_source = data_rng.standard_normal((args.n, args.d))
        base_target = data_rng.standard_normal((args.n, args.d))
        rep_seed = derive_seed(args.seed, r)
        source = EmpiricalMeasure(base_source)
        for ci, c in enumerate(grid):
            target = EmpiricalMeasure(base_target + c)
            cfg0 = SwdConfig(k=args.k, q=2.0, seed=rep_seed, sigma=0.0)
            values_plain[r, ci] = swd(source, target, cfg0).value
            cfgs = SwdConfig(k=args.k, q=2.0, seed=rep_seed, sigma=args.sigma)
            values_noised[r, ci] = smoothed_swd(source, target, cfgs).value
    ddof = 1 if args.repeats > 1 else 0
    rows = []
    for ci, c in enumerate(grid):
        rows.append(
            {
                "c": c,
                "swd_mean": float(values_plain[:, ci].mean()),
                "swd_std": float(values_plain[:, ci].std(ddof=ddof)),
                "dpswd_mean": float(values_noised[:, ci].mean()),
                "dpswd_std": float(values_noised[:, ci].std(ddof=ddof)),
            }
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        columns = ["c", "swd_mean", "swd_std", "dpswd_mean", "dpswd_std"]
        write_csv_rows(out / "toy.csv", ([row[k] for k in columns] for row in rows), header=columns)
    _emit({"rows": rows, "manifest": _manifest(args, started)})
    return EXIT_OK


def cmd_calibrate(args) -> int:
    started = time.perf_counter()
    for flag, value in (("--n", args.n), ("--batch", args.batch)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    steps = args.epochs * (args.n // args.batch)
    if steps < 1:
        raise DataError(f"schedule has no steps: epochs={args.epochs}, n={args.n}, batch={args.batch}")
    gamma = args.batch / args.n
    budget = PrivacyBudget(
        eps_target=args.eps,
        delta_target=args.delta,
        steps=steps,
        sampling_rate=gamma,
        delta_split=args.delta_split,
    )
    bound = budget.tail_bound(args.bound, args.k, args.dim)
    orders = dense_orders() if args.orders == "dense" else default_orders()
    result = calibrate_sigma(budget, bound, orders=orders, amplification=args.amplification)
    _emit(
        {
            "sigma": result.sigma,
            "eps_achieved": result.eps_achieved,
            "best_order": result.best_order,
            "w": result.sensitivity.w,
            "bound_kind": result.sensitivity.kind,
            "steps": steps,
            "gamma": gamma,
            "delta_split": args.delta_split,
            "amplification": args.amplification,
            "manifest": _manifest(args, started),
        }
    )
    return EXIT_OK


def _write_trace(out: Path, trace) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_csv_rows(
        out / "trace.csv",
        zip(trace.iterations.tolist(), trace.losses.tolist(), trace.grad_norms.tolist()),
        header=["iteration", "loss", "grad_norm"],
    )


def cmd_flow(args) -> int:
    started = time.perf_counter()
    cfg = FlowConfig(
        iterations=args.iters,
        learning_rate=args.lr,
        k=args.k,
        sigma=args.sigma,
        seed=args.seed,
        log_every=args.log_every,
        batch_size=args.batch,
        delta=args.delta,
        delta_split=args.delta_split,
        bound_kind=args.bound,
    )
    source, target = _load_inputs(args, args.source, args.target)
    out = Path(args.out)
    try:
        trace = run_flow(source, target, cfg)
    except FlowDiverged as exc:
        _write_trace(out, exc.trace)
        raise
    _write_trace(out, trace)
    save_csv(EmpiricalMeasure(trace.final_points), out / "particles.csv")
    _emit(
        {
            "final_loss": float(trace.losses[-1]),
            "final_grad_norm": float(trace.grad_norms[-1]),
            "logged_steps": int(trace.iterations.size),
            "eps": trace.eps,
            "delta": trace.delta,
            "best_order": trace.best_order,
            "sensitivity_w": trace.sensitivity.w if trace.sensitivity else None,
            "manifest": _manifest(args, started),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpswd",
        description="Differentially private sliced Wasserstein distance experiments",
    )
    parser.add_argument("--version", action="version", version=f"dpswd {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_parse_seed, default=0, help="decimal or 0x-hex master seed")
    common.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; never changes results"
    )
    inputs = argparse.ArgumentParser(add_help=False)  # the two-CSV subcommands
    inputs.add_argument("--sigma", type=float, default=0.0)
    inputs.add_argument("--normalize", default=None, metavar="max|clip:C")
    inputs.add_argument("--header", action="store_true", help="skip one header line in the CSVs")
    schedule = argparse.ArgumentParser(add_help=False)  # the accounted subcommands
    schedule.add_argument("--delta-split", type=float, default=0.5)
    schedule.add_argument("--bound", choices=list(TAIL_BOUNDS), default="bernstein")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compute", parents=[common, inputs], help="SWD / DP-SWD between two CSV datasets")
    p.add_argument("--a", required=True, help="first (public) dataset CSV")
    p.add_argument("--b", required=True, help="second (private) dataset CSV")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--sides", choices=NOISE_SIDES, default="both")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("sensitivity", parents=[common], help="simulate the squared sensitivity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("toy", parents=[common], help="two-Gaussian separation sweep")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--grid", default="0:1:0.1", metavar="START:STOP:STEP",
                   help=f"inclusive grid of shifts c, at most {GRID_MAX_POINTS} points")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", default=None, help="optional output directory for toy.csv")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("calibrate", parents=[common, schedule], help="noise level for an (eps, delta) budget")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument(
        "--amplification", choices=AMPLIFICATION_MODES, default="subsample",
        help="subsampling bound: without-replacement (default), Poisson, or none",
    )
    p.add_argument("--orders", choices=["default", "dense"], default="default")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("flow", parents=[common, inputs, schedule], help="particle descent toward a private target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--lr", type=float, required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--log-every", type=int, default=10)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_flow)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(exc_type for exc_type, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for exc_type, code in _EXIT_CODES if isinstance(exc, exc_type))


if __name__ == "__main__":
    sys.exit(main())
