"""Command-line experiments: compute, sensitivity, toy, calibrate, flow.

Every subcommand is a reproducible experiment: identical arguments and
seed produce identical output (the manifest's duration field is the only
exception). Each cmd_* returns its result as a dict; main adds the
manifest and prints the one JSON object to stdout with sorted keys. Bulk
data goes to CSV files under --out. The manifest's params are the parsed
arguments, except --seed (the manifest's own seed field). The choices of
--bound come from the library's registry; --amplification none charges
the schedule at sampling rate 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .accountant import InfeasibleBudgetError, PrivacyBudget, calibrate_sigma
from .flow import FlowConfig, FlowDiverged, run_flow
from .measures import DataError, load_csv_pair, normalize_for_privacy, save_csv, write_csv_rows
from .measures import MAX_CLIP, EmpiricalMeasure
from .randomness import PURPOSE_DATA, derive_seed, substream
from .sensitivity import TAIL_BOUNDS, _check_count, check_delta, simulate_sensitivity, summarize_simulation
from .sliced_distance import SwdConfig, dp_swd, smoothed_swd, swd

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
    (MemoryError, EXIT_DATA),
    (argparse.ArgumentTypeError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)


def _parse_seed(text: str) -> int:
    """A 0x or 0X prefix means hex, anything else decimal (so 010 is ten)."""
    try:
        value = int(text, 16 if text.strip().lstrip("+-")[:2] in ("0x", "0X") else 10)
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


def _parse_normalize(text: str) -> float | None:
    """The clip radius C of 'clip:C', or None for 'max' (max-norm)."""
    if text == "max":
        return None
    if text.startswith("clip:"):
        try:
            radius = float(text.split(":", 1)[1])
        except ValueError:
            radius = math.nan
        if not 0 < radius <= MAX_CLIP:
            raise argparse.ArgumentTypeError(f"bad clip radius in {text!r}: C must be finite and > 0, "
                                             "with 2C finite")
        return radius
    raise argparse.ArgumentTypeError(f"normalize must be 'max' or 'clip:C', got {text!r}")


def _input_loader(args) -> Callable[[str, str], tuple[EmpiricalMeasure, EmpiricalMeasure]]:
    """Load-and-normalize for the two CSVs; its usage errors are raised here, before any read."""
    if args.sigma > 0 and args.normalize is None:
        raise argparse.ArgumentTypeError(
            "--sigma > 0 requires --normalize: the private mechanism assumes "
            "privacy-normalized inputs (row norms <= 1/2)"
        )
    prepare = None
    if args.normalize is not None:
        prepare = functools.partial(normalize_for_privacy, clip=_parse_normalize(args.normalize))
    return functools.partial(load_csv_pair, has_header=args.header, prepare=prepare)


def _require_counts(args, *names) -> None:
    """Refuse a count option below 1 as a usage error."""
    for name in names:
        _check_count(f"--{name}", getattr(args, name), 1)


def _output_dir(path: str) -> Path:
    """Create --out once the arguments are valid, so a bad one fails before any work."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(args, started: float) -> dict:
    """Run record: every parsed parameter except the seed (its own field)."""
    params = {name: value for name, value in vars(args).items()
              if name not in ("func", "subcommand", "seed")}
    return {
        "subcommand": args.subcommand,
        "params": params,
        "seed": args.seed,
        "version": __version__,
        "duration_s": round(time.perf_counter() - started, 6),
    }


def _emit(payload: dict) -> None:
    # encoded whole first, so a refused NaN or infinity leaves stdout empty
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_compute(args) -> dict:
    cfg = SwdConfig(k=args.k, q=args.q, seed=args.seed, sigma=args.sigma)
    load = _input_loader(args)
    a, b = load(args.a, args.b)
    if args.sigma > 0:
        result = dp_swd(a, b, cfg)
    else:
        result = swd(a, b, cfg)
    if not math.isfinite(result.value):
        raise DataError(f"the distance is not finite ({result.value}): float64 overflow")
    return {
        "value": result.value,
        "distance": result.distance,
        "per_projection": [float(v) for v in result.per_projection],
        "config": {"k": cfg.k, "q": cfg.q, "sigma": cfg.sigma, "seed": cfg.seed},
    }


def cmd_sensitivity(args) -> dict:
    check_delta(args.delta)
    _require_counts(args, "d", "k", "trials")
    out = _output_dir(args.out)
    samples = simulate_sensitivity(args.d, args.k, args.trials, args.seed)
    write_csv_rows(out / "sensitivity_samples.csv", enumerate(samples.tolist()),
                   header=["trial", "h"])
    return summarize_simulation(samples, args.k, args.d, args.delta)


def _toy_sweep(args, grid: list[float], cfg: SwdConfig) -> tuple[np.ndarray, np.ndarray]:
    """Plain and smoothed SWD per (repeat, shift): each repeat draws its own pair of clouds."""
    values_plain = np.empty((args.repeats, len(grid)))
    values_noised = np.empty((args.repeats, len(grid)))
    for r in range(args.repeats):
        data_rng = substream(args.seed, PURPOSE_DATA, r)
        base_source = data_rng.standard_normal((args.n, args.d))
        base_target = data_rng.standard_normal((args.n, args.d))
        noised = replace(cfg, seed=derive_seed(args.seed, r))
        plain = replace(noised, sigma=0.0)
        source = EmpiricalMeasure(base_source)
        for ci, c in enumerate(grid):
            target = EmpiricalMeasure(base_target + c)
            values_plain[r, ci] = swd(source, target, plain).value
            values_noised[r, ci] = smoothed_swd(source, target, noised).value
    return values_plain, values_noised


def cmd_toy(args) -> dict:
    _require_counts(args, "n", "d", "repeats")
    grid = _parse_grid(args.grid)
    cfg = SwdConfig(k=args.k, q=2.0, seed=args.seed, sigma=args.sigma)
    out = _output_dir(args.out) if args.out else None
    values_plain, values_noised = _toy_sweep(args, grid, cfg)
    for flag, values in (("--grid", values_plain), ("--sigma", values_noised)):
        if not np.isfinite(values).all():
            raise ValueError(f"the estimate is not finite (float64 overflow): reduce {flag}")
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
    if out:
        columns = ["c", "swd_mean", "swd_std", "dpswd_mean", "dpswd_std"]
        write_csv_rows(out / "toy.csv", ([row[k] for k in columns] for row in rows), header=columns)
    return {"rows": rows}


def cmd_calibrate(args) -> dict:
    _require_counts(args, "n", "epochs", "batch")
    steps = args.epochs * (args.n // args.batch)
    if steps < 1:
        raise DataError(f"schedule has no steps: epochs={args.epochs}, n={args.n}, batch={args.batch}")
    gamma = args.batch / args.n
    budget = PrivacyBudget(
        eps_target=args.eps,
        delta_target=args.delta,
        steps=steps,
        sampling_rate=1.0 if args.amplification == "none" else gamma,
        delta_split=args.delta_split,
    )
    result = calibrate_sigma(budget, budget.tail_bound(args.bound, args.k, args.dim))
    return {
        "sigma": result.sigma,
        "eps_achieved": result.eps_achieved,
        "best_order": result.best_order,
        "w": result.sensitivity.w,
        "bound_kind": result.sensitivity.kind,
        "steps": steps,
        "gamma": gamma,
        "delta_split": args.delta_split,
        "amplification": args.amplification,
    }


def _write_trace(out: Path, trace) -> None:
    write_csv_rows(
        out / "trace.csv",
        zip(trace.iterations.tolist(), trace.losses.tolist(), trace.grad_norms.tolist()),
        header=["iteration", "loss", "grad_norm"],
    )


def cmd_flow(args) -> dict:
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
    load = _input_loader(args)
    out = _output_dir(args.out)
    source, target = load(args.source, args.target)
    try:
        trace = run_flow(source, target, cfg)
    except FlowDiverged as exc:
        _write_trace(out, exc.trace)
        raise
    _write_trace(out, trace)
    save_csv(EmpiricalMeasure(trace.final_points), out / "particles.csv")
    privacy = trace.privacy
    return {
        "final_loss": float(trace.losses[-1]),
        "final_grad_norm": float(trace.grad_norms[-1]),
        "logged_steps": int(trace.iterations.size),
        "eps": privacy.eps_achieved if privacy else None,
        "delta": cfg.delta if privacy else None,
        "best_order": privacy.best_order if privacy else None,
        "sensitivity_w": privacy.sensitivity.w if privacy else None,
    }


@functools.cache  # built by the first main call, then shared by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpswd",
        description="Differentially private sliced Wasserstein distance experiments",
    )
    parser.add_argument("--version", action="version", version=f"dpswd {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_parse_seed, default=0, help="decimal or 0x-hex master seed")
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
        "--amplification", choices=["subsample", "none"], default="subsample",
        help="subsampling bound: without-replacement (default), or none (sampling rate 1)",
    )
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
    error = None
    # recorded, so each distinct warning reaches stderr once and without the
    # source location it was raised at; "always" also keeps an error filter
    # of the process (python -W error) from raising one out of main
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            started = time.perf_counter()
            payload = args.func(args)
            _emit({**payload, "manifest": _manifest(args, started)})
            code = EXIT_OK
        except tuple(exc_type for exc_type, _ in _EXIT_CODES) as exc:
            error = exc
            code = next(exit_code for exc_type, exit_code in _EXIT_CODES
                        if isinstance(exc, exc_type))
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:  # a bare MemoryError has no message: name the type
        print(f"error: {str(error) or type(error).__name__}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
