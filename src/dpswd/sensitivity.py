"""Sensitivity of projecting one record onto k random unit directions.

For neighboring datasets whose differing rows are at most 1 apart in l2,
the squared sensitivity of X -> X U is H = sum_j (z^T u_j)^2 where z is a
unit vector and u_j are uniform sphere directions. Each term is
Beta(1/2, (d-1)/2) distributed, which yields two high-probability bounds
w(k, delta) on H: a rigorous Bernstein bound and a tighter but approximate
central-limit bound. The Monte-Carlo simulation here reproduces the
histogram-versus-bounds picture used to compare them.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .randomness import PURPOSE_SENSITIVITY, Seed, inverse_normal_cdf, substream

# Trials per substream. Part of the seeded sample's definition, and the unit of
# work that simulate_sensitivity hands to one thread.
_TRIAL_CHUNK = 1024


@dataclass(frozen=True)
class BetaMoments:
    """Mean and variance of a single squared projection (z^T u)^2."""

    mean: float
    variance: float


@dataclass(frozen=True)
class SensitivityBound:
    """High-probability bound w on the squared sensitivity ||XU - X'U||_F^2.

    kind records which bound produced w: "bernstein" (rigorous), "clt"
    (tighter, approximate), or "fixed" for a caller-supplied constant.
    """

    w: float
    kind: str
    k: int = 0
    d: int = 0
    delta: float = float("nan")

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError(f"sensitivity bound must be positive, got {self.w}")


def fixed_sensitivity(w: float) -> SensitivityBound:
    """Wrap a known squared sensitivity (e.g. 1.0) as a bound object."""
    return SensitivityBound(w=float(w), kind="fixed")


def beta_moments(d: int) -> BetaMoments:
    """Exact moments of Beta(1/2, (d-1)/2): mean 1/d, variance 2(d-1)/(d^2(d+2))."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return BetaMoments(mean=1.0 / d, variance=2.0 * (d - 1) / (d * d * (d + 2)))


def bernstein_bound(k: int, d: int, delta: float) -> SensitivityBound:
    """Bernstein tail bound: k/d + (2/3)ln(1/delta) + (2/d)sqrt(k (d-1)/(d+2) ln(1/delta))."""
    _check_bound_args(k, d, delta)
    log_term = math.log(1.0 / delta)
    w = k / d + (2.0 / 3.0) * log_term + (2.0 / d) * math.sqrt(k * (d - 1) / (d + 2) * log_term)
    return SensitivityBound(w=w, kind="bernstein", k=k, d=d, delta=delta)


def clt_bound(k: int, d: int, delta: float) -> SensitivityBound:
    """Normal-approximation bound: k/d + (z_{1-delta}/d) sqrt(2k(d-1)/(d+2)).

    Tighter than Bernstein in the usual regimes but not rigorous: it treats
    the sum of k Beta variables as exactly normal, so for finite k the true
    upper quantile can slightly exceed it. Warns below the k > 30 rule of
    thumb.
    """
    _check_bound_args(k, d, delta)
    if k < 30:
        warnings.warn(
            f"clt_bound with k={k} < 30: the normal approximation is unreliable",
            stacklevel=2,
        )
    z = inverse_normal_cdf(1.0 - delta)
    w = k / d + (z / d) * math.sqrt(2.0 * k * (d - 1) / (d + 2))
    return SensitivityBound(w=w, kind="clt", k=k, d=d, delta=delta)


# The probabilistic bounds by kind: each holds with probability >= 1 - delta
# over one draw of the k directions.
TAIL_BOUNDS = {"bernstein": bernstein_bound, "clt": clt_bound}


def check_delta(delta: float) -> None:
    """Refuse a failure probability outside (0, 1), nan included."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _check_bound_args(k: int, d: int, delta: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    check_delta(delta)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_sensitivity(d: int, k: int, trials: int, seed: Seed) -> np.ndarray:
    """Monte-Carlo sample of H = ||z^T U||^2 for a fixed unit z, U uniform.

    By rotation invariance z is taken as the first basis vector, so each
    projection contributes g1^2 / (g1^2 + Q) with g1 standard normal and Q
    an independent chi-square with d-1 degrees of freedom (the squared norm
    of the remaining coordinates). Trials are generated in chunks of
    _TRIAL_CHUNK, chunk i from its own substream i, so the sample depends
    only on (seed, d, k, trials). The chunks run concurrently on up to one
    thread per usable CPU (numpy releases the GIL inside its fills); each
    writes only its own slice, so the CPU count never changes the sample.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if k < 1 or d < 1:
        raise ValueError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    if d == 1:
        # every projection is +-1, so each squared projection is exactly 1
        return np.full(trials, float(k))
    out = np.empty(trials)
    starts = range(0, trials, _TRIAL_CHUNK)
    # built on the calling thread, so every dpswd call stays here and the
    # workers run numpy only
    rngs = [substream(seed, PURPOSE_SENSITIVITY, i) for i in range(len(starts))]

    def fill(start: int, rng: np.random.Generator) -> None:
        stop = min(start + _TRIAL_CHUNK, trials)
        # in place: g1^2 / (g1^2 + Q) with two (chunk x k) arrays
        ratio = rng.standard_normal((stop - start, k))
        np.square(ratio, out=ratio)
        total = rng.chisquare(d - 1, size=(stop - start, k))
        total += ratio
        np.divide(ratio, total, out=ratio)
        out[start:stop] = ratio.sum(axis=1)

    with ThreadPoolExecutor(max_workers=min(len(rngs), _usable_cpus())) as pool:
        list(pool.map(fill, starts, rngs))  # reading each result re-raises a worker's error
    return out


def summarize_simulation(
    samples: np.ndarray, k: int, d: int, deltas: tuple[float, ...] = (0.1, 0.05, 0.01)
) -> dict:
    """Summary statistics next to the analytic bounds, per failure level."""
    samples = np.asarray(samples, dtype=float)
    summary = {
        "trials": int(samples.size),
        "k": k,
        "d": d,
        "empirical_mean": float(samples.mean()),
        "expected_mean": k / d,
        "levels": [],
    }
    for delta in deltas:
        level = {
            "delta": delta,
            "empirical_quantile": float(np.quantile(samples, 1.0 - delta)),
            # the analytic bounds assume d >= 2 (at d=1 the sum is exactly k)
            **{kind: bound(k, d, delta).w if d >= 2 else None for kind, bound in TAIL_BOUNDS.items()},
        }
        summary["levels"].append(level)
    return summary
