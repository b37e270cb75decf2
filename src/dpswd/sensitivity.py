"""Sensitivity of projecting one record onto k random unit directions.

For neighboring datasets whose differing rows are at most 1 apart in l2,
the squared sensitivity of X -> X U is H = sum_j (z^T u_j)^2 where z is a
unit vector and u_j are uniform sphere directions. Each term is
Beta(1/2, (d-1)/2) distributed, which yields two high-probability bounds
w(k, delta) on H: a rigorous Bernstein bound and a tighter but approximate
central-limit bound. The Monte-Carlo simulation here reproduces the
histogram-versus-bounds picture used to compare them.

The simulation draws each Beta term exactly, as the square x = t^2 of one
coordinate t of a uniform unit vector, whose density is proportional to
(1 - t^2)^c with c = (d-3)/2. For d >= 4 it proposes t ~ N(0, 1/(d-3))
and accepts iff E >= -c (log1p(-x) + x) with E ~ Exp(1): the target over
the proposal is exp(c (log(1 - t^2) + t^2)) <= 1, so this is rejection
sampling under a Gaussian envelope (acceptance 63% at d = 4, 99.9% at
d = 784). For d = 2, 3 there is no such envelope (c <= 0), and a term is
g^2 / (g^2 + Q) with g standard normal and Q chi-square with d - 1 degrees
of freedom. Trials are filled in blocks of _ROW_BLOCK rows, so a thread's
scratch is a few (_ROW_BLOCK x k) arrays: three float64 ones and their masks.
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
# Trials drawn at a time within a chunk; also part of the sample's definition,
# since a block's redraws come from the generator before the next block.
_ROW_BLOCK = 128

_BELOW_ONE = np.nextafter(1.0, 0.0)


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
    _check_count("d", d, 2)
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


def _check_count(name: str, value: int, minimum: int) -> None:
    """Refuse a count that is not an integer (numpy's included, bool not) >= minimum."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_bound_args(k: int, d: int, delta: float) -> None:
    _check_count("k", k, 1)
    _check_count("d", d, 2)
    check_delta(delta)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ratio_terms(rng: np.random.Generator, shape: tuple[int, int], d: int) -> np.ndarray:
    """Beta(1/2, (d-1)/2) terms as g^2 / (g^2 + Q), Q ~ chi-square(d-1); any d >= 2."""
    ratio = rng.standard_normal(shape)
    np.square(ratio, out=ratio)
    total = rng.chisquare(d - 1, size=shape)
    total += ratio
    return np.divide(ratio, total, out=ratio)


def _envelope_terms(rng: np.random.Generator, shape: tuple[int, int], d: int) -> np.ndarray:
    """Beta(1/2, (d-1)/2) terms by Gaussian-envelope rejection; d >= 4.

    Draws every proposal and exponential of the block, then redraws the
    rejected slots, in row-major order, until none is left.
    """
    c = (d - 3) / 2

    def propose(size):
        x = rng.standard_normal(size)
        np.square(x, out=x)
        x /= d - 3
        e = rng.standard_exponential(size)
        # -c (log1p(-x) + x) with x clamped below 1, so log1p stays finite;
        # x >= 1 lies outside the target's support and is always rejected
        threshold = np.minimum(x, _BELOW_ONE)
        np.negative(threshold, out=threshold)
        np.log1p(threshold, out=threshold)
        threshold += x
        threshold *= -c
        return x, (e < threshold) | (x >= 1.0)

    terms, rejected = propose(shape)
    slots = np.flatnonzero(rejected)
    while slots.size:
        x, rejected = propose(slots.size)
        terms.flat[slots[~rejected]] = x[~rejected]
        slots = slots[rejected]
    return terms


def simulate_sensitivity(d: int, k: int, trials: int, seed: Seed) -> np.ndarray:
    """Monte-Carlo sample of H = ||z^T U||^2 for a fixed unit z, U uniform.

    By rotation invariance z is taken as the first basis vector, so each
    projection contributes the square of one coordinate of a uniform unit
    vector, a Beta(1/2, (d-1)/2) term. For d >= 4 it is drawn exactly by
    rejection under a Gaussian envelope: t ~ N(0, 1/(d-3)) is kept iff
    E >= -c (log1p(-t^2) + t^2), E ~ Exp(1), c = (d-3)/2, which is the
    log of the target density (1 - t^2)^c over the proposal's. For d = 2, 3
    a term is g^2 / (g^2 + Q), Q ~ chi-square(d-1); for d = 1 it is 1.
    Trials are generated in chunks of _TRIAL_CHUNK, chunk i from its own
    substream i and filled _ROW_BLOCK rows at a time, so the sample depends
    only on (seed, d, k, trials); seeded samples differ from those of
    0.5.1. The chunks run concurrently on up to one thread per usable CPU
    (numpy releases the GIL inside its fills); each writes only its own
    slice, so the CPU count never changes the sample. d, k and trials must
    be integers (numpy's included); anything else is a ValueError.
    """
    _check_count("trials", trials, 1)
    _check_count("k", k, 1)
    _check_count("d", d, 1)
    if d == 1:
        # every projection is +-1, so each squared projection is exactly 1
        return np.full(trials, float(k))
    draw_terms = _envelope_terms if d >= 4 else _ratio_terms
    out = np.empty(trials)
    starts = range(0, trials, _TRIAL_CHUNK)
    # built on the calling thread, so every dpswd call stays here and the
    # workers run numpy only
    rngs = [substream(seed, PURPOSE_SENSITIVITY, i) for i in range(len(starts))]

    def fill(start: int, rng: np.random.Generator) -> None:
        stop = min(start + _TRIAL_CHUNK, trials)
        for lo in range(start, stop, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, stop)
            out[lo:hi] = draw_terms(rng, (hi - lo, k), d).sum(axis=1)

    with ThreadPoolExecutor(max_workers=min(len(rngs), _usable_cpus())) as pool:
        list(pool.map(fill, starts, rngs))  # reading each result re-raises a worker's error
    return out


# The failure levels a simulation summary reports by default.
SUMMARY_DELTAS = (0.1, 0.05, 0.01)


def summarize_simulation(
    samples: np.ndarray, k: int, d: int, deltas: tuple[float, ...] = SUMMARY_DELTAS
) -> dict:
    """Summary statistics next to the analytic bounds, per failure level."""
    samples = np.asarray(samples, dtype=float)
    quantiles = np.quantile(samples, [1.0 - delta for delta in deltas])
    summary = {
        "trials": int(samples.size),
        "k": k,
        "d": d,
        "empirical_mean": float(samples.mean()),
        "expected_mean": k / d,
        "levels": [],
    }
    for delta, quantile in zip(deltas, quantiles):
        level = {
            "delta": delta,
            "empirical_quantile": float(quantile),
            # the analytic bounds assume d >= 2 (at d=1 the sum is exactly k)
            **{kind: bound(k, d, delta).w if d >= 2 else None for kind, bound in TAIL_BOUNDS.items()},
        }
        summary["levels"].append(level)
    return summary
