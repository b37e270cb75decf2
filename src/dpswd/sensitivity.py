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
(1 - t^2)^c with c = (d-3)/2. For d >= 4 it proposes t ~ N(0, 1/(d-3)) and
rejects x with probability q(x) = 1 - exp(c (log1p(-x) + x)): the target
over the proposal is exp(c (log(1 - t^2) + t^2)) <= 1, so this is rejection
sampling under a Gaussian envelope (acceptance 63% at d = 4, 99.9% at
d = 784). The decision thins the rare rejections (Lewis & Shedler 1979;
Devroye 1986): at d = 784, 99.2% of the proposals are small enough that
q(x) <= _THIN, and of those only the slots in a uniformly random
Binomial(n, _THIN) share draw a uniform; each larger proposal draws its
own. For d = 2, 3 there is no such envelope (c <= 0), and a term is
g^2 / (g^2 + Q) with g standard normal and Q chi-square with d - 1
degrees of freedom. Every draw comes
from SFC64 Monte Carlo streams (randomness.monte_carlo_stream), not from
the Philox streams of private releases: the simulated quantities are
public. Trials are filled in blocks of about _BLOCK_TERMS terms into one
float64 (rows x k) scratch array that each worker thread allocates once
and reuses for every block it fills.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .randomness import PURPOSE_SENSITIVITY, Seed, inverse_normal_cdf, monte_carlo_stream

# Trials per stream. Part of the seeded sample's definition, and the unit of
# work that simulate_sensitivity hands to one thread.
_TRIAL_CHUNK = 1024
# Terms drawn at a time within a chunk: a block has min(_TRIAL_CHUNK,
# max(1, _BLOCK_TERMS // k)) rows, so small k does not pay Python's per-block
# overhead on tiny blocks. Also part of the sample's definition, since a
# block's redraws come from the generator before the next block.
_BLOCK_TERMS = 2**17
# Thinning rate of the envelope's acceptance step: a proposal whose
# rejection probability is at most this is examined only if its slot is
# among a random share this large of the slots. Part of the sample's
# definition too.
_THIN = 1 / 64


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
    delta is the probability that w fails over one draw of the directions
    (nan for "fixed", which cannot fail).
    """

    w: float
    kind: str
    delta: float = float("nan")

    def __post_init__(self):
        if not 0 < self.w < math.inf:
            raise ValueError(f"sensitivity bound w must be finite and positive, got {self.w}")


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
    return SensitivityBound(w=w, kind="bernstein", delta=delta)


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
    # z_{1-delta} = -Phi^{-1}(delta) by symmetry; 1 - delta rounds to 1.0 below about 1.1e-16
    z = -inverse_normal_cdf(delta)
    w = k / d + (z / d) * math.sqrt(2.0 * k * (d - 1) / (d + 2))
    return SensitivityBound(w=w, kind="clt", delta=delta)


# The probabilistic bounds by kind: each holds with probability >= 1 - delta
# over one draw of the k directions.
TAIL_BOUNDS = {"bernstein": bernstein_bound, "clt": clt_bound}


def check_bound_kind(kind: str) -> None:
    """Refuse a kind that names no bound in TAIL_BOUNDS."""
    if kind not in TAIL_BOUNDS:
        raise ValueError(f"bound_kind must be one of {tuple(TAIL_BOUNDS)}, got {kind!r}")


def check_delta(delta: float) -> None:
    """Refuse a failure probability outside (0, 1), nan included."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _check_count(name: str, value: int, minimum: int) -> None:
    """Refuse a count that is not an integer (numpy's included, bool not) >= minimum.

    A count (a finite minimum) must also lie within float64's range, since
    the bounds and the schedule compute with it as a float; a seed (minimum
    -inf) may be any integer.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if minimum > -math.inf and value > sys.float_info.max:
        raise ValueError(f"{name} must be at most {sys.float_info.max:.6g}, float64's largest "
                         f"value, got about 10^{math.log10(value):.1f}")


def _check_bound_args(k: int, d: int, delta: float) -> None:
    _check_count("k", k, 1)
    _check_count("d", d, 2)
    check_delta(delta)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ratio_terms(rng: np.random.Generator, d: int, terms: np.ndarray) -> np.ndarray:
    """Beta(1/2, (d-1)/2) terms as g^2 / (g^2 + Q), Q ~ chi-square(d-1); any d >= 2.

    Fills and returns terms.
    """
    ratio = rng.standard_normal(out=terms)
    np.square(ratio, out=ratio)
    total = rng.chisquare(d - 1, size=ratio.shape)
    total += ratio
    return np.divide(ratio, total, out=ratio)


def _rejection_probability(x: np.ndarray, c: float) -> np.ndarray:
    """q(x) = 1 - exp(c (log1p(-x) + x)), the envelope's rejection law; 1 for x >= 1."""
    # x >= 1 lies outside the target's support: log1p(-min(x, 1)) = -inf gives q = 1
    with np.errstate(divide="ignore"):
        return -np.expm1(c * (np.log1p(-np.minimum(x, 1.0)) + x))


def _small_limit(c: float) -> float:
    """x_small = (sqrt(t^2 + 2 c t) - t) / c, t = _THIN: the root of c x^2 / (2 (1 - x)) = t.

    log1p(-x) + x >= -x^2 / (2 (1 - x)) on [0, 1), so q(x) <= c x^2 / (2 (1 - x))
    and no proposal at or below x_small is rejected with probability above _THIN.
    """
    return (math.sqrt(_THIN * _THIN + 2.0 * c * _THIN) - _THIN) / c


def _rejections(rng: np.random.Generator, x: np.ndarray, c: float, x_small: float) -> np.ndarray:
    """Ascending slots of the proposals x (1-D) that are rejected, each with probability q(x).

    A proposal above x_small draws U and is rejected iff U < q(x). Below it,
    q(x) <= _THIN, so only a uniformly random subset of Binomial(n, _THIN)
    slots is examined, and a marked slot is rejected iff _THIN * U < q(x):
    probability _THIN * q(x) / _THIN. Draws: the mark count, the marks
    (rng.choice without replacement or shuffle), then one uniform per large
    slot in slot order and one per marked small slot in mark order.
    """
    large = np.flatnonzero(x > x_small)
    marks = rng.choice(x.size, rng.binomial(x.size, _THIN), replace=False, shuffle=False)
    marks = marks[x[marks] <= x_small]
    slots = np.concatenate((large, marks))
    u = rng.random(slots.size)
    u[large.size:] *= _THIN
    return np.sort(slots[u < _rejection_probability(x[slots], c)])


def _propose(rng: np.random.Generator, d: int, x: np.ndarray) -> np.ndarray:
    """Fill x with proposals t^2 = g^2 / (d - 3), g standard normal; returns x."""
    rng.standard_normal(out=x)
    np.square(x, out=x)
    x /= d - 3
    return x


def _envelope_terms(rng: np.random.Generator, d: int, terms: np.ndarray) -> np.ndarray:
    """Beta(1/2, (d-1)/2) terms by Gaussian-envelope rejection; d >= 4.

    Proposes every slot of the block into terms (a C-contiguous float64
    array), then redraws the rejected slots, in row-major order, until none
    is left. Returns terms.
    """
    c = (d - 3) / 2
    x_small = _small_limit(c)
    flat = terms.reshape(-1)
    slots = _rejections(rng, _propose(rng, d, flat), c, x_small)
    while slots.size:
        # redraw rounds are a small share of the block and allocate their own
        x = _propose(rng, d, np.empty(slots.size))
        again = _rejections(rng, x, c, x_small)
        kept = np.ones(slots.size, dtype=bool)
        kept[again] = False
        flat[slots[kept]] = x[kept]
        slots = slots[again]
    return terms


def simulate_sensitivity(d: int, k: int, trials: int, seed: Seed) -> np.ndarray:
    """Monte-Carlo sample of H = ||z^T U||^2 for a fixed unit z, U uniform.

    By rotation invariance z is taken as the first basis vector, so each
    projection contributes the square of one coordinate of a uniform unit
    vector, a Beta(1/2, (d-1)/2) term. For d >= 4 it is drawn exactly by
    rejection under a Gaussian envelope: a proposal x = t^2, t ~ N(0,
    1/(d-3)), is rejected with probability q(x) = 1 - exp(c (log1p(-x) + x)),
    c = (d-3)/2: one minus the target density (1 - t^2)^c over the
    proposal's, scaled to peak at 1. The decision thins at _THIN (see _rejections), so a slot
    draws a uniform only if its proposal is large or it is marked. For
    d = 2, 3 a term is g^2 / (g^2 + Q), Q ~ chi-square(d-1); for d = 1 it
    is 1. Trials are generated in chunks of _TRIAL_CHUNK, chunk i from its
    own Monte Carlo stream i (SFC64) and filled min(_TRIAL_CHUNK,
    max(1, _BLOCK_TERMS // k)) rows at a time, so the sample depends only on
    (seed, d, k, trials). The chunks run concurrently on up to one thread
    per usable CPU (numpy releases the GIL inside its fills); each writes
    only its own slice, so the CPU count never changes the sample. A thread
    draws every block of its chunks into one (rows, k) float64 scratch
    array, allocated at its first chunk; a partial block uses the leading
    rows. Held for the whole call, the scratch goes back to the system when
    the call ends; scratch allocated per chunk would stay resident in
    glibc's per-thread arenas.
    d, k and trials must be integers (numpy's included); anything else is
    a ValueError.
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
    rngs = [monte_carlo_stream(seed, PURPOSE_SENSITIVITY, i) for i in range(len(starts))]
    block = min(_TRIAL_CHUNK, max(1, _BLOCK_TERMS // k))
    per_thread = threading.local()

    def fill(start: int, rng: np.random.Generator) -> None:
        if not hasattr(per_thread, "scratch"):  # this worker thread's first chunk
            per_thread.scratch = np.empty((block, k))
        stop = min(start + _TRIAL_CHUNK, trials)
        for lo in range(start, stop, block):
            rows = min(block, stop - lo)  # a partial block uses the leading rows
            # the terms are the scratch, so they are summed before the next block
            out[lo:lo + rows] = draw_terms(rng, d, per_thread.scratch[:rows]).sum(axis=1)

    with ThreadPoolExecutor(max_workers=min(len(rngs), _usable_cpus())) as pool:
        list(pool.map(fill, starts, rngs))  # reading each result re-raises a worker's error
    return out


# The failure levels every simulation summary reports besides the requested one.
SUMMARY_DELTAS = (0.1, 0.05, 0.01)


def summarize_simulation(samples: np.ndarray, k: int, d: int, delta: float) -> dict:
    """What `dpswd sensitivity` prints: the samples' law next to the bounds, at delta and SUMMARY_DELTAS."""
    samples = np.asarray(samples, dtype=float)
    deltas = (*SUMMARY_DELTAS, delta)
    quantiles = np.quantile(samples, [1.0 - x for x in deltas])
    # the analytic bounds assume d >= 2 (at d=1 the sum is exactly k)
    *levels, requested = [{"delta": x, "empirical_quantile": float(quantile),
                           **{kind: bound(k, d, x).w if d >= 2 else None for kind, bound in TAIL_BOUNDS.items()}}
                          for x, quantile in zip(deltas, quantiles)]
    return {"empirical_mean": float(samples.mean()), "expected_mean": k / d,
            "requested": requested, "levels": levels}
