"""Monte-Carlo sliced Wasserstein estimators, plain, smoothed, and private.

The estimator draws k uniform directions, projects both point clouds, and
averages exact 1-D W_q^q costs across projections. The private variant
adds i.i.d. N(0, sigma^2) noise to every projected coordinate. Each call
makes one release, (U, noised unsorted projections): the k directions, and
each side projected once into a (k, n) layout and noised row by row. These
are the only values derived from the private data that cross the privacy
boundary. Sorting (by wasserstein1d's one rule), the 1-D costs (one
per_row_costs call for all k rows), the value, the source gradient and a
particle-flow step are all post-processing of that one release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import DataError, EmpiricalMeasure, check_privacy_normalized
from .randomness import (
    PURPOSE_NOISE_SOURCE,
    PURPOSE_NOISE_TARGET,
    Seed,
    sample_gaussian_matrix,
    sample_sphere,
)
from .sensitivity import _check_count
from .wasserstein1d import _sort_rows, _sorted_side, per_row_costs


@dataclass(frozen=True)
class SwdConfig:
    """Estimator configuration: projection count, order, seeds, noise level.

    Directions are drawn from ``seed``; noise is drawn from ``noise_seed``,
    which defaults to ``seed``. With sigma > 0 both sides' projections are
    noised, so the estimate is the smoothed distance SW(a*N, b*N), zero at
    a = b.
    """

    k: int = 100
    q: float = 2.0
    seed: Seed = 0
    sigma: float = 0.0
    noise_seed: Seed | None = None

    def __post_init__(self):
        _check_count("k", self.k, 1)
        if not 1 <= self.q < math.inf:
            raise ValueError(f"q must be finite and >= 1, got {self.q}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        _check_count("seed", self.seed, -math.inf)  # any integer: taken mod 2**64
        if self.noise_seed is not None:
            _check_count("noise_seed", self.noise_seed, -math.inf)


@dataclass(frozen=True)
class SwdResult:
    """Estimate (the q-th power of the distance) with per-projection terms."""

    value: float
    per_projection: np.ndarray = field(repr=False)
    config: SwdConfig

    @property
    def distance(self) -> float:
        return self.value ** (1.0 / self.config.q)


def _release(a: EmpiricalMeasure, b: EmpiricalMeasure, cfg: SwdConfig) -> tuple:
    """The release (U, noised source rows, noised target rows); sorting is post-processing.

    U is (d, k), one fresh direction per column; the rows are each side's
    noised (k, n) and (k, m) projections, unsorted. For the private side this
    is the one point where raw coordinates are read. Noise row j depends only
    on (noise seed, purpose, j, n), so it is prefix-stable in k.
    """
    if a.dim != b.dim:
        raise DataError(f"dimension mismatch: {a.dim} vs {b.dim}")
    directions = sample_sphere(a.dim, cfg.k, cfg.seed)
    noise_seed = cfg.seed if cfg.noise_seed is None else cfg.noise_seed
    proj_a = directions.T @ a.points.T
    proj_b = directions.T @ b.points.T
    if cfg.sigma > 0:
        proj_a += sample_gaussian_matrix(cfg.k, a.n, cfg.sigma, noise_seed, PURPOSE_NOISE_SOURCE)
        proj_b += sample_gaussian_matrix(cfg.k, b.n, cfg.sigma, noise_seed, PURPOSE_NOISE_TARGET)
    return directions, proj_a, proj_b


def smoothed_swd(a: EmpiricalMeasure, b: EmpiricalMeasure, cfg: SwdConfig) -> SwdResult:
    """Sliced W_q^q between Gaussian-noised projections (no privacy preconditions).

    With sigma=0 this is the plain Monte-Carlo SWD estimator. The same seed
    always reproduces the same directions and noise.
    """
    _, proj_a, proj_b = _release(a, b, cfg)
    costs = per_row_costs(*_sorted_side(proj_a, a), *_sorted_side(proj_b, b), cfg.q)
    return SwdResult(value=float(np.mean(costs)), per_projection=costs, config=cfg)


def swd(a: EmpiricalMeasure, b: EmpiricalMeasure, cfg: SwdConfig) -> SwdResult:
    """Plain sliced Wasserstein estimator; requires a noise-free config."""
    if cfg.sigma != 0.0:
        raise ValueError("swd expects sigma=0; use dp_swd or smoothed_swd for sigma>0")
    return smoothed_swd(a, b, cfg)


def dp_swd(a_public: EmpiricalMeasure, b_private: EmpiricalMeasure, cfg: SwdConfig) -> SwdResult:
    """Differentially private sliced distance on privacy-normalized inputs.

    Both sides must satisfy the unit-sensitivity precondition (all row
    norms <= 1/2, as produced by normalize_for_privacy); sigma must be
    positive. The private side must have uniform weights: only its
    coordinates are noised, so its weights would reach the costs unnoised.
    It is consumed into noised projections before any distance code runs.
    """
    if cfg.sigma <= 0:
        raise ValueError("dp_swd requires sigma > 0")
    if not b_private.is_uniform():
        raise ValueError("uniform weights required on the private side")
    check_privacy_normalized(a_public)
    check_privacy_normalized(b_private)
    return smoothed_swd(a_public, b_private, cfg)


def value_and_gradient(
    a: EmpiricalMeasure, b: EmpiricalMeasure, cfg: SwdConfig
) -> tuple[float, np.ndarray]:
    """Consistent (loss, gradient) pair, both post-processing of one release.

    The loss is smoothed_swd's value at the same config. The gradient is
    that of the fixed-projection q=2 estimator w.r.t. the source points:
    for each projection the optimal coupling sorts both samples, so the
    estimator is a mean of squared differences, whose derivative in source
    point x_i is (2/(k n)) * sum_j u_j (a_ij - b_matched). At sorting ties
    this is a subgradient (stable-sort pairing).
    """
    if cfg.q != 2.0:
        raise ValueError("gradient is defined for q=2 only")
    if b.n != a.n:
        raise DataError(f"equal sample counts required, got {a.n} and {b.n}")
    if not (a.is_uniform() and b.is_uniform()):
        raise ValueError("uniform weights required for the source gradient")
    directions, source, target = _release(a, b, cfg)
    source, order = _sort_rows(source)  # the order scatters the gradient back
    target.sort(axis=1)
    loss = float(np.mean(per_row_costs(source, None, target, None, cfg.q)))
    diffs = np.subtract(source, target, out=source)
    del target
    # scatter sorted differences back to source-row positions, then one matmul
    by_row = np.empty_like(diffs)
    np.put_along_axis(by_row, order, diffs, axis=1)
    del diffs, source, order
    by_row *= 2.0 / (cfg.k * a.n)
    return loss, by_row.T @ directions.T
