"""Particle descent matching a private target under the sliced loss.

A desk-scale analog of the distribution-matching objectives: the
"generator" is the particle cloud itself, updated by gradient descent on
the (optionally noised) sliced distance against a fixed target. Each step
makes one release of the target's noised projections and noises the
source's alike, so the loss is the smoothed distance, minimized at the
target itself; the loss and the gradient are both computed from that one
release. Every step draws fresh directions and, when sigma > 0, fresh
noise. The privacy cost of the whole schedule, accounted once up front for
a privacy-normalized target, charges the sensitivity tail at every
direction draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .accountant import CalibrationResult, Schedule, account, check_delta_share
from .measures import DataError, EmpiricalMeasure, check_privacy_normalized
from .randomness import PURPOSE_DATA, Seed, derive_seed, substream
from .sensitivity import _check_count, check_bound_kind
from .sliced_distance import SwdConfig, value_and_gradient

DIVERGENCE_LIMIT = 1e6


class FlowDiverged(RuntimeError):
    """Loss exceeded the divergence limit or an update overflowed; carries the partial trace."""

    def __init__(self, message: str, trace: "FlowTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class FlowConfig:
    """Descent schedule plus the sliced-loss settings used at every step."""

    iterations: int
    learning_rate: float
    k: int = 100
    sigma: float = 0.0
    seed: Seed = 0
    log_every: int = 10
    batch_size: int | None = None  # optional target mini-batching (gamma < 1)
    delta: float = 1e-5
    delta_split: float = 0.5
    bound_kind: str = "bernstein"

    def __post_init__(self):
        _check_count("iterations", self.iterations, 1)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        _check_count("log_every", self.log_every, 1)
        SwdConfig(k=self.k, sigma=self.sigma, seed=self.seed)  # refuses k, sigma or seed
        if self.batch_size is not None:
            _check_count("batch_size", self.batch_size, 1)
        Schedule(self.delta, self.iterations, delta_split=self.delta_split)  # refuses delta, split
        check_bound_kind(self.bound_kind)
        if self.sigma > 0:
            check_delta_share(self.bound_kind, self.delta_split)


@dataclass(frozen=True)
class FlowTrace:
    """Logged descent history and the final particle positions.

    final_points is read-only, like the points of an EmpiricalMeasure, which
    adopts it without a copy; copy it before writing to it.
    """

    iterations: np.ndarray
    losses: np.ndarray
    grad_norms: np.ndarray
    final_points: np.ndarray = field(repr=False)
    privacy: CalibrationResult | None = None  # the whole schedule's account; None at sigma = 0


def _step_target(target: EmpiricalMeasure, cfg: FlowConfig, step: int) -> EmpiricalMeasure:
    """The whole target, or the step's seeded batch of its rows."""
    if cfg.batch_size is None or cfg.batch_size == target.n:
        return target
    picks = substream(cfg.seed, PURPOSE_DATA, step).choice(
        target.n, size=cfg.batch_size, replace=False
    )
    rows = target.points[np.sort(picks)]
    rows.setflags(write=False)  # the measure adopts the fresh array
    return EmpiricalMeasure(rows)


def run_flow(
    source_init: EmpiricalMeasure, target_private: EmpiricalMeasure, cfg: FlowConfig
) -> FlowTrace:
    """Gradient descent on particle positions minimizing the sliced loss.

    Each step draws directions and noise from a per-step seed, evaluates a
    consistent (loss, gradient) pair from one release, and moves the
    particles. The target enters every step only through its noised
    projections, and the source's projections get the same noise level.
    Checked here, before any step: a dimension mismatch, weights that are
    not uniform (both measures are re-wrapped as uniform ones), a batch_size
    that is not the source particle count or exceeds the target's, and at
    sigma > 0 the target's privacy normalization (row norms <= 1/2).
    value_and_gradient refuses unequal sample counts without batching, at
    step 0. A loss above DIVERGENCE_LIMIT, or an update that overflows
    float64, raises FlowDiverged with the trace logged so far.
    """
    if source_init.dim != target_private.dim:
        raise DataError(f"dimension mismatch: {source_init.dim} vs {target_private.dim}")
    if not (source_init.is_uniform() and target_private.is_uniform()):
        raise ValueError("uniform weights required for particle flow")
    if cfg.batch_size is not None:
        if not 1 <= cfg.batch_size <= target_private.n:
            raise DataError(f"batch_size must lie in [1, {target_private.n}]")
        if cfg.batch_size != source_init.n:
            raise DataError("batch_size must equal the source particle count")
    privacy = None
    if cfg.sigma > 0:
        check_privacy_normalized(target_private)
        gamma = 1.0 if cfg.batch_size is None else cfg.batch_size / target_private.n
        schedule = Schedule(cfg.delta, cfg.iterations, gamma, cfg.delta_split)
        bound = schedule.tail_bound(cfg.bound_kind, cfg.k, target_private.dim)
        privacy = CalibrationResult(cfg.sigma, *account(cfg.sigma, schedule, bound), bound)

    points = source_init.points  # read-only; every step makes a new array
    rows = []  # (step, loss, gradient norm); step 0 is always logged

    def trace() -> FlowTrace:
        steps, losses, grad_norms = (np.array(column) for column in zip(*rows))
        return FlowTrace(steps, losses, grad_norms, points, privacy)

    for step in range(cfg.iterations):
        step_cfg = SwdConfig(k=cfg.k, q=2.0, seed=derive_seed(cfg.seed, step), sigma=cfg.sigma)
        # both measures adopt their read-only arrays and go with the call
        loss, grad = value_and_gradient(
            EmpiricalMeasure(points), _step_target(target_private, cfg, step), step_cfg
        )
        if step % cfg.log_every == 0 or step == cfg.iterations - 1:
            rows.append((step, loss, float(np.linalg.norm(grad))))
        if not math.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            raise FlowDiverged(
                f"loss {loss:.3g} exceeded {DIVERGENCE_LIMIT:.0e} at step {step}; "
                f"reduce the learning rate (lr={cfg.learning_rate})",
                trace(),
            )
        # points - lr * grad, written over the gradient, which becomes the points
        try:
            with np.errstate(over="raise"):
                grad *= cfg.learning_rate
                points = np.subtract(points, grad, out=grad)
        except FloatingPointError:
            raise FlowDiverged(
                f"the update overflowed float64 at step {step}; "
                f"reduce the learning rate (lr={cfg.learning_rate})",
                trace(),
            ) from None
        points.setflags(write=False)

    return trace()
