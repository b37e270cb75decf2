"""Renyi-DP accounting and noise calibration for the projection mechanism.

The Gaussian mechanism with squared sensitivity w satisfies
eps(alpha) = alpha * w / (2 sigma^2) at every Renyi order alpha > 1.
An RdpCurve is its values on one grid of orders, ORDERS: the quarter
steps 1.25..64 plus 128 and 256. Mini-batch training composes T
subsampled copies of the mechanism, which account does by multiplying the
subsampled curve by T; the composed curve converts to an (eps, delta)-DP
statement by minimizing eps(alpha) + ln(1/delta)/(alpha - 1) over ORDERS,
and calibration inverts that map by a bracketing root search on log sigma.

Amplification by subsampling is the upper bound for sampling a fixed-size
batch without replacement under the replace-one neighboring relation: the
schedule run_flow executes, and the neighboring-dataset definition used by
the sensitivity analysis. For a base mechanism with eps(2) = e2 and
unbounded eps(inf),

    eps_sub(alpha) <= 1/(alpha-1) * log(1 + C(alpha,2) g^2
        min(4(e^{e2}-1), 2 e^{e2})
        + sum_{j=3..alpha} 2 C(alpha,j) g^j e^{(j-1) eps(j)}).

It is an integer-order binomial expansion over the base curve's integer
values eps(j) = j w / (2 sigma^2), evaluated for all the integer orders a
grid needs at once, as one masked (orders x j) array of log-domain terms
reduced by a row-wise log-sum-exp. It is capped by the unamplified curve
(subsampling never hurts), is that curve exactly at g = 1, so a schedule
with sampling_rate 1 is charged without amplification, and evaluates
non-integer orders at the next larger integer (valid since Renyi
divergence is nondecreasing in the order).

Only eps(j) depends on sigma. The binomial part, log C(alpha, j), and
the map from grid orders to integer orders depend only on the one grid
ORDERS, so they are built once at import and kept read-only. The
sampling-rate term j log g is added to them once per g and kept in a
small cache, so the evaluations of one calibration reuse it and each
computes only the sigma-dependent coefficients and the log-sum-exp.

Random directions and the sensitivity tail. A "bernstein" or "clt" bound
w(k, d, p) on the squared sensitivity holds with probability >= 1 - p over
one draw of the k directions U; given a U on which it holds, one step is a
Gaussian mechanism with squared sensitivity w. A Schedule gives the tail
delta_s = delta_split * delta and the conversion delta_c = delta - delta_s.
Each of the T steps draws its own U_t, so there are T tail events:
Schedule.tail_bound builds the per-draw bound w(k, d, delta_s / T),
and account charges the bound it is given at every step. When each draw
exceeds its bound with probability <= p <= delta_s / T, the union bound
keeps all T draws within it except with probability <= T p <= delta_s. On
that event the T steps compose in RDP and convert at delta_c, so the whole
schedule is (eps, delta_c + delta_s)-DP. A bound whose p exceeds
delta_s / T could spend more than delta and is refused. A "fixed" kind
bound (a known constant) has no tail and is charged as given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .sensitivity import TAIL_BOUNDS, SensitivityBound, _check_count, check_bound_kind, check_delta

# The order grid of every account: quarter steps {1.25, 1.5, ..., 64}, then 128 and 256.
ORDERS = np.concatenate([np.arange(1.25, 64.125, 0.25), [128.0, 256.0]])


def _binomial_part() -> tuple:
    """(integer orders alpha that ORDERS needs, grid position -> index into them,
    j = 0..max alpha, log C(alpha, j) with -inf for j > alpha), all read-only."""
    alphas, row = np.unique(np.maximum(2, np.ceil(ORDERS - 1e-12)).astype(int), return_inverse=True)
    j = np.arange(alphas[-1] + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(j[1:]))])
    a = alphas[:, None]
    log_binom = np.where(j <= a, log_fact[a] - log_fact[j] - log_fact[np.maximum(a - j, 0)], -np.inf)
    for arr in (ORDERS, alphas, row, j, log_binom):
        arr.flags.writeable = False
    return alphas, row, j, log_binom


_ALPHAS, _ROW, _J, _LOG_BINOM = _binomial_part()


class InfeasibleBudgetError(ValueError):
    """The (eps, delta) target cannot be met within the sigma bracket."""


@dataclass(frozen=True)
class RdpCurve:
    """eps(alpha) at each Renyi order alpha of ORDERS, in grid order."""

    eps_at_order: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.eps_at_order, dtype=float)
        if e.shape != ORDERS.shape:
            raise ValueError(f"eps_at_order must have one value per order of ORDERS, shape "
                             f"{ORDERS.shape}, got {e.shape}")
        if not np.isfinite(e).all() or (e < 0).any():
            raise ValueError("eps values must be finite and nonnegative")
        object.__setattr__(self, "eps_at_order", e)


@dataclass(frozen=True)
class Schedule:
    """The releases an account charges: steps at a sampling rate, and the
    delta they may spend, split between the sensitivity tail and the conversion."""

    delta_target: float
    steps: int = 1
    sampling_rate: float = 1.0
    delta_split: float = 0.5

    def __post_init__(self):
        check_delta(self.delta_target)
        _check_count("steps", self.steps, 1)
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate must lie in (0, 1], got {self.sampling_rate}")
        if not 0.0 <= self.delta_split < 1.0:
            raise ValueError(f"delta_split must lie in [0, 1), got {self.delta_split}")

    @property
    def delta_conversion(self) -> float:
        """Share of delta consumed by the RDP-to-DP conversion."""
        return (1.0 - self.delta_split) * self.delta_target

    @property
    def delta_sensitivity(self) -> float:
        """Share of delta consumed by the sensitivity tail bound."""
        return self.delta_split * self.delta_target

    def tail_bound(self, kind: str, k: int, d: int) -> SensitivityBound:
        """The probabilistic bound `kind` on one of the steps' direction draws:
        w(k, d, delta_sensitivity / steps) (see the module docstring)."""
        check_bound_kind(kind)
        check_delta_share(kind, self.delta_split)
        return TAIL_BOUNDS[kind](k, d, self.delta_sensitivity / self.steps)


@dataclass(frozen=True, kw_only=True)
class PrivacyBudget(Schedule):
    """A schedule plus the target eps it must meet."""

    eps_target: float

    def __post_init__(self):
        if not 0 < self.eps_target < math.inf:
            raise ValueError(f"eps_target must be finite and positive, got {self.eps_target}")
        super().__post_init__()


def check_delta_share(kind: str, delta_split: float) -> None:
    """Refuse a probabilistic bound `kind` that would get no share of delta."""
    if delta_split == 0:
        raise ValueError(f"a {kind} bound needs a share of delta: delta_split must be > 0")


@dataclass(frozen=True)
class MechanismSpec:
    """One application of the Gaussian mechanism: noise level and sensitivity."""

    sigma: float
    sensitivity_sq: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sensitivity_sq <= 0:
            raise ValueError(f"sensitivity_sq must be positive, got {self.sensitivity_sq}")
        w, sigma = float(self.sensitivity_sq), float(self.sigma)
        try:  # the rate and the curve at the top order, in Python floats so nothing warns
            rate, top = w / (2.0 * sigma**2), float(ORDERS[-1]) * w / (2.0 * sigma**2)
        except (OverflowError, ZeroDivisionError):  # sigma^2 overflowed or underflowed to 0
            rate = top = math.nan
        if not (0.0 < rate and top < math.inf):
            raise ValueError(f"sigma={self.sigma:g} is out of range: alpha * w / (2 sigma^2) must be "
                             f"a finite float > 0 at every order, with w={self.sensitivity_sq:g}")


def gaussian_rdp(spec: MechanismSpec) -> RdpCurve:
    """Unamplified Gaussian mechanism: eps(alpha) = alpha * w / (2 sigma^2) on ORDERS."""
    return RdpCurve(ORDERS * spec.sensitivity_sq / (2.0 * spec.sigma**2))


_EXP_ZERO = -746.0  # float64 exp underflows to exactly +0.0 below about -745.13


@functools.lru_cache(maxsize=8)
def _log_weight(gamma: float) -> np.ndarray:
    """(_ALPHAS x _J), read-only: log C(alpha, j) + j log gamma; -inf for j > alpha."""
    log_weight = _LOG_BINOM + _J * math.log(gamma)
    log_weight.flags.writeable = False
    return log_weight


def _amplified_integer_rdp(log_weight: np.ndarray, eps_j: np.ndarray) -> np.ndarray:
    """Bound at each of _ALPHAS from the base curve's values eps(0..max alpha)."""
    # j = 0 is the leading 1; j = 1 has no term; j = 2 has the coefficient
    # min(4(e^{e2}-1), 2 e^{e2}), the second once e2 >= ln 2
    e2 = eps_j[2]
    log_c2 = math.log(2.0) + e2 if e2 >= math.log(2.0) else math.log(4.0 * math.expm1(e2))
    log_coef = np.concatenate([[0.0, -np.inf, log_c2], math.log(2.0) + (_J[3:] - 1) * eps_j[3:]])
    terms = log_weight + log_coef
    hi = terms.max(axis=1)
    terms -= hi[:, None]
    # exp is exactly +0.0 at or below _EXP_ZERO, so those entries (the -inf
    # padding past each row's order among them) stay zero unevaluated
    weights = np.zeros_like(terms)
    np.exp(terms, out=weights, where=terms > _EXP_ZERO)
    log_a = hi + np.log(weights.sum(axis=1))
    return np.maximum(log_a, 0.0) / (_ALPHAS - 1)


def subsampled_rdp(spec: MechanismSpec, gamma: float) -> RdpCurve:
    """RDP curve of the mechanism on a fixed-size batch drawn at sampling rate gamma.

    gamma = 1 returns the unamplified curve exactly. All the integer
    orders ORDERS needs are evaluated at once from the binomial part and
    the cached sampling-rate term for gamma (see the module docstring).
    Fractional orders are charged the bound at the next larger integer,
    then capped by the unamplified value at the fractional order itself.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    base = gaussian_rdp(spec)
    if gamma == 1.0:
        return base
    eps_j = _J * (spec.sensitivity_sq / (2.0 * spec.sigma**2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eps_int = _amplified_integer_rdp(_log_weight(gamma), eps_j)
    # an order whose amplified bound overflows float64 (NaN) keeps the unamplified value
    return RdpCurve(np.fmin(eps_int[_ROW], base.eps_at_order))


def rdp_to_dp(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """Convert an RDP curve to (eps, delta)-DP: the minimum over ORDERS of
    eps(alpha) + ln(1/delta)/(alpha - 1); returns (eps, minimizing order)."""
    check_delta(delta)
    totals = curve.eps_at_order + math.log(1.0 / delta) / (ORDERS - 1.0)
    best = int(np.argmin(totals))
    return float(totals[best]), float(ORDERS[best])


def account(sigma: float, budget: Schedule, sensitivity: SensitivityBound) -> tuple[float, float]:
    """End-to-end eps achieved by sigma under a schedule (a PrivacyBudget is one).

    Charges the given bound at every step, assembles subsampled RDP at the
    schedule's sampling rate (1 for no amplification), composes over its
    steps, and converts at delta_conversion. Returns (eps, best order).
    Raises ValueError for a probabilistic bound whose delta exceeds the
    per-draw share delta_sensitivity / steps (see the module docstring).
    """
    share = budget.delta_sensitivity / budget.steps
    if sensitivity.kind in TAIL_BOUNDS and not sensitivity.delta <= share:
        raise ValueError(
            f"{sensitivity.kind} bound at delta={sensitivity.delta:g} exceeds the per-draw "
            f"sensitivity share {share:g} (delta_split={budget.delta_split:g}, "
            f"steps={budget.steps}): build it with Schedule.tail_bound"
        )
    spec = MechanismSpec(sigma=sigma, sensitivity_sq=sensitivity.w)
    step = subsampled_rdp(spec, budget.sampling_rate)  # T identical steps add up in RDP
    return rdp_to_dp(RdpCurve(step.eps_at_order * budget.steps), budget.delta_conversion)


@dataclass(frozen=True)
class CalibrationResult:
    """A noise level, the eps it achieves under a schedule and the order attaining
    it; sensitivity is the per-draw bound that was charged."""

    sigma: float
    eps_achieved: float
    best_order: float
    sensitivity: SensitivityBound


_SIGMA_LO = 1e-3
_SIGMA_HI = 1e3
_SIGMA_RTOL = 1e-12  # the search stops once the bracket has hi / lo - 1 <= this


def calibrate_sigma(budget: PrivacyBudget, sensitivity: SensitivityBound) -> CalibrationResult:
    """Smallest noise level in [1e-3, 1e3] meeting the budget, to 1e-12 relative.

    The achieved eps is monotone decreasing in sigma. The search keeps a
    bracket lo < hi with account(lo) > eps_target >= account(hi), each side
    decided by comparing eps itself to eps_target, and narrows it by the
    Illinois variant of regula falsi on (log sigma, log(eps / eps_target))
    until hi / lo - 1 <= 1e-12. It returns hi with the eps and order of its
    own evaluation, so account(sigma) <= eps_target always holds, and the
    evaluated lo just below sigma misses the target. Two safeguards bound
    the search: every step lands at least half the tolerance inside the
    bracket, so an accurate estimate closes it at once, and after four
    steps that fail to halve the bracket the next one bisects it. The
    reference schedules take 10 to 21 account() evaluations (bisection took
    63); the amplification bound's sampling-rate term is built by the first
    and reused by the rest. A budget that the bracket floor sigma = 1e-3
    already meets is clamped: the floor is returned, though a smaller sigma
    may meet it too. The bound is charged as given and reported as the
    result's sensitivity; one above the budget's per-draw sensitivity
    share is refused by the first evaluation, before any search. Raises
    InfeasibleBudgetError when even the largest sigma in the bracket cannot
    reach the target, reporting eps at both ends.
    """

    target = budget.eps_target

    def evaluate(s: float) -> tuple[float, float]:
        return account(s, budget, sensitivity)

    lo, hi = _SIGMA_LO, _SIGMA_HI
    (eps_lo, order_lo), (eps_hi, order_hi) = evaluate(lo), evaluate(hi)
    if eps_hi > target:
        raise InfeasibleBudgetError(
            f"budget eps={target} infeasible: achieved eps ranges from "
            f"{eps_hi:.6g} (sigma={hi}) to {eps_lo:.6g} (sigma={lo})"
        )
    if eps_lo <= target:
        # the bracket floor already meets the target: clamp to it rather
        # than search below it
        return CalibrationResult(lo, eps_lo, order_lo, sensitivity)
    x_lo, x_hi = math.log(lo), math.log(hi)
    f_lo, f_hi = math.log(eps_lo / target), math.log(eps_hi / target)
    min_step = 0.5 * math.log1p(_SIGMA_RTOL)
    moved = 0  # the end the previous step replaced: -1 lo, +1 hi
    halved_width, stalled = x_hi - x_lo, 0
    while hi / lo - 1 > _SIGMA_RTOL:
        if stalled == 4 or f_lo == f_hi:
            x = 0.5 * (x_lo + x_hi)
        else:
            x = x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo)
        x = min(max(x, x_lo + min_step), x_hi - min_step)
        s = math.exp(x)
        eps, order = evaluate(s)
        f = math.log(eps / target)
        if eps > target:
            lo, x_lo, f_lo = s, x, f
            if moved < 0:  # hi kept twice: halve its value (Illinois)
                f_hi *= 0.5
            moved = -1
        else:
            hi, x_hi, f_hi, eps_hi, order_hi = s, x, f, eps, order
            if moved > 0:
                f_lo *= 0.5
            moved = 1
        if x_hi - x_lo <= 0.5 * halved_width:
            halved_width, stalled = x_hi - x_lo, 0
        else:
            stalled += 1
    return CalibrationResult(hi, eps_hi, order_hi, sensitivity)
