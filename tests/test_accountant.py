import dataclasses
import decimal
import math

import numpy as np
import pytest

from dpswd import accountant as acc
from dpswd.flow import FlowConfig
from dpswd.sensitivity import TAIL_BOUNDS, bernstein_bound, clt_bound, fixed_sensitivity


def one_shot_sigma_oracle(eps, delta):
    """Closed-form optimum for the pure Gaussian mechanism, sensitivity 1:
    minimizing alpha/(2 s^2) + ln(1/delta)/(alpha-1) over continuous alpha
    gives alpha* = 1 + s sqrt(2 ln(1/delta)); solving for s at the target
    eps is a quadratic: eps s^2 - sqrt(2L) s - 1/2 = 0."""
    big_l = math.log(1.0 / delta)
    root = math.sqrt(2 * big_l)
    return (root + math.sqrt(2 * big_l + 2 * eps)) / (2 * eps)


def at(curve, orders):
    """The entries of a curve on acc.ORDERS at `orders`, which must lie on that grid."""
    index = np.searchsorted(acc.ORDERS, orders)
    assert np.array_equal(acc.ORDERS[np.minimum(index, acc.ORDERS.size - 1)], orders)
    return curve.eps_at_order[index]


class TestGaussianRdp:
    def test_unit_case(self):
        spec = acc.MechanismSpec(sigma=1.0, sensitivity_sq=1.0)
        curve = acc.gaussian_rdp(spec)
        assert at(curve, [2.0])[0] == 1.0

    def test_scaled_case(self):
        spec = acc.MechanismSpec(sigma=2.0, sensitivity_sq=2.0)
        curve = acc.gaussian_rdp(spec)
        assert at(curve, [4.0])[0] == 1.0

    def test_linearity_in_order(self):
        spec = acc.MechanismSpec(sigma=0.7, sensitivity_sq=3.0)
        eps = at(acc.gaussian_rdp(spec), [2.0, 4.0, 8.0])
        assert eps[1] == 2 * eps[0]
        assert eps[2] == 2 * eps[1]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            acc.MechanismSpec(sigma=0.0, sensitivity_sq=1.0)
        with pytest.raises(ValueError):
            acc.MechanismSpec(sigma=1.0, sensitivity_sq=0.0)
        # sigma^2 overflows or underflows to 0: w / (2 sigma^2) is no finite float > 0
        with pytest.raises(ValueError, match=r"sigma=1e\+160 is out of range"):
            acc.MechanismSpec(sigma=1e160, sensitivity_sq=1.0)
        with pytest.raises(ValueError, match="sigma=1e-200 is out of range"):
            acc.MechanismSpec(sigma=1e-200, sensitivity_sq=1.0)
        # the rate is finite, but alpha times it overflows at order 256
        for sigma in (3e-154, 1e-153):
            with pytest.raises(ValueError, match=f"sigma={sigma:g} is out of range"):
                acc.MechanismSpec(sigma=sigma, sensitivity_sq=4.0)


class TestSubsampledRdp:
    def test_gamma_one_reproduces_base_exactly(self):
        spec = acc.MechanismSpec(sigma=0.8, sensitivity_sq=2.5)
        base = acc.gaussian_rdp(spec)
        sub = acc.subsampled_rdp(spec, 1.0)
        assert np.array_equal(base.eps_at_order, sub.eps_at_order)

    def test_amplification_example(self):
        spec = acc.MechanismSpec(sigma=2.0, sensitivity_sq=1.0)
        sub = acc.subsampled_rdp(spec, 0.01)
        assert at(sub, [8.0])[0] < 1.0  # base eps(8) = 8/8 = 1

    def test_never_exceeds_base_curve(self):
        for sigma in (0.5, 1.0, 3.0):
            spec = acc.MechanismSpec(sigma=sigma, sensitivity_sq=1.0)
            base = acc.gaussian_rdp(spec)
            for gamma in (0.001, 0.05, 0.3, 0.9):
                sub = acc.subsampled_rdp(spec, gamma)
                assert (sub.eps_at_order <= base.eps_at_order + 1e-15).all()

    def test_overflowing_amplified_order_keeps_base_value(self, recwarn):
        # the base curve is finite at every order, but (j - 1) eps(j) is not
        spec = acc.MechanismSpec(sigma=1e-152, sensitivity_sq=8.96)
        base = acc.gaussian_rdp(spec)
        sub = acc.subsampled_rdp(spec, 0.25)
        assert not recwarn.list
        assert np.isfinite(sub.eps_at_order).all()
        assert (sub.eps_at_order <= base.eps_at_order).all()
        assert sub.eps_at_order[-1] == base.eps_at_order[-1]

    def test_monotone_in_gamma(self):
        spec = acc.MechanismSpec(sigma=1.0, sensitivity_sq=1.0)
        orders = [2.0, 4.0, 16.0]
        gammas = (0.001, 0.01, 0.1, 0.5, 1.0)
        curves = [at(acc.subsampled_rdp(spec, g), orders) for g in gammas]
        for lo, hi in zip(curves, curves[1:]):
            assert (lo <= hi + 1e-15).all()

    def test_quadratic_scaling_in_small_gamma(self):
        spec = acc.MechanismSpec(sigma=1.0, sensitivity_sq=1.0)
        orders = [4.0]
        e3 = at(acc.subsampled_rdp(spec, 1e-3), orders)[0]
        e4 = at(acc.subsampled_rdp(spec, 1e-4), orders)[0]
        assert e3 / e4 == pytest.approx(100.0, rel=0.2)

    def test_fractional_orders_use_next_integer(self):
        spec = acc.MechanismSpec(sigma=1.0, sensitivity_sq=1.0)
        frac = at(acc.subsampled_rdp(spec, 0.05), [2.5])[0]
        ceil = at(acc.subsampled_rdp(spec, 0.05), [3.0])[0]
        assert frac == ceil

    def test_gamma_validation(self):
        spec = acc.MechanismSpec(sigma=1.0, sensitivity_sq=1.0)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                acc.subsampled_rdp(spec, bad)


def subsampled_rdp_oracle(sigma, w, gamma, orders):
    """The module docstring's integer-order bound, in the linear domain at
    50 digits with exact binomials, taken at the next integer max(2, ceil(alpha))
    of each order alpha and capped by the base curve alpha w/(2 s^2)."""
    ctx = decimal.Context(prec=50, Emax=10**9, Emin=-(10**9))
    D = ctx.create_decimal
    g, rate = D(gamma), ctx.divide(D(w), D(2) * D(sigma) ** 2)
    integer_orders = [max(2, math.ceil(order)) for order in orders]
    # e^{(j-1) eps(j)} = e^{j(j-1) w / (2 sigma^2)} for the Gaussian base curve
    growth = [ctx.exp(D((j - 1) * j) * rate) for j in range(max(integer_orders) + 1)]
    c2 = min(4 * (ctx.exp(2 * rate) - 1), 2 * ctx.exp(2 * rate))
    amplified = {}
    for alpha in set(integer_orders):
        total = 1 + math.comb(alpha, 2) * g**2 * c2
        for j in range(3, alpha + 1):
            total += 2 * math.comb(alpha, j) * g**j * growth[j]
        amplified[alpha] = float(ctx.ln(total) / (alpha - 1))
    return [min(amplified[alpha], float(D(float(order)) * rate))
            for order, alpha in zip(orders, integer_orders)]


# applied in this order, so test ids read sigma-w-gamma
ORACLE_POINTS = [
    pytest.mark.parametrize("sigma", [0.5, 1.0, 2.857]),
    pytest.mark.parametrize("w", [1.0, 17.136]),
    pytest.mark.parametrize("gamma", [1e-4, 1 / 600, 0.01, 0.3]),
]


def at_oracle_points(test):
    for mark in ORACLE_POINTS:
        test = mark(test)
    return test


class TestSubsampledRdpOracle:
    orders = list(range(2, 65)) + [128]

    @at_oracle_points
    def test_matches_decimal_evaluation(self, sigma, w, gamma):
        spec = acc.MechanismSpec(sigma=sigma, sensitivity_sq=w)
        curve = at(acc.subsampled_rdp(spec, gamma), self.orders)
        expected = subsampled_rdp_oracle(sigma, w, gamma, self.orders)
        # float64 log-domain rounding: relative 1e-12, plus 1e-14 near zero
        assert curve == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @at_oracle_points
    def test_dense_grid_matches_decimal_evaluation(self, sigma, w, gamma):
        # the quarter-step grid's fractional orders, 1.25 to 1.75 among them,
        # are charged the bound at the next integer (at least 2) and capped
        # at their own base value
        grid = acc.ORDERS
        spec = acc.MechanismSpec(sigma=sigma, sensitivity_sq=w)
        curve = acc.subsampled_rdp(spec, gamma)
        expected = subsampled_rdp_oracle(sigma, w, gamma, grid)
        assert curve.eps_at_order == pytest.approx(expected, rel=1e-12, abs=1e-14)


def full_array_rdp(sigma, w, gamma, orders):
    """The bound as one uncached (orders x j) log-sum-exp with every entry
    exponentiated: the evaluation subsampled_rdp must reproduce bit for bit."""
    o = np.asarray(orders, dtype=float)
    alphas, row = np.unique(np.maximum(2, np.ceil(o - 1e-12)).astype(int), return_inverse=True)
    j = np.arange(alphas[-1] + 1)
    eps_j = j * (w / (2.0 * sigma**2))
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(j[1:]))])
    a = alphas[:, None]
    log_binom = np.where(j <= a, log_fact[a] - log_fact[j] - log_fact[np.maximum(a - j, 0)], -np.inf)
    e2 = eps_j[2]
    log_c2 = math.log(2.0) + e2 if e2 >= math.log(2.0) else math.log(4.0 * math.expm1(e2))
    log_coef = np.concatenate([[0.0, -np.inf, log_c2], math.log(2.0) + (j[3:] - 1) * eps_j[3:]])
    terms = log_binom + j * math.log(gamma) + log_coef
    hi = terms.max(axis=1)
    log_a = hi + np.log(np.exp(terms - hi[:, None]).sum(axis=1))
    return np.minimum((np.maximum(log_a, 0.0) / (alphas - 1))[row], o * w / (2.0 * sigma**2))


# the default grid before it became the quarter-step grid, a strict subset of it
# with the same integer orders
SUBSET_ORDERS = np.concatenate([[1.25, 1.5, 1.75], np.arange(2.0, 65.0), [128.0, 256.0]])


class TestSubsampledRdpFullArray:
    @pytest.mark.parametrize("gamma", [100 / 60000, 256 / 162000, 0.01, 0.3,
                                       1e-5, 0.05, 0.5, 0.9])
    @pytest.mark.parametrize("grid", [acc.ORDERS, SUBSET_ORDERS], ids=["quarter", "subset"])
    def test_bit_identical(self, grid, gamma):
        for sigma in np.geomspace(1e-3, 1e3, 31):
            for w in (0.3, 17.136):
                spec = acc.MechanismSpec(sigma=float(sigma), sensitivity_sq=w)
                curve = acc.subsampled_rdp(spec, gamma)
                expected = full_array_rdp(float(sigma), w, gamma, grid)
                assert np.array_equal(at(curve, grid), expected), (sigma, w)


def curve_with(eps_by_order):
    """A curve on acc.ORDERS: the given eps at those orders, a large finite value elsewhere."""
    eps = np.full(acc.ORDERS.shape, 1e3)
    for order, value in eps_by_order.items():
        eps[acc.ORDERS == order] = value
    return acc.RdpCurve(eps)


class TestRdpCurve:
    def test_holds_one_value_per_order(self):
        curve = acc.RdpCurve(np.arange(acc.ORDERS.size))
        assert curve.eps_at_order.dtype == float
        assert [f.name for f in dataclasses.fields(curve)] == ["eps_at_order"]

    @pytest.mark.parametrize("size", [0, 1, acc.ORDERS.size - 1, acc.ORDERS.size + 1])
    def test_refuses_wrong_length(self, size):
        with pytest.raises(ValueError, match="one value per order of ORDERS"):
            acc.RdpCurve(np.ones(size))

    def test_refuses_wrong_shape(self):
        with pytest.raises(ValueError, match="one value per order of ORDERS"):
            acc.RdpCurve(np.ones((1, acc.ORDERS.size)))
        with pytest.raises(ValueError, match="one value per order of ORDERS"):
            acc.RdpCurve(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_refuses_nan_inf_and_negative(self, bad):
        eps = np.ones(acc.ORDERS.size)
        eps[7] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            acc.RdpCurve(eps)


class TestRdpToDp:
    def test_single_order(self):
        curve = curve_with({2.0: 1.0})
        eps, order = acc.rdp_to_dp(curve, 1e-5)
        assert eps == pytest.approx(1.0 + math.log(1e5), abs=1e-9)
        assert order == 2.0

    def test_dense_grid_matches_continuous_optimum(self):
        sigma = 0.56789
        spec = acc.MechanismSpec(sigma=sigma, sensitivity_sq=1.0)
        curve = acc.gaussian_rdp(spec)
        eps, _ = acc.rdp_to_dp(curve, 1e-5)
        assert eps == pytest.approx(10.0, abs=0.05)

    def test_delta_to_one_recovers_min_eps(self):
        curve = curve_with({2.0: 0.3, 8.0: 0.8})
        eps, order = acc.rdp_to_dp(curve, 1 - 1e-12)
        assert eps == pytest.approx(0.3, abs=1e-10)
        assert order == 2.0

    def test_is_true_minimum_over_grid(self):
        rng = np.random.default_rng(0)
        orders = acc.ORDERS
        curve = acc.RdpCurve(rng.uniform(0.01, 2.0, orders.size))
        eps, _ = acc.rdp_to_dp(curve, 1e-3)
        per_order = curve.eps_at_order + math.log(1e3) / (orders - 1)
        assert eps <= per_order.min() + 1e-15

    def test_delta_validation(self):
        curve = curve_with({2.0: 1.0})
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                acc.rdp_to_dp(curve, bad)


class TestCalibration:
    def test_one_shot_matches_closed_form(self):
        budget = acc.PrivacyBudget(
            eps_target=10.0, delta_target=1e-5, steps=1, sampling_rate=1.0, delta_split=0.0
        )
        result = acc.calibrate_sigma(budget, fixed_sensitivity(1.0))
        oracle = one_shot_sigma_oracle(10.0, 1e-5)
        assert oracle == pytest.approx(0.5679, abs=1e-4)
        assert result.sigma == pytest.approx(oracle, abs=1e-3)

    def test_round_trip_consistency(self):
        budget = acc.PrivacyBudget(
            eps_target=3.0, delta_target=1e-6, steps=500, sampling_rate=0.02, delta_split=0.5
        )
        bound = budget.tail_bound("bernstein", 100, 50)
        result = acc.calibrate_sigma(budget, bound)
        eps, _ = acc.account(result.sigma, budget, bound)
        assert eps == result.eps_achieved
        assert eps <= budget.eps_target
        assert eps == pytest.approx(budget.eps_target, rel=1e-3)

    def test_monotonicities(self):
        base = dict(delta_target=1e-5, steps=100, sampling_rate=0.05, delta_split=0.5)
        bound = fixed_sensitivity(2.0)
        sig_by_eps = [
            acc.calibrate_sigma(acc.PrivacyBudget(eps_target=e, **base), bound).sigma
            for e in (1.0, 3.0, 10.0)
        ]
        assert sig_by_eps[0] > sig_by_eps[1] > sig_by_eps[2]

        sig_by_steps = [
            acc.calibrate_sigma(
                acc.PrivacyBudget(eps_target=3.0, delta_target=1e-5, steps=t,
                                  sampling_rate=0.05, delta_split=0.5),
                bound,
            ).sigma
            for t in (10, 100, 1000)
        ]
        assert sig_by_steps[0] < sig_by_steps[1] < sig_by_steps[2]

        sig_by_w = [
            acc.calibrate_sigma(acc.PrivacyBudget(eps_target=3.0, **base), fixed_sensitivity(w)).sigma
            for w in (0.5, 2.0, 8.0)
        ]
        assert sig_by_w[0] < sig_by_w[1] < sig_by_w[2]

    def test_one_shot_guarantee_assembly(self):
        # T=1, gamma=1, wsq = w(k, delta/2), split 0.5: the reported eps is
        # exactly min_alpha [alpha w / (2 sigma^2) + ln(2/delta)/(alpha-1)]
        delta = 1e-5
        k, d, sigma = 200, 784, 3.0
        budget = acc.PrivacyBudget(
            eps_target=1.0, delta_target=delta, steps=1, sampling_rate=1.0, delta_split=0.5
        )
        bound = bernstein_bound(k, d, delta / 2)
        eps, order = acc.account(sigma, budget, bound)
        orders = acc.ORDERS
        direct = orders * bound.w / (2 * sigma**2) + math.log(2 / delta) / (orders - 1)
        assert eps == pytest.approx(direct.min(), abs=1e-9)

    def test_budget_met_at_bracket_floor_returns_the_floor(self):
        budget = acc.PrivacyBudget(
            eps_target=1e13, delta_target=1e-5, steps=1, sampling_rate=1.0, delta_split=0.0
        )
        bound = fixed_sensitivity(1.0)
        result = acc.calibrate_sigma(budget, bound)
        assert result.sigma == 1e-3
        assert (result.eps_achieved, result.best_order) == acc.account(1e-3, budget, bound)
        # the floor is a clamp: a smaller sigma meets this budget too
        assert acc.account(1e-4, budget, bound)[0] <= budget.eps_target

    def test_flat_crossing_is_bisected(self, monkeypatch):
        # eps = 10 exp(-(log sigma - 0.3)^3) has zero slope where it crosses
        # the target: regula falsi alone takes over 20000 steps on it, so the
        # search must bisect whenever four steps fail to halve the bracket
        # (and eps rounds to the target within about 1e-5 of the crossing)
        evaluations = []

        def flat_account(sigma, *args, **kwargs):
            evaluations.append(sigma)
            return 10.0 * math.exp(-((math.log(sigma) - 0.3) ** 3)), 2.0

        monkeypatch.setattr(acc, "account", flat_account)
        budget = acc.PrivacyBudget(eps_target=10.0, delta_target=1e-5, delta_split=0.0)
        result = acc.calibrate_sigma(budget, fixed_sensitivity(1.0))
        assert result.eps_achieved <= 10.0
        assert result.sigma == pytest.approx(math.exp(0.3), rel=1e-5)
        halvings = math.ceil(math.log2(math.log(1e6) / 1e-12))
        assert len(evaluations) <= 2 + 5 * halvings

    def test_infeasible_budget_reports_ends(self):
        budget = acc.PrivacyBudget(
            eps_target=0.01, delta_target=1e-7, steps=10**6, sampling_rate=1.0, delta_split=0.0
        )
        with pytest.raises(acc.InfeasibleBudgetError, match="achieved eps"):
            acc.calibrate_sigma(budget, fixed_sensitivity(10.0))

    def test_amplification_none_is_conservative(self):
        kwargs = dict(eps_target=3.0, delta_target=1e-5, steps=200, delta_split=0.0)
        bound = fixed_sensitivity(1.0)
        with_amp = acc.calibrate_sigma(acc.PrivacyBudget(sampling_rate=0.01, **kwargs), bound).sigma
        without = acc.calibrate_sigma(acc.PrivacyBudget(sampling_rate=1.0, **kwargs), bound).sigma
        assert without > with_amp

    def test_orders_shape(self):
        orders = acc.ORDERS
        assert orders[0] == 1.25
        assert orders[-1] == 256.0
        assert np.all(np.diff(orders) > 0)
        assert set(range(2, 65)) <= {int(o) for o in orders if o == int(o)}
        assert np.array_equal(orders[:-2], 1.0 + 0.25 * np.arange(1, 253))  # quarter steps to 64


# The four reference schedules (criterion 7's rows): d, k, n, epochs, batch, delta, bound.
REFERENCE_ROWS = {
    "mnist-bernstein": (784, 1000, 60000, 100, 100, 1e-5, "bernstein"),
    "mnist-clt": (784, 1000, 60000, 100, 100, 1e-5, "clt"),
    "celeba-bernstein": (8192, 2000, 162000, 100, 256, 1e-6, "bernstein"),
    "celeba-clt": (8192, 2000, 162000, 100, 256, 1e-6, "clt"),
}

# calibrate_sigma at eps = 10, delta_split = 0.5, fresh directions, as
# computed by the regula falsi search that replaced bisection (each sigma
# at most 5e-13 relative above bisection's); "none" is sampling rate 1.
# The clt rows use the upper quantile z = -Phi^{-1}(delta), which moved
# them by at most 1.3e-8 relative from Phi^{-1}(1 - delta). Every later
# build must give these bits: (row, amplification) -> (sigma, eps, order).
CALIBRATION_PINS = {
    ("mnist-bernstein", "subsample"): (2.8571773283845494, 9.999999999998991, 4.0),
    ("mnist-bernstein", "none"): (588.7509597948549, 9.99999999999999, 3.75),
    ("mnist-clt", "subsample"): (0.88371975356144, 9.999999999998991, 4.0),
    ("mnist-clt", "none"): (182.09960156493966, 9.999999999994442, 3.75),
    ("celeba-bernstein", "subsample"): (2.9211906710406748, 9.999999999990292, 4.0),
    ("celeba-bernstein", "none"): (648.6146939949234, 9.999999999994468, 4.25),
    ("celeba-clt", "subsample"): (0.3817595485908862, 9.999999999999645, 4.0),
    ("celeba-clt", "none"): (84.76504298183555, 9.999999999999911, 4.25),
}


def reference_schedule(name, amplification="subsample"):
    """(budget, per-draw bound) of a reference row at eps = 10; "none" is sampling rate 1."""
    d, k, n, epochs, batch, delta, kind = REFERENCE_ROWS[name]
    gamma = 1.0 if amplification == "none" else batch / n
    budget = acc.PrivacyBudget(eps_target=10.0, delta_target=delta, steps=epochs * (n // batch),
                               sampling_rate=gamma, delta_split=0.5)
    return budget, budget.tail_bound(kind, k, d)


def reference_calibration(*case):
    return acc.calibrate_sigma(*reference_schedule(*case))


def counted_account(monkeypatch) -> list:
    """Record the sigma of every acc.account call from here on."""
    sigmas, account = [], acc.account

    def counting(sigma, *args, **kwargs):
        sigmas.append(sigma)
        return account(sigma, *args, **kwargs)

    monkeypatch.setattr(acc, "account", counting)
    return sigmas


# ε targets for the calibration sweep, drawn once from U[8, 12]
SWEEP_TARGETS = tuple(float(e) for e in np.random.default_rng(2021).uniform(8.0, 12.0, 15))
# a mnist-clt target at which feasibility decided on log eps <= log eps_target
# returned eps = 10.19605148376894, above the target
LOG_SPACE_TARGET = 10.196051483768937


class TestCalibrationSweep:
    @pytest.mark.parametrize("amplification", ["subsample", "none"])
    @pytest.mark.parametrize("name", list(REFERENCE_ROWS))
    def test_minimal_sigma_meets_target(self, monkeypatch, name, amplification):
        account = acc.account
        evaluations = counted_account(monkeypatch)
        ten, bound = reference_schedule(name, amplification)
        targets = SWEEP_TARGETS + ((LOG_SPACE_TARGET,) if name == "mnist-clt" else ())
        for target in targets:
            budget = dataclasses.replace(ten, eps_target=target)
            evaluations.clear()
            result = acc.calibrate_sigma(budget, bound)
            # the documented 10 to 21; at least the bracket's two ends, so the
            # search evaluates through the module-level account
            assert 2 <= len(evaluations) <= 21
            assert account(result.sigma, budget, bound) == (result.eps_achieved, result.best_order)
            assert result.eps_achieved <= target
            if result.sigma != 1e-3:  # the clamp floor need not be minimal
                eps_below, _ = account(result.sigma * (1 - 1e-10), budget, bound)
                assert eps_below > target


class TestCalibrationPins:
    @pytest.mark.parametrize("case", list(CALIBRATION_PINS), ids="-".join)
    def test_bit_identical(self, case):
        acc._log_weight.cache_clear()
        result = reference_calibration(*case)
        assert (result.sigma, result.eps_achieved, result.best_order) == CALIBRATION_PINS[case]

    @pytest.mark.parametrize("case", list(CALIBRATION_PINS), ids="-".join)
    def test_subset_grid_charges_no_less(self, case):
        # the pinned optimum on the quarter-step grid against the same schedule
        # on its subset: an integer optimum is reached on both, a fractional
        # one (the "none" rows) only on the quarter-step grid
        budget, bound = reference_schedule(*case)
        sigma, eps, order = CALIBRATION_PINS[case]
        assert acc.account(sigma, budget, bound) == (eps, order)
        spec = acc.MechanismSpec(sigma=sigma, sensitivity_sq=bound.w)
        subset = at(acc.subsampled_rdp(spec, budget.sampling_rate), SUBSET_ORDERS)
        totals = subset * budget.steps + math.log(1.0 / budget.delta_conversion) / (SUBSET_ORDERS - 1.0)
        best = int(np.argmin(totals))
        eps_subset, order_subset = float(totals[best]), float(SUBSET_ORDERS[best])
        if order == int(order):
            assert (eps_subset, order_subset) == (eps, order)
        else:
            assert eps_subset > eps

    def test_table_built_once_per_calibration(self, monkeypatch):
        evaluations = counted_account(monkeypatch)
        acc._log_weight.cache_clear()
        reference_calibration("mnist-clt")
        info = acc._log_weight.cache_info()
        assert info.misses == 1
        assert info.hits == len(evaluations) - 1  # every evaluation after the first
        reference_calibration("mnist-bernstein")  # same gamma: same cached term
        assert acc._log_weight.cache_info().misses == 1


class TestAmplificationTableCache:
    def test_cached_arrays_are_read_only(self):
        acc.subsampled_rdp(acc.MechanismSpec(sigma=1.0, sensitivity_sq=1.0), 0.01)
        for arr in (acc._log_weight(0.01), acc.ORDERS, acc._ALPHAS, acc._ROW, acc._J, acc._LOG_BINOM):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_curve_does_not_alias_the_table(self):
        spec = acc.MechanismSpec(sigma=1.0, sensitivity_sq=1.0)
        curve = acc.subsampled_rdp(spec, 0.01)
        curve.eps_at_order[:] = 0.0
        assert (acc.subsampled_rdp(spec, 0.01).eps_at_order > 0).all()

    def test_interleaved_schedules_match_each_alone(self):
        # different gamma, evaluated in turn at each sigma, so every
        # evaluation switches tables
        cases = [("mnist-clt", "subsample"), ("celeba-bernstein", "subsample")]
        sigmas = np.geomspace(1e-3, 1e3, 25)

        def evaluate(case, sigma):
            return acc.account(sigma, *reference_schedule(*case))

        alone = {}
        for case in cases:
            acc._log_weight.cache_clear()
            alone[case] = [evaluate(case, sigma) for sigma in sigmas]
        acc._log_weight.cache_clear()
        interleaved = {case: [] for case in cases}
        for sigma in sigmas:
            for case in cases:
                interleaved[case].append(evaluate(case, sigma))
        assert interleaved == alone
        # a calibration on a cache that holds the other schedule's table
        for case, other in (cases, cases[::-1]):
            acc._log_weight.cache_clear()
            cold = reference_calibration(*case)
            reference_calibration(*other)
            assert reference_calibration(*case) == cold

    def test_evicted_tables_rebuild_identically(self):
        spec = acc.MechanismSpec(sigma=0.9, sensitivity_sq=3.0)
        acc._log_weight.cache_clear()
        gammas = [1.0 / m for m in range(20, 40)]  # more keys than the cache holds
        first = [acc.subsampled_rdp(spec, g).eps_at_order for g in gammas]
        again = [acc.subsampled_rdp(spec, g).eps_at_order for g in gammas]
        assert acc._log_weight.cache_info().currsize < len(gammas)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


class TestDirectionPolicy:
    budget = acc.PrivacyBudget(
        eps_target=3.0, delta_target=1e-6, steps=500, sampling_rate=0.02, delta_split=0.5
    )

    @pytest.mark.parametrize("make", [bernstein_bound, clt_bound])
    def test_fresh_is_fixed_at_union_bound_share(self, make):
        # T fresh draws are charged as T steps at the one per-draw bound that
        # fails w.p. delta_s / T
        per_draw = make(100, 50, self.budget.delta_sensitivity / self.budget.steps)
        bound = self.budget.tail_bound(per_draw.kind, 100, 50)
        assert bound == per_draw
        spec = acc.MechanismSpec(sigma=1.5, sensitivity_sq=per_draw.w)
        curve = acc.RdpCurve(acc.subsampled_rdp(spec, 0.02).eps_at_order * 500)
        assert acc.account(1.5, self.budget, bound) == acc.rdp_to_dp(curve, self.budget.delta_conversion)
        result = acc.calibrate_sigma(self.budget, bound)
        assert result.sensitivity is bound
        assert result.eps_achieved == acc.account(result.sigma, self.budget, bound)[0]

    def test_known_sensitivity_charged_at_its_own_bound(self):
        # a bound with no tail is charged as given at each of the T steps
        bound = fixed_sensitivity(1.0)
        spec = acc.MechanismSpec(sigma=1.5, sensitivity_sq=bound.w)
        curve = acc.RdpCurve(acc.subsampled_rdp(spec, 0.02).eps_at_order * 500)
        assert acc.account(1.5, self.budget, bound) == acc.rdp_to_dp(curve, self.budget.delta_conversion)
        result = acc.calibrate_sigma(self.budget, bound)
        assert result.sensitivity is bound

    def test_single_step_unchanged(self):
        # one draw: the whole tail share goes to it
        budget = acc.PrivacyBudget(eps_target=3.0, delta_target=1e-6, delta_split=0.5)
        bound = bernstein_bound(100, 50, budget.delta_sensitivity)
        assert budget.tail_bound("bernstein", 100, 50) == bound
        assert acc.calibrate_sigma(budget, bound).sensitivity is bound

    @pytest.mark.parametrize("steps", [1, 500])
    def test_fixed_sensitivity_has_no_tail(self, steps):
        # accepted at any T, with no share of delta, and charged as given
        budget = acc.PrivacyBudget(eps_target=3.0, delta_target=1e-6, steps=steps, delta_split=0.0)
        bound = fixed_sensitivity(1.0)
        spec = acc.MechanismSpec(sigma=1.5, sensitivity_sq=1.0)
        curve = acc.RdpCurve(acc.subsampled_rdp(spec, 1.0).eps_at_order * steps)
        assert acc.account(1.5, budget, bound) == acc.rdp_to_dp(curve, budget.delta_conversion)
        assert acc.calibrate_sigma(budget, bound).sensitivity is bound

    @pytest.mark.parametrize("steps", [2, 500])
    @pytest.mark.parametrize("make", [bernstein_bound, clt_bound])
    def test_bound_at_whole_tail_share_is_refused_over_many_steps(self, make, steps):
        # built at delta_s, a bound covers one draw, not the T the schedule makes
        budget = dataclasses.replace(self.budget, steps=steps)
        bound = make(100, 50, budget.delta_sensitivity)
        with pytest.raises(ValueError, match=r"build it with Schedule\.tail_bound"):
            acc.account(1.5, budget, bound)
        with pytest.raises(ValueError, match=r"build it with Schedule\.tail_bound"):
            acc.calibrate_sigma(budget, bound)

    @pytest.mark.parametrize("make", [bernstein_bound, clt_bound])
    def test_bound_below_per_draw_share_is_charged_as_given(self, make):
        # T delta <= delta_s: a smaller per-draw delta is sound, and is not rebuilt
        bound = make(100, 50, self.budget.delta_sensitivity / self.budget.steps / 4)
        spec = acc.MechanismSpec(sigma=1.5, sensitivity_sq=bound.w)
        curve = acc.RdpCurve(acc.subsampled_rdp(spec, 0.02).eps_at_order * 500)
        assert acc.account(1.5, self.budget, bound) == acc.rdp_to_dp(curve, self.budget.delta_conversion)

    @pytest.mark.parametrize("split", [0.0, 0.25])
    def test_bound_above_tail_share_is_refused(self, split):
        budget = acc.PrivacyBudget(
            eps_target=3.0, delta_target=1e-6, steps=500, sampling_rate=0.02, delta_split=split
        )
        bound = bernstein_bound(100, 50, 0.5e-6)
        with pytest.raises(ValueError, match="sensitivity share"):
            acc.account(1.5, budget, bound)
        with pytest.raises(ValueError, match="sensitivity share"):
            acc.calibrate_sigma(budget, bound)


class TestBudgetType:
    def test_delta_split_accessors(self):
        b = acc.PrivacyBudget(eps_target=1.0, delta_target=1e-4, delta_split=0.25)
        assert b.delta_sensitivity == pytest.approx(0.25e-4)
        assert b.delta_conversion == pytest.approx(0.75e-4)

    def test_tail_bound_at_sensitivity_share(self):
        b = acc.PrivacyBudget(eps_target=1.0, delta_target=1e-4, delta_split=0.25)
        assert b.tail_bound("clt", 100, 50) == clt_bound(100, 50, b.delta_sensitivity)
        no_share = acc.PrivacyBudget(eps_target=1.0, delta_target=1e-4, delta_split=0.0)
        with pytest.raises(ValueError, match="delta_split must be > 0"):
            no_share.tail_bound("bernstein", 100, 50)

    def test_tail_bound_refuses_unknown_kind(self):
        # the same check and message as FlowConfig's, not a KeyError
        message = r"bound_kind must be one of \('bernstein', 'clt'\), got 'foo'"
        budget = acc.PrivacyBudget(eps_target=1.0, delta_target=1e-4)
        with pytest.raises(ValueError, match=message):
            budget.tail_bound("foo", 100, 50)
        with pytest.raises(ValueError, match=message):
            FlowConfig(iterations=1, learning_rate=0.1, bound_kind="foo")

    @pytest.mark.parametrize("steps", [1, 3, 60000])
    @pytest.mark.parametrize("kind", list(TAIL_BOUNDS))
    def test_tail_bound_is_per_draw_share(self, kind, steps):
        b = acc.PrivacyBudget(eps_target=1.0, delta_target=1e-5, steps=steps, delta_split=0.5)
        bound = b.tail_bound(kind, 1000, 784)
        expected = TAIL_BOUNDS[kind](1000, 784, b.delta_sensitivity / steps)
        assert bound == expected
        assert (bound.w.hex(), bound.delta.hex()) == (expected.w.hex(), expected.delta.hex())

    def test_validation(self):
        with pytest.raises(ValueError):
            acc.PrivacyBudget(eps_target=0.0, delta_target=1e-5)
        with pytest.raises(ValueError):
            acc.PrivacyBudget(eps_target=1.0, delta_target=0.0)
        with pytest.raises(ValueError):
            acc.PrivacyBudget(eps_target=1.0, delta_target=1e-5, sampling_rate=0.0)
        with pytest.raises(ValueError):
            acc.PrivacyBudget(eps_target=1.0, delta_target=1e-5, delta_split=1.0)
        with pytest.raises(ValueError, match="steps must be an integer"):
            acc.PrivacyBudget(eps_target=1.0, delta_target=1e-5, steps=2.5)


class TestSchedule:
    def test_budget_is_a_schedule_plus_eps_target(self):
        budget = acc.PrivacyBudget(eps_target=1.0, delta_target=1e-5)
        assert isinstance(budget, acc.Schedule)
        schedule_fields = ["delta_target", "steps", "sampling_rate", "delta_split"]
        assert [f.name for f in dataclasses.fields(acc.Schedule)] == schedule_fields
        assert [f.name for f in dataclasses.fields(acc.PrivacyBudget)] == [*schedule_fields, "eps_target"]
        with pytest.raises(TypeError):
            acc.PrivacyBudget(1.0, 1e-5)  # eps_target is keyword-only

    @pytest.mark.parametrize("eps_target", [0.5, 40.0])
    def test_account_is_bit_equal_on_schedule_and_budget(self, eps_target):
        fields = dict(delta_target=1e-5, steps=600, sampling_rate=0.02, delta_split=0.3)
        schedule = acc.Schedule(**fields)
        budget = acc.PrivacyBudget(eps_target=eps_target, **fields)
        bound = schedule.tail_bound("bernstein", 200, 784)
        assert budget.tail_bound("bernstein", 200, 784) == bound
        eps, order = acc.account(0.9, schedule, bound)
        budget_eps, budget_order = acc.account(0.9, budget, bound)
        assert (eps.hex(), order) == (budget_eps.hex(), budget_order)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(delta_target=5.0), r"delta must lie in \(0, 1\), got 5.0"),
        (dict(delta_target=1e-5, delta_split=1.0), r"delta_split must lie in \[0, 1\), got 1.0"),
        (dict(delta_target=1e-5, sampling_rate=0.0), r"sampling_rate must lie in \(0, 1\], got 0.0"),
        (dict(delta_target=1e-5, steps=0), "steps must be >= 1, got 0"),
    ], ids=["delta", "delta-split", "sampling-rate", "steps"])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            acc.Schedule(**kwargs)
        with pytest.raises(ValueError, match=message):
            acc.PrivacyBudget(eps_target=1.0, **kwargs)

    @pytest.mark.parametrize("kwargs", [dict(delta=5.0), dict(delta_split=1.0)], ids=["delta", "delta-split"])
    def test_flow_config_refuses_with_the_schedule_message(self, kwargs):
        with pytest.raises(ValueError) as flow_error:
            FlowConfig(iterations=5, learning_rate=0.1, **kwargs)
        with pytest.raises(ValueError) as schedule_error:
            acc.Schedule(kwargs.get("delta", 1e-5), 5, delta_split=kwargs.get("delta_split", 0.5))
        assert str(flow_error.value) == str(schedule_error.value)
