import math

import numpy as np
import pytest
from scipy import integrate, special

from dpswd import from_points, normalize_for_privacy
from dpswd.measures import DataError, EmpiricalMeasure
from dpswd import randomness
from dpswd.randomness import sample_sphere
from dpswd.sliced_distance import (
    SwdConfig,
    _sort_rows,
    dp_swd,
    smoothed_swd,
    swd,
    value_and_gradient,
)
from dpswd.wasserstein1d import per_row_costs

V5 = 2 * (5 - 1) / (25 * (5 + 2))  # variance of a squared projection at d=5


def ladder(values, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """(ascending values, cumulative weights ending at 1), zero weights dropped."""
    v = np.asarray(values, dtype=float)
    w = np.full(v.size, 1.0 / v.size) if weights is None else weights / weights.sum()
    order = np.argsort(v, kind="stable")
    keep = w[order] > 0
    c = np.cumsum(w[order][keep])
    c[-1] = 1.0
    return v[order][keep], c


def walk_cost(a: tuple, b: tuple, q: float) -> float:
    """Reference W_q^q: walk the merged breakpoints of two ladders one segment at a time."""
    (va, ca), (vb, cb) = a, b
    i = j = 0
    z = 0.0
    total = 0.0
    while i < va.size and j < vb.size:
        zn = min(ca[i], cb[j])
        seg = zn - z
        if seg > 0:
            total += seg * abs(va[i] - vb[j]) ** q
        z = zn
        if ca[i] <= zn:
            i += 1
        if cb[j] <= zn:
            j += 1
    return total


def gaussian_cloud(n, d, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    return from_points(rng.standard_normal((n, d)) + shift)


class RecordingMeasure:
    """Duck-typed measure that counts raw-coordinate reads."""

    def __init__(self, inner: EmpiricalMeasure):
        self._inner = inner
        self.point_reads = 0

    @property
    def points(self):
        self.point_reads += 1
        return self._inner.points

    @property
    def weights(self):
        return self._inner.weights

    @property
    def n(self):
        return self._inner.n

    @property
    def dim(self):
        return self._inner.dim

    def is_uniform(self):
        return self._inner.is_uniform()


class TestSwd:
    def test_identity_is_exact_zero(self):
        a = gaussian_cloud(20, 3, 0)
        cfg = SwdConfig(k=50, q=2, seed=1)
        assert swd(a, a, cfg).value == 0.0

    def test_symmetry_under_swap(self):
        a, b = gaussian_cloud(15, 4, 1), gaussian_cloud(12, 4, 2)
        cfg = SwdConfig(k=64, q=2, seed=3)
        assert swd(a, b, cfg).value == swd(b, a, cfg).value

    def test_single_dirac_expectation(self):
        # E[(x-y)^T u]^2 = ||x-y||^2/d; at unit separation and d=5 the mean
        # is 0.2 with per-projection variance v_5
        d, k = 5, 100_000
        x = np.zeros(d)
        y = np.zeros(d)
        y[0] = 1.0
        cfg = SwdConfig(k=k, q=2, seed=7)
        val = swd(from_points([x]), from_points([y]), cfg).value
        assert abs(val - 0.2) <= 3 * np.sqrt(V5 / k)

    def test_value_is_mean_of_projections(self):
        a, b = gaussian_cloud(9, 3, 4), gaussian_cloud(9, 3, 5)
        res = swd(a, b, SwdConfig(k=128, q=2, seed=6))
        assert res.value == pytest.approx(float(res.per_projection.mean()), abs=1e-12)
        assert res.per_projection.shape == (128,)
        assert (res.per_projection >= 0).all()

    def test_deterministic_on_weighted_path(self):
        a, b = gaussian_cloud(10, 3, 8), gaussian_cloud(10, 3, 9)
        w = np.linspace(1, 2, 10)
        aw = from_points(a.points, w)  # weighted path merges per-row ladders
        cfg = SwdConfig(k=700, q=2, seed=10)
        r1 = swd(aw, b, cfg)
        r2 = swd(aw, b, cfg)
        assert np.array_equal(r1.per_projection, r2.per_projection)

    def test_noised_projections_prefix_stable_in_k(self):
        a, b = gaussian_cloud(12, 4, 16), gaussian_cloud(9, 4, 17)
        short = smoothed_swd(a, b, SwdConfig(k=24, seed=18, sigma=0.7))
        long = smoothed_swd(a, b, SwdConfig(k=48, seed=18, sigma=0.7))
        assert np.array_equal(short.per_projection, long.per_projection[:24])

    def test_weighted_matches_uniform_on_duplicated_support(self):
        pts = np.array([[0.0, 1.0], [2.0, -1.0]])
        uniform = from_points(np.vstack([pts, pts]))
        weighted = from_points(pts, weights=[0.5, 0.5])
        cfg = SwdConfig(k=32, q=2, seed=11)
        b = gaussian_cloud(4, 2, 12)
        assert swd(uniform, b, cfg).value == pytest.approx(swd(weighted, b, cfg).value, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError, match="dimension mismatch"):
            swd(gaussian_cloud(3, 2, 0), gaussian_cloud(3, 3, 0), SwdConfig(seed=0))

    @pytest.mark.parametrize("field, value", [("q", np.nan), ("q", np.inf), ("q", 0.5),
                                              ("sigma", np.nan), ("sigma", np.inf), ("sigma", -1.0)])
    def test_config_rejects_non_finite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SwdConfig(**{field: value})

    @pytest.mark.parametrize("k", [2.5, np.float64(3.0), True])
    def test_config_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            SwdConfig(k=k)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 1005.0}, "seed must be an integer, got 1005.0"),
        ({"noise_seed": 2.5, "sigma": 1}, "noise_seed must be an integer, got 2.5"),
        ({"seed": True}, "seed must be an integer, got True"),
    ], ids=["float_seed", "float_noise_seed", "bool_seed"])
    def test_config_rejects_non_integer_seed(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SwdConfig(**kwargs)

    def test_config_takes_any_integer_seed_modulo_2_64(self):
        a, b = gaussian_cloud(6, 3, 19), gaussian_cloud(5, 3, 20)
        negative = SwdConfig(k=8, seed=np.int64(-1), noise_seed=-2, sigma=0.5)
        wrapped = SwdConfig(k=8, seed=2**64 - 1, noise_seed=np.uint64(2**64 - 2), sigma=0.5)
        assert np.array_equal(smoothed_swd(a, b, negative).per_projection,
                              smoothed_swd(a, b, wrapped).per_projection)

    def test_sigma_nonzero_rejected(self):
        with pytest.raises(ValueError):
            swd(gaussian_cloud(3, 2, 0), gaussian_cloud(3, 2, 1), SwdConfig(sigma=1.0))

    def test_per_projection_iid_consistency(self):
        # disjoint blocks of projections estimate the same mean
        a, b = gaussian_cloud(25, 4, 13), gaussian_cloud(25, 4, 14)
        res = swd(a, b, SwdConfig(k=8000, q=2, seed=15))
        blocks = res.per_projection.reshape(4, 2000).mean(axis=1)
        se = res.per_projection.std() / np.sqrt(2000)
        assert np.abs(blocks - res.value).max() <= 5 * se

    def test_variance_halves_when_k_doubles(self):
        x = from_points([np.zeros(5)])
        y = from_points([np.r_[1.0, np.zeros(4)]])
        v1 = np.array([swd(x, y, SwdConfig(k=64, q=2, seed=s)).value for s in range(100)])
        v2 = np.array([swd(x, y, SwdConfig(k=128, q=2, seed=s)).value for s in range(100)])
        ratio = v1.var(ddof=1) / v2.var(ddof=1)
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


class TestPerProjectionCosts:
    """The vectorized ladder merge against the scalar breakpoint walk."""

    @staticmethod
    def sorted_side(rows, weights):
        order = np.argsort(rows, axis=1, kind="stable")
        sorted_rows = np.take_along_axis(rows, order, axis=1)
        return sorted_rows, None if weights is None else weights[order]

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize(
        "n, m, weighted_a, weighted_b",
        [(7, 7, False, False), (7, 5, False, False), (5, 12, False, False),
         (7, 5, True, False), (6, 9, False, True), (8, 8, True, True), (3, 11, True, True)],
    )
    def test_matches_loop_reference(self, n, m, weighted_a, weighted_b, q):
        rng = np.random.default_rng(n * 100 + m)
        k = 40
        # one decimal makes ties within and across rows common
        rows_a = np.round(rng.standard_normal((k, n)), 1)
        rows_b = np.round(rng.standard_normal((k, m)) + 0.3, 1)
        w_a = rng.uniform(0.1, 1.0, n) if weighted_a else None
        w_b = rng.uniform(0.1, 1.0, m) if weighted_b else None
        for w in (w_a, w_b):
            if w is not None:
                w[1] = 0.0  # a zero weight must contribute no mass
        # weights are left unnormalized: like ladder, the costs rescale them
        got = per_row_costs(*self.sorted_side(rows_a, w_a), *self.sorted_side(rows_b, w_b), q)
        expected = [
            walk_cost(ladder(rows_a[j], w_a), ladder(rows_b[j], w_b), q)
            for j in range(k)
        ]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_sort_rows_order_is_the_stable_argsort():
    rng = np.random.default_rng(3)
    x = np.round(rng.standard_normal((50, 30)), 1)  # one decimal: ties in most rows
    x[:10] = rng.standard_normal((10, 30))  # rows of distinct values
    x[10, [3, 7]] = np.nan
    rows, order = _sort_rows(x)
    expected = np.argsort(x, axis=1, kind="stable")
    assert np.array_equal(order, expected)
    assert np.array_equal(rows, np.take_along_axis(x, expected, axis=1), equal_nan=True)


class TestWeightedSideReference:
    """smoothed_swd with a weighted side, against the release rebuilt by hand."""

    @staticmethod
    def reference(a, b, cfg) -> np.ndarray:
        directions = sample_sphere(a.dim, cfg.k, cfg.seed)
        sides = []
        for m, purpose in ((a, randomness.PURPOSE_NOISE_SOURCE),
                           (b, randomness.PURPOSE_NOISE_TARGET)):
            proj = directions.T @ m.points.T
            if cfg.sigma > 0:
                proj = proj + randomness.sample_gaussian_matrix(cfg.k, m.n, cfg.sigma,
                                                                cfg.seed, purpose)
            order = np.argsort(proj, axis=1, kind="stable")
            sides += [np.take_along_axis(proj, order, axis=1),
                      None if m.is_uniform() else m.weights[order]]
        return per_row_costs(*sides, cfg.q)

    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    @pytest.mark.parametrize("weighted_first", [True, False])
    def test_matches_stable_argsort_reference(self, sigma, weighted_first):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((12, 4))
        pts[6:9] = pts[:3]  # duplicated rows tie in every projection
        weighted = from_points(pts, rng.uniform(0.1, 2.0, 12))
        uniform = gaussian_cloud(9, 4, 22)
        a, b = (weighted, uniform) if weighted_first else (uniform, weighted)
        cfg = SwdConfig(k=64, q=1.5, seed=23, sigma=sigma)
        got = smoothed_swd(a, b, cfg).per_projection
        assert np.array_equal(got, self.reference(a, b, cfg))


class TestDpSwd:
    def test_requires_positive_sigma(self):
        a = normalize_for_privacy(gaussian_cloud(5, 3, 0))
        with pytest.raises(ValueError, match="sigma > 0"):
            dp_swd(a, a, SwdConfig(k=8, sigma=0.0, seed=1))

    def test_rejects_unnormalized_inputs(self):
        raw = gaussian_cloud(30, 3, 1)
        ok = normalize_for_privacy(raw)
        with pytest.raises(DataError, match="not privacy-normalized"):
            dp_swd(raw, ok, SwdConfig(k=8, sigma=1.0, seed=2))
        with pytest.raises(DataError, match="not privacy-normalized"):
            dp_swd(ok, raw, SwdConfig(k=8, sigma=1.0, seed=2))

    def test_rejects_weighted_private_side(self):
        a = normalize_for_privacy(gaussian_cloud(50, 4, 3), clip=4.0)
        b = normalize_for_privacy(gaussian_cloud(50, 4, 4), clip=4.0)
        cfg = SwdConfig(k=20, sigma=1.0, seed=3)
        heavy = np.ones(50)
        heavy[0] = 49.0  # one record holds 49/98 of the mass, and no noise hides it
        with pytest.raises(ValueError, match="uniform weights required on the private side"):
            dp_swd(a, from_points(b.points, heavy), cfg)
        # the public side's weights are public: accepted, and they move the value
        weighted_public = dp_swd(from_points(a.points, heavy), b, cfg).value
        assert weighted_public != dp_swd(a, b, cfg).value

    def test_sigma_to_zero_limit(self):
        a = normalize_for_privacy(gaussian_cloud(20, 3, 3))
        b = normalize_for_privacy(gaussian_cloud(20, 3, 4))
        plain = swd(a, b, SwdConfig(k=64, q=2, seed=5)).value
        noised = smoothed_swd(a, b, SwdConfig(k=64, q=2, seed=5, sigma=1e-8)).value
        assert abs(noised - plain) <= 1e-6

    def test_smoothing_bias_positive_and_shrinks_with_n(self):
        def bias(n):
            vals = []
            for s in range(5):
                m = normalize_for_privacy(gaussian_cloud(n, 3, 100 + s))
                vals.append(dp_swd(m, m, SwdConfig(k=64, q=2, seed=s, sigma=1.0)).value)
            return np.mean(vals)

        b50, b500 = bias(50), bias(500)
        assert b500 > 0
        assert b500 < b50

    def test_private_side_consumed_once_into_projections(self):
        a = normalize_for_privacy(gaussian_cloud(10, 3, 9))
        b = RecordingMeasure(normalize_for_privacy(gaussian_cloud(10, 3, 10)))
        res = dp_swd(a, b, SwdConfig(k=16, sigma=0.7, seed=11))
        # one read by the normalization guard, one by the projection release;
        # no distance code touches the raw coordinates afterwards
        assert b.point_reads == 2
        assert res.value > 0

    def test_pseudo_triangle_inequality_fixed_draw(self):
        cfg = SwdConfig(k=48, q=2, seed=12, sigma=0.4)
        ms = [
            normalize_for_privacy(gaussian_cloud(12, 3, 20 + i, shift=i * 0.5)) for i in range(3)
        ]
        dab = smoothed_swd(ms[0], ms[1], cfg).value ** 0.5
        dbc = smoothed_swd(ms[1], ms[2], cfg).value ** 0.5
        dac = smoothed_swd(ms[0], ms[2], cfg).value ** 0.5
        # per-projection W_q is a metric and the same noise draw is applied
        # to each argument slot, so the rooted values obey the triangle
        # inequality up to rounding
        assert dac <= dab + dbc + 1e-12


def isotropic_pair(s1, s2, shift, n, seed):
    """n draws each of N(0, s1^2 I_5) and N(shift e_1, s2^2 I_5)."""
    rng = np.random.default_rng(seed)
    a = s1 * rng.standard_normal((n, 5))
    b = s2 * rng.standard_normal((n, 5))
    b[:, 0] += shift
    return from_points(a), from_points(b)


def sswd_closed_form(s1, s2, shift, sigma, n, k):
    """(exact SSWD_2^2, tolerance) for smoothed_swd on isotropic_pair.

    Each noised projection of a side is N(u.m, s^2 + sigma^2), and 1-D W_2^2
    between N(mu1, a^2) and N(mu2, b^2) is (mu1 - mu2)^2 + (a - b)^2, so the
    mean over directions is |m1 - m2|^2/d + (a - b)^2. The tolerance is four
    standard errors plus the finite-n bias:
    - directions: |m1 - m2|^4 * V5 / k;
    - finite n, to first order in the sample mean and scale of each side,
      averaged over the k directions: the data part shrinks by d, the
      noise part (fresh per direction) by k;
    - bias: E W_2^2 of the sorted coupling exceeds the exact value by
      2ab * beta_n, beta_n = (1/n) sum_i Var z_(i) for standard normal
      order statistics; n * beta_n is about 3 to 3.7 for n = 100..20000,
      below the 1 + ln n used here.
    """
    d, d2 = 5, shift**2
    a, b = np.hypot(s1, sigma), np.hypot(s2, sigma)
    var_n = (4 * d2 * (s1**2 + s2**2) / d**2 + 8 * sigma**2 * d2 / (d * k)
             + sum((a - b) ** 2 / v**2 * (2 * s**4 / d + 2 * (v**4 - s**4) / k)
                   for s, v in ((s1, a), (s2, b)))) / n
    se = np.sqrt(var_n + d2**2 * V5 / k)
    return d2 / d + (a - b) ** 2, 4 * se + 2 * a * b * (1 + np.log(n)) / n


class TestSmoothedClosedForm:
    """Noising both sides' projections gives the smoothed SWD of mu*N and nu*N."""

    @pytest.mark.parametrize("s1, s2, shift", [(1.0, 2.0, 0.0), (0.5, 1.5, 0.3)])
    def test_matches_isotropic_gaussian_oracle(self, s1, s2, shift):
        n, k = 10000, 200
        a, b = isotropic_pair(s1, s2, shift, n, seed=40)
        exact, tol = sswd_closed_form(s1, s2, shift, 1.0, n, k)
        value = smoothed_swd(a, b, SwdConfig(k=k, q=2, seed=41, sigma=1.0)).value
        assert abs(value - exact) <= tol

    def test_gap_shrinks_as_n_grows(self):
        def mean_gap(n):
            exact, tol = sswd_closed_form(1.0, 2.0, 0.0, 1.0, n, 100)
            gaps = [abs(smoothed_swd(*isotropic_pair(1.0, 2.0, 0.0, n, seed=50 + r),
                                     SwdConfig(k=100, q=2, seed=60 + r, sigma=1.0)).value - exact)
                    for r in range(5)]
            assert max(gaps) <= tol
            return np.mean(gaps)

        assert mean_gap(4000) < mean_gap(250)


def normal_order_means(n):
    """E[Z_(i)], i = 1..n, for n i.i.d. standard normals: quadrature of
    x n C(n-1, i-1) Phi(x)^(i-1) (1 - Phi(x))^(n-i) phi(x) over the real line."""
    def mean(i):
        c = n * math.comb(n - 1, i - 1) / math.sqrt(2 * math.pi)
        return integrate.quad(lambda x: x * c * special.ndtr(x) ** (i - 1)
                              * special.ndtr(-x) ** (n - i) * math.exp(-x * x / 2),
                              -np.inf, np.inf)[0]

    return np.array([mean(i) for i in range(1, n + 1)])


# a point pair in d = 5 with |x - y| = 1; the coordinates of x - y do not sum
# to zero, so noise drawn from the direction stream biases the cost
NOISE_X = np.array([0.3, -0.1, 0.4, 0.2, 0.0])
NOISE_DELTA = np.array([0.2, 0.4, 0.4, 0.0, 0.8])
# 12 checks (2 estimators x 2 sigma x 3 n) of a mean of k = 40000 i.i.d.
# costs; at |z| <= 4 each fails by chance with probability 6.3e-5, so the
# family fails with probability below 1e-3
NOISE_Z_BOUND = 4.0


class TestNoiseScaleOracle:
    """The exact expected cost of the private release at finite n.

    With a = n copies of x and b = n copies of y, projection j releases
    u.x + sigma Z and u.y + sigma Z' with n i.i.d. standard normals per
    side. Its sorted q = 2 cost is (u.D)^2 + 2 sigma u.D (mean Z - mean Z')
    + sigma^2 (1/n) sum_i (Z_(i) - Z'_(i))^2, D = x - y, whose expectation
    is |D|^2/d + 2 sigma^2 (1 - (1/n) sum_i m_i^2), m_i = E[Z_(i)]. The k
    per-projection costs are i.i.d., so per_projection gives the standard
    error. This fixes the noise scale sigma (not sigma^2), noise on both
    sides, and independent draws for the two sides and the directions.
    """

    @pytest.mark.parametrize("estimator", ["smoothed_swd", "value_and_gradient"])
    @pytest.mark.parametrize("n", [1, 5, 20])
    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_mean_cost_matches_order_statistics(self, sigma, n, estimator):
        d, k = 5, 40000
        a = from_points(np.tile(NOISE_X, (n, 1)))
        b = from_points(np.tile(NOISE_X - NOISE_DELTA, (n, 1)))
        seed = int(1000 * n + 10 * sigma) + (estimator == "value_and_gradient")
        cfg = SwdConfig(k=k, q=2, seed=seed, sigma=sigma)
        released = smoothed_swd(a, b, cfg)
        value = released.value if estimator == "smoothed_swd" else value_and_gradient(a, b, cfg)[0]
        expected = (NOISE_DELTA @ NOISE_DELTA) / d + 2 * sigma**2 * (
            1 - np.mean(normal_order_means(n) ** 2))
        se = released.per_projection.std(ddof=1) / math.sqrt(k)
        assert abs(value - expected) <= NOISE_Z_BOUND * se, (value, expected, se)


class TestGradient:
    def test_zero_at_identical_inputs(self):
        a = gaussian_cloud(8, 3, 0)
        g = value_and_gradient(a, a, SwdConfig(k=16, q=2, seed=1))[1]
        assert np.abs(g).max() == 0.0

    def test_requires_q2_equal_counts_uniform(self):
        a, b = gaussian_cloud(8, 3, 1), gaussian_cloud(8, 3, 2)
        with pytest.raises(ValueError, match="q=2"):
            value_and_gradient(a, b, SwdConfig(k=4, q=1, seed=0))
        with pytest.raises(DataError, match="equal sample counts"):
            value_and_gradient(a, gaussian_cloud(7, 3, 3), SwdConfig(k=4, seed=0))
        weighted = from_points(b.points, weights=np.linspace(1, 2, 8))
        with pytest.raises(ValueError, match="uniform"):
            value_and_gradient(a, weighted, SwdConfig(k=4, seed=0))

    @staticmethod
    def finite_difference(a_pts, b, cfg, h=1e-5):
        n, d = a_pts.shape
        grad = np.zeros((n, d))
        for i in range(n):
            for j in range(d):
                up, dn = a_pts.copy(), a_pts.copy()
                up[i, j] += h
                dn[i, j] -= h
                f_up = smoothed_swd(from_points(up), b, cfg).value
                f_dn = smoothed_swd(from_points(dn), b, cfg).value
                grad[i, j] = (f_up - f_dn) / (2 * h)
        return grad

    def _well_separated_instance(self, seed, n=8, d=3, k=16, sigma=0.0):
        # keep projected points away from sorting ties so the finite
        # difference probes a smooth neighborhood
        rng = np.random.default_rng(seed)
        while True:
            a_pts = rng.standard_normal((n, d))
            b_pts = rng.standard_normal((n, d))
            cfg = SwdConfig(k=k, q=2, seed=int(rng.integers(2**31)), sigma=sigma)
            u = sample_sphere(d, k, cfg.seed)
            gaps = []
            for proj in (a_pts @ u, b_pts @ u):
                srt = np.sort(proj, axis=0)
                gaps.append(np.diff(srt, axis=0).min())
            if min(gaps) > 1e-3:
                return a_pts, from_points(b_pts), cfg

    def test_matches_central_differences(self):
        worst = 0.0
        for trial in range(50):
            a_pts, b, cfg = self._well_separated_instance(1000 + trial)
            analytic = value_and_gradient(from_points(a_pts), b, cfg)[1]
            numeric = self.finite_difference(a_pts, b, cfg)
            rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_matches_central_differences_with_noise(self):
        # fixed seed keeps the noise realization constant across FD probes
        a_pts, b, cfg = self._well_separated_instance(77, sigma=0.3)
        analytic = value_and_gradient(from_points(a_pts), b, cfg)[1]
        numeric = self.finite_difference(a_pts, b, cfg)
        rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        assert rel <= 1e-5

    def test_translation_identity(self):
        # summing the gradient over particles telescopes the matching:
        # sum_i grad_i = (2/k) sum_j u_j u_j^T (mean(a) - mean(b))
        a, b = gaussian_cloud(10, 4, 5), gaussian_cloud(10, 4, 6)
        cfg = SwdConfig(k=32, q=2, seed=7)
        g = value_and_gradient(a, b, cfg)[1]
        u = sample_sphere(4, cfg.k, cfg.seed)
        expected = (2.0 / cfg.k) * u @ u.T @ (a.points.mean(axis=0) - b.points.mean(axis=0))
        assert np.abs(g.sum(axis=0) - expected).max() <= 1e-10

    def test_value_and_gradient_consistent(self):
        a, b = gaussian_cloud(6, 2, 8), gaussian_cloud(6, 2, 9)
        cfg = SwdConfig(k=8, q=2, seed=10, sigma=0.5)
        v, g = value_and_gradient(a, b, cfg)
        assert v == smoothed_swd(a, b, cfg).value
        assert np.array_equal(g, value_and_gradient(a, b, cfg)[1])
