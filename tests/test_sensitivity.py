import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from dpswd import sensitivity as sens
from dpswd.randomness import PURPOSE_SENSITIVITY, monte_carlo_stream


def serial_reference(d: int, k: int, trials: int, seed) -> np.ndarray:
    """The seeded sample since 0.12.0, one chunk, block and redraw round at a time.

    Chunk i of 1024 trials comes from Monte Carlo stream i and is filled
    min(1024, max(1, 2**17 // k)) rows at a time; each row sums its k
    Beta(1/2, (d-1)/2) terms.
    """
    if d == 1:
        return np.full(trials, float(k))
    out = np.empty(trials)
    rows = min(1024, max(1, 2**17 // k))
    for chunk_index, start in enumerate(range(0, trials, 1024)):
        rng = monte_carlo_stream(seed, PURPOSE_SENSITIVITY, chunk_index)
        stop = min(start + 1024, trials)
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            out[lo:hi] = reference_terms(rng, hi - lo, k, d).sum(axis=1)
    return out


def rejection_probability(x: np.ndarray, c: float) -> np.ndarray:
    """q(x) = 1 - exp(c (log1p(-x) + x)) below 1, and 1 from there on."""
    q = np.ones_like(x)
    inside = x < 1
    q[inside] = -np.expm1(c * (np.log1p(-x[inside]) + x[inside]))
    return q


def reference_terms(rng, rows: int, k: int, d: int) -> np.ndarray:
    """One block of terms: the g^2/(g^2+Q) ratio for d <= 3, else envelope rejection.

    For d >= 4, every pending slot (row-major) draws t^2 = g^2/(d-3), and
    each is rejected with probability q(t^2), c = (d-3)/2, by thinning at
    tau = 1/64: K ~ Binomial(n, tau) slots are marked (choice without
    replacement or shuffle); a slot above x_small draws U and is rejected
    iff U < q, then a marked slot at or below x_small draws U and is
    rejected iff tau U < q. Unmarked small slots are kept.
    """
    if d <= 3:
        g_sq = rng.standard_normal((rows, k)) ** 2
        return g_sq / (g_sq + rng.chisquare(d - 1, size=(rows, k)))
    c, tau = (d - 3) / 2, 1 / 64
    x_small = (math.sqrt(tau**2 + 2 * c * tau) - tau) / c
    terms = np.empty(rows * k)
    pending = np.arange(rows * k)
    while pending.size:
        n = pending.size
        x = rng.standard_normal(n) ** 2 / (d - 3)
        marks = rng.choice(n, rng.binomial(n, tau), replace=False, shuffle=False)
        keep = x <= x_small
        big = np.flatnonzero(~keep)
        keep[big] = rng.random(big.size) >= rejection_probability(x[big], c)
        marked = [m for m in marks if x[m] <= x_small]
        for m, u in zip(marked, rng.random(len(marked))):
            keep[m] = tau * u >= rejection_probability(x[m:m + 1], c)[0]
        terms[pending[keep]] = x[keep]
        pending = pending[~keep]
    return terms.reshape(rows, k)


def ratio_oracle(d: int, k: int, trials: int, rng) -> np.ndarray:
    """H drawn as in 0.5.1: each term g^2/(g^2+Q), g ~ N(0, 1), Q ~ chi-square(d-1)."""
    g_sq = rng.standard_normal((trials, k)) ** 2
    return (g_sq / (g_sq + rng.chisquare(d - 1, size=(trials, k)))).sum(axis=1)


# fixed before the first run: a correct sampler fails each KS test with
# probability 1e-3
KS_P_MIN = 1e-3
# fixed before the first run: a correct acceptance step fails each binomial
# frequency check with probability 1e-6
BINOMIAL_P_MIN = 1e-6


class TestBetaMoments:
    def test_d5_exact(self):
        m = sens.beta_moments(5)
        assert m.mean == pytest.approx(0.2, abs=0)
        assert m.variance == pytest.approx(8 / 175, rel=1e-15)

    def test_d784(self):
        m = sens.beta_moments(784)
        assert m.mean == pytest.approx(1 / 784, rel=1e-15)
        assert 0 < m.variance < m.mean

    def test_large_d_limit(self):
        m = sens.beta_moments(10**6)
        assert m.variance * (10**6) ** 2 == pytest.approx(2.0, rel=1e-4)

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            sens.beta_moments(1)

    def test_non_integer_d_rejected(self):
        for bad in (784.5, 784.0, True, np.float64(784)):
            with pytest.raises(ValueError, match="d must be an integer"):
                sens.beta_moments(bad)
        assert sens.beta_moments(np.int64(784)) == sens.beta_moments(784)


class TestBernsteinBound:
    def test_reference_value(self):
        # k/d + (2/3)ln(1/delta) + (2/d)sqrt(k (d-1)/(d+2) ln(1/delta))
        assert sens.bernstein_bound(200, 784, 1e-5).w == pytest.approx(8.0526, abs=1e-3)

    def test_hand_evaluated_small_case(self):
        # k=1, d=2, delta=0.5: 0.5 + (2/3)ln2 + sqrt(2 k v_2 ln2) with v_2 = 1/8
        expected = 0.5 + (2 / 3) * math.log(2) + math.sqrt(2 * (1 / 8) * math.log(2))
        assert expected == pytest.approx(1.3783754, abs=1e-6)
        assert sens.bernstein_bound(1, 2, 0.5).w == pytest.approx(expected, rel=1e-12)

    def test_delta_to_one_limit(self):
        # ln(1/delta) -> 0 drives the bound down to the mean k/d; the sqrt
        # term decays like sqrt(ln(1/delta)), so the 1e-5 gap needs delta
        # extremely close to 1 at k=200
        b = sens.bernstein_bound(200, 784, 1 - 1e-12)
        assert 0 <= b.w - 200 / 784 <= 1e-5
        gaps = [sens.bernstein_bound(200, 784, 1 - 10.0**-e).w - 200 / 784 for e in (2, 4, 8, 12)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_monotone_in_delta_and_k(self):
        deltas = [0.5, 0.1, 0.01, 1e-4, 1e-8]
        ws = [sens.bernstein_bound(200, 100, d).w for d in deltas]
        assert all(a < b for a, b in zip(ws, ws[1:]))
        ks = [1, 10, 100, 1000]
        ws = [sens.bernstein_bound(k, 100, 1e-5).w for k in ks]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_domain_checks(self):
        for bad_delta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                sens.bernstein_bound(10, 10, bad_delta)
        with pytest.raises(ValueError):
            sens.bernstein_bound(0, 10, 0.1)
        with pytest.raises(ValueError):
            sens.bernstein_bound(10, 1, 0.1)

    @pytest.mark.parametrize("bound", [sens.bernstein_bound, sens.clt_bound])
    @pytest.mark.parametrize("k,d", [(10, 784.5), (40.0, 784), (True, 784), (40, np.float32(784))])
    def test_non_integer_k_or_d_rejected(self, bound, k, d):
        with pytest.raises(ValueError, match="must be an integer"):
            bound(k, d, 0.1)

    def test_numpy_integers_accepted(self):
        assert sens.bernstein_bound(np.int32(40), np.int64(784), 0.1).w == sens.bernstein_bound(40, 784, 0.1).w

    @pytest.mark.parametrize("bound", [sens.bernstein_bound, sens.clt_bound])
    @pytest.mark.parametrize("k,d,name", [(10**309, 784, "k"), (40, 10**400, "d")])
    def test_count_beyond_float64_rejected(self, bound, k, d, name):
        # the bound computes k/d and k (d-1)/(d+2) as floats
        with pytest.raises(ValueError, match=f"^{name} must be at most 1.79769e\\+308"):
            bound(k, d, 0.1)


class TestCheckCount:
    def test_counts_end_at_float64_max_and_seeds_do_not(self):
        largest = int(sys.float_info.max)
        sens._check_count("k", largest, 1)
        with pytest.raises(ValueError, match="k must be at most"):
            sens._check_count("k", largest + 1, 1)
        for seed in (largest + 1, 10**400, -(10**400)):  # taken mod 2**64 by their users
            sens._check_count("seed", seed, -math.inf)


class TestCltBound:
    def test_reference_value(self):
        assert sens.clt_bound(200, 784, 1e-5).w == pytest.approx(0.3637, abs=1e-3)

    def test_delta_half_is_mean(self):
        assert sens.clt_bound(200, 784, 0.5).w == 200 / 784

    def test_tighter_than_bernstein_in_reference_regime(self):
        assert sens.clt_bound(200, 784, 1e-5).w < sens.bernstein_bound(200, 784, 1e-5).w

    def test_ordering_on_realistic_grid(self):
        # mean < clt <= bernstein for delta <= 0.1, k >= 30, moderate k/d^2
        for d in (5, 50, 100, 784):
            for k in (30, 50, 100, 200):
                for delta in (0.1, 0.01, 1e-3, 1e-5):
                    lo = k / d
                    c = sens.clt_bound(k, d, delta).w
                    b = sens.bernstein_bound(k, d, delta).w
                    assert lo < c <= b, (k, d, delta)

    def test_monotone(self):
        ws = [sens.clt_bound(100, 50, d).w for d in (0.4, 0.1, 0.01, 1e-6)]
        assert all(a < b for a, b in zip(ws, ws[1:]))
        ws = [sens.clt_bound(k, 50, 1e-3).w for k in (30, 60, 120, 240)]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_small_k_warns(self):
        with pytest.warns(UserWarning, match="k=10"):
            sens.clt_bound(10, 50, 0.1)

    # the reference rows' per-draw deltas and levels at which 1 - delta rounds to 1.0
    @pytest.mark.parametrize("delta", [1e-5, 8.3e-11, 7.9e-12, 1e-18, 1e-300])
    def test_upper_quantile_matches_normal_isf(self, delta):
        k, d = 1000, 784
        expected = k / d + (stats.norm.isf(delta) / d) * math.sqrt(2.0 * k * (d - 1) / (d + 2))
        assert sens.clt_bound(k, d, delta).w == pytest.approx(expected, rel=1e-14)


class TestSimulation:
    def test_d1_every_realization_is_k(self):
        h = sens.simulate_sensitivity(1, 17, 200, seed=0)
        assert np.array_equal(h, np.full(200, 17.0))

    def test_mean_matches_beta_moments(self):
        d, k, trials = 784, 200, 10_000
        h = sens.simulate_sensitivity(d, k, trials, seed=42)
        v = sens.beta_moments(d).variance
        tol = 4 * math.sqrt(k * v / trials)
        assert abs(h.mean() - k / d) <= tol

    def test_bernstein_tail_coverage(self):
        # fraction exceeding the bound must stay below the failure level
        d, k = 784, 200
        h = sens.simulate_sensitivity(d, k, 10_000, seed=7)
        for delta in (0.1, 0.01):
            frac = float((h > sens.bernstein_bound(k, d, delta).w).mean())
            assert frac <= delta

    def test_quantile_below_bernstein(self):
        d, k = 100, 64
        h = sens.simulate_sensitivity(d, k, 10_000, seed=8)
        for delta in (0.1, 0.01):
            q = float(np.quantile(h, 1 - delta))
            assert q <= sens.bernstein_bound(k, d, delta).w

    def test_deterministic_and_chunk_invariant(self):
        a = sens.simulate_sensitivity(20, 16, 2500, seed=5)
        b = sens.simulate_sensitivity(20, 16, 2500, seed=5)
        assert np.array_equal(a, b)
        # a longer run shares its prefix chunks
        c = sens.simulate_sensitivity(20, 16, 3000, seed=5)
        assert np.array_equal(a[:2048], c[:2048])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sens.simulate_sensitivity(5, 10, 0, seed=0)
        with pytest.raises(ValueError):
            sens.simulate_sensitivity(0, 10, 5, seed=0)

    @pytest.mark.parametrize(
        "d,k,trials",
        [(784.5, 10, 5), (True, 3, 2), (784, 10.0, 5), (784, False, 5), (5, 3, 2.0), (np.float64(5), 3, 2)],
    )
    def test_non_integer_counts_rejected(self, d, k, trials):
        with pytest.raises(ValueError, match="must be an integer"):
            sens.simulate_sensitivity(d, k, trials, seed=1)

    def test_numpy_integer_counts_accepted(self):
        got = sens.simulate_sensitivity(np.int64(20), np.int32(16), np.int64(1500), seed=5)
        assert np.array_equal(got, sens.simulate_sensitivity(20, 16, 1500, seed=5))

    def test_summary_structure(self):
        h = sens.simulate_sensitivity(50, 32, 2000, seed=9)
        s = sens.summarize_simulation(h, 32, 50, 1e-3)
        assert set(s) == {"empirical_mean", "expected_mean", "requested", "levels"}
        assert s["expected_mean"] == pytest.approx(32 / 50)
        assert s["requested"]["delta"] == 1e-3
        assert [lvl["delta"] for lvl in s["levels"]] == list(sens.SUMMARY_DELTAS)
        for lvl in [s["requested"], *s["levels"]]:
            assert lvl["empirical_quantile"] <= lvl["bernstein"]


# d = 2 and 3 take the ratio branch; at d = 4 the redraw loop runs many
# rounds and a third of the proposals have t^2 >= 1; (784, 1000, 1100) is the
# benchmark's d and k over two chunks, the second ending in a partial block;
# at k = 20 a whole chunk is one block, at k = 200 two blocks of 655 and 369
PINNED_CASES = [(20, 16, t) for t in (1, 1023, 1024, 1025, 2500)] + [
    (784, 20, 2100),
    (784, 200, 5000),
    (1, 5, 3),
    (2, 7, 1100),
    (3, 7, 1100),
    (4, 16, 2500),
    (784, 1000, 1100),
]


class TestConcurrentChunks:
    """The chunks run on a thread pool; the sample must be the serial one."""

    @pytest.mark.parametrize("d,k,trials", PINNED_CASES, ids=lambda v: str(v))
    @pytest.mark.parametrize("cpus", ["one", "more-than-chunks"])
    def test_sample_equals_serial_loop(self, monkeypatch, d, k, trials, cpus):
        chunks = -(-trials // sens._TRIAL_CHUNK)
        monkeypatch.setattr(sens, "_usable_cpus", lambda: 1 if cpus == "one" else chunks + 3)
        expected = serial_reference(d, k, trials, seed=17)
        assert np.array_equal(sens.simulate_sensitivity(d, k, trials, seed=17), expected)

    def test_many_workers_with_short_switch_interval(self, monkeypatch):
        # more threads than cores, switching often: a lost or misplaced
        # chunk write would break equality with the serial loop
        monkeypatch.setattr(sens, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sens.simulate_sensitivity(5, 3, 8 * 1024 + 7, seed=3)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, serial_reference(5, 3, 8 * 1024 + 7, seed=3))

    def test_worker_threads_call_no_dpswd_function(self, monkeypatch):
        callers = []

        def recording_stream(*args):
            callers.append(threading.get_ident())
            return monte_carlo_stream(*args)

        monkeypatch.setattr(sens, "monte_carlo_stream", recording_stream)
        monkeypatch.setattr(sens, "_usable_cpus", lambda: 4)
        sens.simulate_sensitivity(10, 4, 3 * 1024 + 1, seed=2)
        assert callers == [threading.get_ident()] * 4

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def broken_stream(seed, purpose, index):
            # chunk 1 gets no generator, so its worker raises AttributeError
            return object() if index == 1 else monte_carlo_stream(seed, purpose, index)

        monkeypatch.setattr(sens, "monte_carlo_stream", broken_stream)
        with pytest.raises(AttributeError):
            sens.simulate_sensitivity(10, 4, 2048, seed=2)


class TestExactness:
    """The sampler against the Beta law and against the 0.5.1 sampler."""

    @pytest.mark.parametrize("d", [4, 5, 10, 784])
    def test_single_terms_follow_the_beta_law(self, d):
        terms = sens.simulate_sensitivity(d, 1, 20_000, seed=31)
        assert stats.kstest(terms, stats.beta(0.5, (d - 1) / 2).cdf).pvalue > KS_P_MIN

    def test_sum_matches_the_ratio_sampler(self):
        got = sens.simulate_sensitivity(784, 200, 20_000, seed=32)
        oracle = ratio_oracle(784, 200, 20_000, np.random.default_rng(33))
        assert stats.ks_2samp(got, oracle).pvalue > KS_P_MIN

    @pytest.mark.slow
    def test_clt_shortfall_matches_the_documented_margins(self):
        # README, "Known-unattainable acceptance checks": the (1-delta)-quantile
        # of H at k=200, d=784 exceeds the CLT bound by ~0.2% at delta=0.1 and
        # ~1.2% at delta=0.01; each margin must round to its documented figure
        d, k = 784, 200
        h = sens.simulate_sensitivity(d, k, 2_000_000, seed=2)
        for delta, documented_pct in ((0.1, 0.2), (0.01, 1.2)):
            excess_pct = 100 * (np.quantile(h, 1 - delta) / sens.clt_bound(k, d, delta).w - 1)
            assert abs(excess_pct - documented_pct) <= 0.05, (delta, excess_pct)


class TestRejectionStep:
    """The acceptance step on fixed proposals: slot i is rejected with probability q(x_i)."""

    @pytest.mark.parametrize("d", [4, 784])
    def test_rejection_frequency_matches_q(self, d):
        # proposals on both sides of x_small, and at and beyond the support's end
        c = (d - 3) / 2
        x_small = sens._small_limit(c)
        values = [f * x_small for f in (0.25, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0)] + [1.0, 2.5]
        assert 3 * x_small < 1
        copies, rounds = 2**13, 16
        x = np.tile(values, copies)  # interleaved, so the marks cover every value
        rejected = np.zeros(len(values), dtype=np.int64)
        for r in range(rounds):
            slots = sens._rejections(monte_carlo_stream(r, PURPOSE_SENSITIVITY, d), x, c, x_small)
            # ascending and distinct: the redraw order is row-major
            assert np.all(np.diff(slots) > 0) and 0 <= slots[0] and slots[-1] < x.size
            rejected += np.bincount(slots % len(values), minlength=len(values))
        for value, q, count in zip(values, rejection_probability(np.array(values), c), rejected):
            assert q <= sens._THIN or value > x_small
            pvalue = stats.binomtest(int(count), copies * rounds, q).pvalue
            assert pvalue > BINOMIAL_P_MIN, (value / x_small, count / (copies * rounds), q)

    @pytest.mark.parametrize("d", [4, 784])
    def test_small_proposals_are_each_examined_at_rate_tau(self, d):
        # every slot at x_small, where q is closest to tau: marks drawn with
        # replacement would examine a slot at rate 1 - exp(-tau), and reject
        # at rate 1 - exp(-q), about q (1 - q/2)
        c = (d - 3) / 2
        x_small = sens._small_limit(c)
        x = np.full(2**20, x_small)
        rounds = 96
        count = 0
        for r in range(rounds):
            hit = np.zeros(x.size, dtype=bool)
            hit[sens._rejections(monte_carlo_stream(r, PURPOSE_SENSITIVITY, d), x, c, x_small)] = True
            count += int(np.count_nonzero(hit))
        q = rejection_probability(x[:1], c)[0]
        assert q <= sens._THIN
        assert stats.binomtest(count, x.size * rounds, q).pvalue > BINOMIAL_P_MIN


class TestSensitivityBoundType:
    def test_fixed_wrapper(self):
        b = sens.fixed_sensitivity(1.0)
        assert b.w == 1.0 and b.kind == "fixed"

    def test_positive_w_required(self):
        for w in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sensitivity bound w must be finite and positive"):
                sens.fixed_sensitivity(w)

    def test_bounds_exceed_mean(self):
        b = sens.bernstein_bound(200, 784, 1e-5)
        c = sens.clt_bound(200, 784, 1e-5)
        assert b.w > 200 / 784
        assert c.w > 200 / 784
