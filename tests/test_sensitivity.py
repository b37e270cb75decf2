import math
import sys
import threading

import numpy as np
import pytest

from dpswd import sensitivity as sens
from dpswd.randomness import PURPOSE_SENSITIVITY, substream


def serial_reference(d: int, k: int, trials: int, seed) -> np.ndarray:
    """The serial per-chunk loop of 0.3.2, which defines the seeded sample."""
    if d == 1:
        return np.full(trials, float(k))
    out = np.empty(trials)
    for chunk_index, start in enumerate(range(0, trials, 1024)):
        stop = min(start + 1024, trials)
        rng = substream(seed, PURPOSE_SENSITIVITY, chunk_index)
        g1_sq = rng.standard_normal((stop - start, k)) ** 2
        rest_sq = rng.chisquare(d - 1, size=(stop - start, k))
        out[start:stop] = (g1_sq / (g1_sq + rest_sq)).sum(axis=1)
    return out


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

    def test_summary_structure(self):
        h = sens.simulate_sensitivity(50, 32, 2000, seed=9)
        s = sens.summarize_simulation(h, 32, 50)
        assert s["trials"] == 2000
        assert s["expected_mean"] == pytest.approx(32 / 50)
        assert {lvl["delta"] for lvl in s["levels"]} == {0.1, 0.05, 0.01}
        for lvl in s["levels"]:
            assert lvl["empirical_quantile"] <= lvl["bernstein"]


PINNED_CASES = [(20, 16, t) for t in (1, 1023, 1024, 1025, 2500)] + [(784, 200, 5000), (1, 5, 3)]


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

        def recording_substream(*args):
            callers.append(threading.get_ident())
            return substream(*args)

        monkeypatch.setattr(sens, "substream", recording_substream)
        monkeypatch.setattr(sens, "_usable_cpus", lambda: 4)
        sens.simulate_sensitivity(10, 4, 3 * 1024 + 1, seed=2)
        assert callers == [threading.get_ident()] * 4

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def broken_substream(seed, purpose, index):
            # chunk 1 gets no generator, so its worker raises AttributeError
            return object() if index == 1 else substream(seed, purpose, index)

        monkeypatch.setattr(sens, "substream", broken_substream)
        with pytest.raises(AttributeError):
            sens.simulate_sensitivity(10, 4, 2048, seed=2)


class TestSensitivityBoundType:
    def test_fixed_wrapper(self):
        b = sens.fixed_sensitivity(1.0)
        assert b.w == 1.0 and b.kind == "fixed"

    def test_positive_w_required(self):
        with pytest.raises(ValueError):
            sens.fixed_sensitivity(0.0)

    def test_bounds_exceed_mean(self):
        b = sens.bernstein_bound(200, 784, 1e-5)
        c = sens.clt_bound(200, 784, 1e-5)
        assert b.w > b.k / b.d
        assert c.w > c.k / c.d
