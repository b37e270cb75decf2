import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dpswd import from_points, normalize_for_privacy
from dpswd.accountant import CalibrationResult, PrivacyBudget, Schedule, account
from dpswd.flow import FlowConfig, FlowDiverged, FlowTrace, run_flow
from dpswd.measures import DataError, EmpiricalMeasure
from dpswd.sensitivity import bernstein_bound
from dpswd import sliced_distance as sd
from dpswd.sliced_distance import SwdConfig, swd


def cloud(n, d, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    return from_points(rng.standard_normal((n, d)) + shift)


class CountingTarget:
    """Duck-typed private measure that records raw-coordinate reads."""

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


class TestRunFlow:
    def test_stationary_at_optimum(self):
        a = cloud(20, 2, 0)
        cfg = FlowConfig(iterations=3, learning_rate=0.5, k=16, sigma=0.0, seed=1, log_every=1)
        trace = run_flow(a, a, cfg)
        assert trace.losses[0] == 0.0
        assert trace.grad_norms[0] == 0.0
        assert np.array_equal(trace.final_points, a.points)

    def test_converges_on_shifted_gaussian(self):
        src = cloud(100, 2, 0, shift=5.0)
        tgt = cloud(100, 2, 1)
        cfg = FlowConfig(iterations=500, learning_rate=1.0, k=50, sigma=0.0, seed=2, log_every=50)
        trace = run_flow(src, tgt, cfg)
        eval_cfg = SwdConfig(k=500, q=2, seed=999)
        initial = swd(src, tgt, eval_cfg).value
        final = swd(from_points(trace.final_points), tgt, eval_cfg).value
        assert final < 0.1 * initial

    def test_trace_logging_schedule(self):
        src, tgt = cloud(10, 2, 6, shift=1.0), cloud(10, 2, 7)
        cfg = FlowConfig(iterations=25, learning_rate=0.1, k=8, seed=8, log_every=10)
        trace = run_flow(src, tgt, cfg)
        assert list(trace.iterations) == [0, 10, 20, 24]
        assert (trace.losses >= 0).all()
        assert trace.privacy is None

    def test_privacy_preconditions(self):
        src = cloud(10, 2, 9, shift=1.0)
        tgt_raw = cloud(10, 2, 10)
        cfg = FlowConfig(iterations=2, learning_rate=0.1, k=8, sigma=1.0, seed=11)
        with pytest.raises(DataError, match="not privacy-normalized"):
            run_flow(src, tgt_raw, cfg)

    def test_input_validation(self):
        src, tgt = cloud(10, 2, 0), cloud(11, 2, 1)
        cfg = FlowConfig(iterations=1, learning_rate=0.1, k=4, seed=0)
        with pytest.raises(DataError, match="equal sample counts"):
            run_flow(src, tgt, cfg)
        with pytest.raises(DataError, match="dimension mismatch"):
            run_flow(cloud(10, 3, 0), cloud(10, 2, 1), cfg)
        weighted = from_points(src.points, weights=np.linspace(1, 2, 10))
        with pytest.raises(ValueError, match="uniform"):
            run_flow(weighted, cloud(10, 2, 1), cfg)

    @pytest.mark.parametrize("batch, message", [
        (50, r"batch_size must lie in \[1, 40\]"),
        (20, "batch_size must equal the source particle count"),
    ], ids=["above-target-rows", "not-source-count"])
    def test_batch_that_does_not_fit_the_inputs_is_data_error(self, batch, message):
        cfg = FlowConfig(iterations=1, learning_rate=0.1, k=4, batch_size=batch)
        with pytest.raises(DataError, match=message):  # a ValueError too
            run_flow(cloud(30, 2, 0), cloud(40, 2, 1), cfg)

    @pytest.mark.parametrize("field", ["iterations", "log_every", "batch_size"])
    def test_non_integer_count_rejected(self, field):
        kwargs = {"iterations": 5, "learning_rate": 0.1, field: 2.5}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
            FlowConfig(**kwargs)

    @pytest.mark.parametrize("log_every", [0, -1])
    def test_log_every_below_one_rejected(self, log_every):
        with pytest.raises(ValueError, match="log_every must be >= 1"):
            FlowConfig(iterations=5, learning_rate=0.1, log_every=log_every)

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            FlowConfig(iterations=5, learning_rate=learning_rate)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 5.0, math.nan])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            FlowConfig(iterations=5, learning_rate=0.1, delta=delta)

    @pytest.mark.parametrize("delta_split", [-0.5, 1.0, math.nan])
    def test_delta_split_outside_range_rejected(self, delta_split):
        with pytest.raises(ValueError, match=r"delta_split must lie in \[0, 1\)"):
            FlowConfig(iterations=5, learning_rate=0.1, delta_split=delta_split)

    def test_non_integer_seed_rejected(self):
        # refused when the config is built, not at the first step's substream
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            FlowConfig(iterations=5, learning_rate=0.1, seed=1.5)

    def test_divergence_detection(self):
        src, tgt = cloud(10, 2, 12, shift=3.0), cloud(10, 2, 13)
        cfg = FlowConfig(iterations=200, learning_rate=1e6, k=8, sigma=0.0, seed=14, log_every=1)
        with pytest.raises(FlowDiverged, match="learning rate") as exc_info:
            run_flow(src, tgt, cfg)
        assert exc_info.value.trace.losses.size >= 1

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_update_overflow_is_divergence(self, iterations):
        # lr * grad overflows float64 at step 0 while the loss is still finite
        rng = np.random.default_rng(0)
        src = from_points(rng.standard_normal((20, 3)) * 10 + 500)
        tgt = from_points(rng.standard_normal((20, 3)))
        cfg = FlowConfig(iterations=iterations, learning_rate=1.7e308, k=8, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FlowDiverged, match="overflowed float64 at step 0") as exc_info:
                run_flow(src, tgt, cfg)
        assert not caught  # numpy's overflow warning included
        assert "lr=1.7e+308" in str(exc_info.value)
        trace = exc_info.value.trace
        assert trace.iterations.tolist() == [0]
        assert np.isfinite(trace.losses).all() and np.isfinite(trace.grad_norms).all()
        assert trace.final_points is src.points  # the last finite positions

    def test_target_read_only_for_projection_release(self):
        # one projection release per step (loss and gradient are both
        # computed from it), plus one read by the normalization guard
        inner = normalize_for_privacy(cloud(12, 2, 15))
        src = normalize_for_privacy(cloud(12, 2, 16, shift=1.0))
        tgt = CountingTarget(inner)
        steps = 4
        cfg = FlowConfig(iterations=steps, learning_rate=0.1, k=8, sigma=0.5, seed=17)
        run_flow(src, tgt, cfg)
        assert tgt.point_reads == steps + 1

    def test_reported_privacy_matches_accountant(self):
        src = normalize_for_privacy(cloud(40, 3, 18, shift=1.0))
        tgt = normalize_for_privacy(cloud(40, 3, 19))
        cfg = FlowConfig(
            iterations=25, learning_rate=0.1, k=16, sigma=1.5, seed=20,
            delta=1e-4, delta_split=0.5, bound_kind="bernstein",
        )
        trace = run_flow(src, tgt, cfg)
        budget = PrivacyBudget(
            eps_target=1.0, delta_target=1e-4, steps=25, sampling_rate=1.0, delta_split=0.5
        )
        bound = budget.tail_bound("bernstein", 16, 3)
        eps, order = account(1.5, budget, bound)
        assert trace.privacy.eps_achieved == eps
        assert trace.privacy.best_order == order
        assert trace.privacy.sensitivity == bound == bernstein_bound(16, 3, budget.delta_sensitivity / 25)

    def test_privacy_record_is_the_schedules_account(self):
        src = normalize_for_privacy(cloud(16, 3, 24, shift=1.0))
        tgt = normalize_for_privacy(cloud(48, 3, 25))
        cfg = FlowConfig(
            iterations=6, learning_rate=0.1, k=12, sigma=1.2, seed=26, batch_size=16,
            delta=1e-4, delta_split=0.3,
        )
        trace = run_flow(src, tgt, cfg)
        schedule = Schedule(1e-4, 6, 16 / 48, 0.3)
        bound = schedule.tail_bound("bernstein", 12, 3)
        assert trace.privacy == CalibrationResult(1.2, *account(1.2, schedule, bound), bound)
        assert [f.name for f in dataclasses.fields(FlowTrace)] == [
            "iterations", "losses", "grad_norms", "final_points", "privacy"]

    def test_minibatch_target(self):
        src = normalize_for_privacy(cloud(16, 2, 21, shift=1.0))
        tgt = normalize_for_privacy(cloud(64, 2, 22))
        cfg = FlowConfig(
            iterations=10, learning_rate=0.1, k=8, sigma=1.0, seed=23, batch_size=16
        )
        trace = run_flow(src, tgt, cfg)
        budget = PrivacyBudget(
            eps_target=1.0, delta_target=cfg.delta, steps=10,
            sampling_rate=16 / 64, delta_split=0.5,
        )
        bound = budget.tail_bound("bernstein", 8, 2)
        eps, _ = account(1.0, budget, bound)
        assert trace.privacy.eps_achieved == pytest.approx(eps, abs=0)

    def test_each_step_draws_fresh_directions_and_noise(self, monkeypatch):
        # reused noise would cancel in the difference of two mini-batch releases
        drawn = {"directions": [], "noise": []}

        def recorder(fn, key):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                drawn[key].append(out)
                return out
            return wrapped

        monkeypatch.setattr(sd, "sample_sphere", recorder(sd.sample_sphere, "directions"))
        monkeypatch.setattr(
            sd, "sample_gaussian_matrix", recorder(sd.sample_gaussian_matrix, "noise")
        )
        src = normalize_for_privacy(cloud(16, 3, 30, shift=1.0))
        tgt = normalize_for_privacy(cloud(64, 3, 31))
        cfg = FlowConfig(
            iterations=2, learning_rate=0.1, k=8, sigma=1.0, seed=32, batch_size=16,
        )
        run_flow(src, tgt, cfg)
        (u0, u1), noise = drawn["directions"], drawn["noise"]
        assert u0.shape == u1.shape
        assert not np.any(u0 == u1)
        assert len(noise) == 4  # source and target noise at each of two steps
        for first, second in zip(noise[:2], noise[2:]):
            assert first.shape == second.shape
            assert not np.any(first == second)

    def test_tail_bound_needs_delta_share(self):
        with pytest.raises(ValueError, match="delta_split must be > 0"):
            FlowConfig(iterations=5, learning_rate=0.1, k=8, sigma=1.0, delta_split=0.0)
        FlowConfig(iterations=5, learning_rate=0.1, k=8, sigma=0.0, delta_split=0.0)  # nothing charged

    def test_source_unchanged_and_final_points_read_only(self):
        src, tgt = cloud(15, 2, 27, shift=2.0), cloud(15, 2, 28)
        before = src.points.copy()
        trace = run_flow(src, tgt, FlowConfig(iterations=3, learning_rate=0.5, k=8, seed=29))
        assert np.array_equal(src.points, before)
        assert not trace.final_points.flags.writeable
        assert not np.shares_memory(trace.final_points, src.points)
        assert np.shares_memory(EmpiricalMeasure(trace.final_points).points, trace.final_points)

    def test_peak_memory(self):
        # the points, the new gradient that becomes the next points, and the
        # (k, n) release arrays; the inputs exist before tracing starts
        n, d, k = 2000, 200, 50
        src = cloud(n, d, 33, shift=1.0)
        tgt = normalize_for_privacy(cloud(n, d, 34), mode="clip", clip=30.0)
        cfg = FlowConfig(iterations=3, learning_rate=1.0, k=k, sigma=0.5, seed=35)
        tracemalloc.start()
        try:
            run_flow(src, tgt, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * d * 8

    def test_deterministic(self):
        src, tgt = cloud(15, 2, 24, shift=2.0), cloud(15, 2, 25)
        cfg = FlowConfig(iterations=20, learning_rate=0.5, k=16, sigma=0.0, seed=26)
        t1 = run_flow(src, tgt, cfg)
        t2 = run_flow(src, tgt, cfg)
        assert np.array_equal(t1.final_points, t2.final_points)
        assert np.array_equal(t1.losses, t2.losses)
