import hashlib
import math
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import linprog

from dpswd import from_points, wasserstein1d
from dpswd.measures import DataError, EmpiricalMeasure
from dpswd.wasserstein1d import per_row_costs, wasserstein_1d, wasserstein_1d_q


def lp_transport_cost(xa, wa, xb, wb, q):
    """Kantorovich LP oracle on the full coupling polytope (small instances)."""
    xa, xb = np.asarray(xa, float), np.asarray(xb, float)
    wa = np.asarray(wa, float) / np.sum(wa)
    wb = np.asarray(wb, float) / np.sum(wb)
    n, m = xa.size, xb.size
    cost = (np.abs(xa[:, None] - xb[None, :]) ** q).ravel()
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(wa[i])
    for j in range(m - 1):  # last column constraint is redundant
        row = np.zeros((n, m))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(wb[j])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def assignment_cost(xa, xb, q):
    """Exhaustive minimum over all n! assignments, uniform weights."""
    n = len(xa)
    best = np.inf
    for perm in permutations(range(n)):
        best = min(best, sum(abs(xa[i] - xb[perm[i]]) ** q for i in range(n)) / n)
    return best


class TestFrozenExamples:
    def test_two_diracs(self):
        assert wasserstein_1d_q([0.0], [3.0], 2) == 9.0

    def test_uniform_pairs_w1(self):
        # LP oracle on the 2x2 cost matrix gives exactly 1
        assert lp_transport_cost([0, 2], [1, 1], [1, 3], [1, 1], 1) == pytest.approx(1.0, abs=1e-12)
        assert wasserstein_1d_q([0, 2], [1, 3], 1) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_counts_w1(self):
        # breakpoint integration by hand: |F^-1 difference| is 1/2 on (1/3, 2/3]
        oracle = lp_transport_cost([0, 1], [1, 1], [0, 0.5, 1], [1, 1, 1], 1)
        assert oracle == pytest.approx(1 / 6, abs=1e-12)
        assert wasserstein_1d_q([0, 1], [0, 0.5, 1], 1) == pytest.approx(1 / 6, abs=1e-14)


class TestLpEquivalence:
    def test_random_instances_match_lp(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            q = float(rng.choice([1.0, 2.0]))
            xa = rng.standard_normal(n) * 3
            xb = rng.standard_normal(m) * 3
            wa = rng.uniform(0.1, 1.0, n)
            wb = rng.uniform(0.1, 1.0, m)
            mine = wasserstein_1d_q(
                EmpiricalMeasure(xa[:, None], wa), EmpiricalMeasure(xb[:, None], wb), q
            )
            oracle = lp_transport_cost(xa, wa, xb, wb, q)
            assert abs(mine - oracle) <= 1e-10

    def test_uniform_equal_counts_match_assignment(self):
        rng = np.random.default_rng(55)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            q = float(rng.choice([1.0, 2.0]))
            xa = rng.standard_normal(n)
            xb = rng.standard_normal(n)
            assert wasserstein_1d_q(xa, xb, q) == pytest.approx(assignment_cost(xa, xb, q), abs=1e-12)


class TestMetricProperties:
    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            xa, xb = rng.standard_normal(5), rng.standard_normal(4)
            assert wasserstein_1d_q(xa, xb, 2) == pytest.approx(wasserstein_1d_q(xb, xa, 2), abs=0)
            assert wasserstein_1d_q(xa, xa, 2) == 0.0

    def test_zero_iff_same_distribution(self):
        # same weighted support expressed with different multiplicities
        a = EmpiricalMeasure(np.array([0.0, 1.0])[:, None], [2.0, 2.0])
        b = EmpiricalMeasure(np.array([0.0, 0.0, 1.0, 1.0])[:, None], [1.0, 1.0, 1.0, 1.0])
        assert wasserstein_1d_q(a, b, 2) == 0.0
        assert wasserstein_1d_q([0.0], [1e-9], 1) > 0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for q in (1.0, 2.0, 3.0):
            for _ in range(60):
                xa, xb, xc = (rng.standard_normal(int(rng.integers(2, 6))) for _ in range(3))
                dab = wasserstein_1d(xa, xb, q)
                dbc = wasserstein_1d(xb, xc, q)
                dac = wasserstein_1d(xa, xc, q)
                assert dac <= dab + dbc + 1e-12

    def test_translation_invariance_w1(self):
        rng = np.random.default_rng(5)
        # integer-valued supports: the shifted sums are exact, so the
        # identity holds bit-for-bit
        xa = rng.integers(-50, 50, 6).astype(float)
        xb = rng.integers(-50, 50, 6).astype(float)
        assert wasserstein_1d_q(xa + 17.0, xb + 17.0, 1) == wasserstein_1d_q(xa, xb, 1)
        # generic floats round in (a+t), so exactness degrades to ~1 ulp
        ya, yb = rng.standard_normal(6), rng.standard_normal(6)
        assert wasserstein_1d_q(ya + 17.25, yb + 17.25, 1) == pytest.approx(
            wasserstein_1d_q(ya, yb, 1), rel=1e-12
        )

    def test_scaling(self):
        rng = np.random.default_rng(6)
        xa, xb = rng.standard_normal(5), rng.standard_normal(7)
        for q in (1.0, 2.0):
            for s in (2.0, -3.0, 0.5):
                left = wasserstein_1d_q(s * xa, s * xb, q)
                right = abs(s) ** q * wasserstein_1d_q(xa, xb, q)
                assert left == pytest.approx(right, rel=1e-12)

    def test_ties_any_order_same_cost(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([0.5, 1.0, 1.0])
        cost = wasserstein_1d_q(a, b, 2)
        for pa in permutations(a):
            for pb in permutations(b):
                assert wasserstein_1d_q(np.array(pa), np.array(pb), 2) == pytest.approx(cost, abs=1e-15)


class TestValidation:
    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d_q([0.0], [1.0], 0.5)

    @pytest.mark.parametrize("q", [float("nan"), float("inf")])
    def test_non_finite_q_rejected(self, q):
        with pytest.raises(ValueError, match="finite"):
            wasserstein_1d_q([0.0], [1.0], q)

    def test_empty_measure_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d_q([], [1.0], 1)

    def test_negative_weight_rejected(self):
        # weights reach the cost only through EmpiricalMeasure's validator:
        # the module defines no second weighted-sample type or builder
        own = {name for name, obj in vars(wasserstein1d).items()
               if getattr(obj, "__module__", None) == wasserstein1d.__name__ and name[0] != "_"}
        assert own == {"per_row_costs", "wasserstein_1d", "wasserstein_1d_q"}
        with pytest.raises(DataError, match="nonnegative"):
            wasserstein_1d_q(EmpiricalMeasure(np.array([[0.0], [1.0]]), [1.0, -0.5]), [0.0], 2)

    def test_two_column_array_rejected(self):
        # not flattened into one sample: the shape is named
        with pytest.raises(ValueError, match=r"1-D array, got shape \(2, 2\)"):
            wasserstein_1d_q([[0.0, 10.0], [1.0, 11.0]], [0.0, 1.0, 10.0, 11.0], 2)
        with pytest.raises(ValueError, match=r"1-D array, got shape \(2, 2\)"):
            wasserstein_1d_q([0.0, 1.0, 10.0, 11.0], [[0.0, 10.0], [1.0, 11.0]], 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(DataError, match="NaN or Inf"):
            wasserstein_1d_q([0.0, bad], [1.0, 2.0], 2)
        with pytest.raises(DataError, match="NaN or Inf"):
            wasserstein_1d_q([1.0, 2.0], [bad, 0.0], 2)

    def test_measure_objects_accepted(self):
        a = from_points([[0.0], [2.0]])
        b = from_points([[1.0], [3.0]])
        assert wasserstein_1d_q(a, b, 1) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            wasserstein_1d_q(from_points([[0.0, 1.0]]), b, 1)


class TestOneRowOfTheKernel:
    """wasserstein_1d_q is per_row_costs on the two stably sorted rows."""

    @staticmethod
    def sorted_row(values, weights):
        order = np.argsort(values, kind="stable")
        if weights is None:
            return values[order][None], None
        return values[order][None], (weights / weights.sum())[order][None]

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("weighted_a, weighted_b", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_bit_identical_to_per_row_costs(self, weighted_a, weighted_b, q):
        rng = np.random.default_rng(17)
        for n, m in [(1, 1), (5, 5), (7, 4), (3, 9)]:
            # one decimal makes ties within and across the two sides common
            xa = np.round(rng.standard_normal(n), 1)
            xb = np.round(rng.standard_normal(m) + 0.2, 1)
            wa = rng.uniform(0.1, 1.0, n) if weighted_a else None
            wb = rng.uniform(0.1, 1.0, m) if weighted_b else None
            for w in (wa, wb):
                if w is not None and w.size > 1:
                    w[1] = 0.0  # a zero weight must contribute no mass
            a = xa if wa is None else EmpiricalMeasure(xa[:, None], wa)
            b = xb if wb is None else EmpiricalMeasure(xb[:, None], wb)
            expected = per_row_costs(*self.sorted_row(xa, wa), *self.sorted_row(xb, wb), q)[0]
            assert wasserstein_1d_q(a, b, q) == expected
            # a measure with uniform weights takes the same None-weight row as its array
            if wa is None:
                assert wasserstein_1d_q(from_points(xa[:, None]), b, q) == expected


class TestLargeOrder:
    """W_q^q underflows for large q; the distance W_q must not."""

    @pytest.mark.parametrize("q", [200, 400, 1000])
    def test_underflowing_power_keeps_the_distance(self, q):
        # both gaps are 0.02, and 0.02^200 is below the smallest float
        assert wasserstein_1d_q([0, 0.01], [0.02, 0.03], q) == 0.0
        assert wasserstein_1d([0, 0.01], [0.02, 0.03], q) == pytest.approx(0.02, rel=1e-12)

    @pytest.mark.parametrize("q", [200, 1000])
    def test_zero_weight_point_does_not_set_the_scale(self, q):
        # its gap of 0.48 sits on a zero-length segment; scaling by it would
        # underflow the true gap 0.02 at q = 1000
        a = EmpiricalMeasure(np.array([[0.0], [0.5]]), [1.0, 0.0])
        assert wasserstein_1d(a, [0.02], q) == pytest.approx(0.02, rel=1e-12)

    def test_overflowing_power_keeps_the_distance(self):
        # 10^400 is above the largest float
        assert wasserstein_1d([0.0], [10.0], 400) == pytest.approx(10.0, rel=1e-12)

    def test_zero_weight_point_does_not_overflow(self):
        # its gap of 100 on a zero-length segment would give 0 * inf
        a = EmpiricalMeasure(np.array([[0.0], [100.0]]), [1.0, 0.0])
        assert wasserstein_1d(a, [0.02], 200) == pytest.approx(0.02, rel=1e-12)

    def test_equal_measures_stay_zero(self):
        assert wasserstein_1d([0.25, 0.5], [0.5, 0.25], 1000) == 0.0

    def test_gap_beyond_the_largest_float_is_inf(self):
        assert wasserstein_1d([-1e308], [1e308], 2) == math.inf

    def test_normal_cost_agrees_with_the_plain_root(self):
        for q in (1.0, 2.0, 3.5, 150.0):
            cost = wasserstein_1d_q([0, 0.01], [0.02, 0.03], q)
            assert cost > 0
            assert wasserstein_1d([0, 0.01], [0.02, 0.03], q) == pytest.approx(cost ** (1.0 / q), rel=1e-12)


def grid_side(draw, st):
    """A 1-D measure on the grid 2^-21 Z within [-1/2, 1/2], uniform or weighted.

    Differences of grid points are exact, and so is scaling them by 2^j for
    j >= -30, so a property fails only by the cost's own rounding.
    """
    values = np.array(draw(st.lists(st.integers(-2**20, 2**20), min_size=1, max_size=8))) * 2.0**-21
    weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 5), min_size=values.size,
                                                  max_size=values.size)))
    return values, weights


def as_measure(values, weights):
    return values if weights is None else EmpiricalMeasure(values[:, None], weights)


class TestLargeOrderProperties:
    # margins fixed before the run: relative 1e-12, a few hundred ulps of a
    # cost whose rounding error the 1/q root divides by q
    REL = 1e-12

    def test_monotone_in_order_and_homogeneous(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @hypothesis.given(
            st.data(), st.floats(1.0, 1000.0), st.floats(1.0, 1000.0), st.integers(-30, 0)
        )
        def check(data, p, q, j):
            p, q = min(p, q), max(p, q)
            (xa, wa), (xb, wb) = grid_side(data.draw, st), grid_side(data.draw, st)
            w_q = wasserstein_1d(as_measure(xa, wa), as_measure(xb, wb), q)
            w_p = wasserstein_1d(as_measure(xa, wa), as_measure(xb, wb), p)
            assert w_p <= w_q * (1 + self.REL)
            scaled = wasserstein_1d(as_measure(2.0**j * xa, wa), as_measure(2.0**j * xb, wb), q)
            assert scaled == pytest.approx(2.0**j * w_q, rel=self.REL, abs=0)

        check()


class TestPerRowCostsPin:
    """The bytes of per_row_costs on seeded sorted rows, one pin per path.

    The row sums add in the gather's memory order, so a C-ordered copy of the
    same gaps moves the last bits. Nothing here calls BLAS, so the bytes do not
    depend on the CPU's matrix kernels.
    """

    PINS = {
        (400, 400, False): "4a2fa65b4c760fea25770c6a3e4305f84d4ac370bcb031975af5c05840dbab4b",
        (400, 300, False): "d04a3ff80d9ec9a63de5e258a8ffb3802e169a6d0b4a186d5c50cbf90b9bc5d1",
        (400, 300, True): "c09136864d9f35eb61715f71b2592622a6fea6c543d17a76b6dd710ccf04d864",
    }

    @pytest.mark.parametrize("n, m, weighted", list(PINS), ids=["equal", "unequal", "weighted"])
    def test_bytes(self, n, m, weighted):
        rng = np.random.default_rng(20260)
        rows_a = np.sort(rng.standard_normal((64, n)), axis=1)
        rows_b = np.sort(rng.standard_normal((64, m)) + 0.25, axis=1)
        weights_a = None
        if weighted:
            weights_a = rng.random((64, n))
            weights_a /= weights_a.sum(axis=1, keepdims=True)
        costs = per_row_costs(rows_a, weights_a, rows_b, None, 2.0)
        assert costs.dtype == np.float64 and costs.shape == (64,)
        assert hashlib.sha256(costs.tobytes()).hexdigest() == self.PINS[n, m, weighted]
