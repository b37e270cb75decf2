"""Exact one-dimensional q-Wasserstein distance between empirical measures.

For 1-D measures the optimal transport cost has a closed form: the integral
over z in (0,1) of |F_a^{-1}(z) - F_b^{-1}(z)|^q. Both inverse CDFs are step
functions, so the integral is a finite sum over the merged breakpoints of
the two cumulative-weight ladders, computed here exactly (no quantile grid,
no tolerance knob). One vectorized kernel, per_row_costs, evaluates that sum
for every row pair of two row-sorted (k, n) and (k, m) arrays at once, as
the sliced estimator needs for its k projections; wasserstein_1d_q is its
one-row case, on two 1-D arrays or one-column EmpiricalMeasures. One rule,
_sorted_side, sorts every side for both, with its weights; there is no
sorted-measure type. Functions return the q-th power W_q^q; callers that
report distances take the root at the boundary. W_q^q rounds to 0 or inf
for large q; wasserstein_1d, the distance, rescales the gaps first.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import EmpiricalMeasure


def _segment_gaps(rows_a, weights_a, rows_b, weights_b) -> tuple[np.ndarray, np.ndarray]:
    """(seg, gaps) for every row pair of two (k, n) and (k, m) sorted arrays.

    Both inverse CDFs are constant between the merged breakpoints of the two
    cumulative-weight ladders: seg holds each segment's length, gaps the
    (k, segments) array |x - y| of the two sides on it. Weights of None mean
    uniform, whose ladders i/n and j/m are shared by every row and merged once.
    """
    n, m = rows_a.shape[1], rows_b.shape[1]
    if weights_a is None and weights_b is None:
        ca, cb = np.arange(1, n + 1) / n, np.arange(1, m + 1) / m
        z = np.union1d(ca, cb)  # i/n == j/m exactly when the fractions are equal
        seg = np.diff(z, prepend=0.0)
        # numpy returns this gather F-ordered, and per_row_costs sums its rows
        # in that memory order; a C-ordered array of the same values (rows_a -
        # rows_b when n == m, say) sums to different last bits, so its layout
        # is part of every pinned cost and flow trace
        gaps = rows_a[:, np.searchsorted(ca, z)]
        gaps -= rows_b[:, np.searchsorted(cb, z)]
    else:
        k = rows_a.shape[0]
        ca = np.cumsum(np.full((k, n), 1.0 / n) if weights_a is None else weights_a, axis=1)
        cb = np.cumsum(np.full((k, m), 1.0 / m) if weights_b is None else weights_b, axis=1)
        # per-row ladders, each ending at exactly 1; zero weights add no step
        merged = np.concatenate([ca / ca[:, -1:], cb / cb[:, -1:]], axis=1)
        order = np.argsort(merged, axis=1, kind="stable")
        seg = np.diff(np.take_along_axis(merged, order, axis=1), axis=1, prepend=0.0)
        # on the segment ending at a breakpoint, each side sits at the count of
        # its own breakpoints merged before it; zero-length segments may point
        # one past the end and are clipped
        from_a = order < n
        ia = np.cumsum(from_a, axis=1) - from_a
        ib = np.arange(n + m) - ia
        gaps = np.take_along_axis(rows_a, np.minimum(ia, n - 1), axis=1)
        gaps -= np.take_along_axis(rows_b, np.minimum(ib, m - 1), axis=1)
    np.abs(gaps, out=gaps)
    return seg, gaps


@np.errstate(over="ignore", invalid="ignore")
def per_row_costs(rows_a, weights_a, rows_b, weights_b, q: float) -> np.ndarray:
    """Exact 1-D W_q^q for every row pair of two (k, n) and (k, m) sorted arrays.

    Each segment of the merged ladders (see _segment_gaps) contributes its
    length times |x - y|^q. Weights of None mean uniform. A cost that
    overflows float64 comes back inf or NaN without a numpy warning; callers
    that report it refuse it.
    """
    seg, gaps = _segment_gaps(rows_a, weights_a, rows_b, weights_b)
    gaps **= q
    gaps *= seg
    return np.sum(gaps, axis=1)


def _sort_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row sorted ascending, with its stable argsort.

    A row of distinct values has one sorting permutation, which the faster
    unstable sort finds; rows with ties (or NaNs, which sort last) are
    re-sorted stably, so the order always equals the stable one.
    """
    order = np.argsort(x, axis=1)
    rows = np.take_along_axis(x, order, axis=1)
    redo = (rows[:, 1:] == rows[:, :-1]).any(axis=1) | np.isnan(rows[:, -1])
    if redo.any():
        order[redo] = np.argsort(x[redo], axis=1, kind="stable")
    return rows, order


def _sorted_side(rows: np.ndarray, measure: EmpiricalMeasure) -> tuple:
    """A side's (k, n) rows sorted ascending, and its weights in row order or None.

    The one rule for sorting a side: uniform rows (weights None) are sorted
    in place, weighted rows by their stable argsort, permuting the weights.
    """
    if measure.is_uniform():
        rows.sort(axis=1)
        return rows, None
    rows, order = _sort_rows(rows)
    return rows, measure.weights[order]


def _sorted_row(m) -> tuple[np.ndarray, np.ndarray | None]:
    """One side as a (1, n) ascending row with its weights, None when uniform.

    Arrays become uniform measures, so values and weights pass the one
    EmpiricalMeasure validator; the row is then sorted by _sorted_side.
    """
    if not isinstance(m, EmpiricalMeasure):
        values = np.asarray(m, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"a 1-D measure must be a 1-D array, got shape {values.shape}")
        m = EmpiricalMeasure(values[:, None])
    if m.dim != 1:
        raise ValueError(f"measure must be one-dimensional, got d={m.dim}")
    return _sorted_side(m.points.T.copy(), m)


def wasserstein_1d_q(a, b, q: float = 2.0) -> float:
    """Exact W_q^q between two 1-D measures: 1-D arrays or one-column measures.

    One row of per_row_costs. Symmetric in (a, b) and zero iff the weighted
    supports coincide as distributions.
    """
    if not 1 <= q < math.inf:
        raise ValueError(f"order q must be finite and >= 1, got {q}")
    return float(per_row_costs(*_sorted_row(a), *_sorted_row(b), q)[0])


@np.errstate(over="ignore")
def wasserstein_1d(a, b, q: float = 2.0) -> float:
    """The distance itself, W_q = (W_q^q)^(1/q), for every finite q >= 1.

    For large q the q-th power of a gap underflows (0.02^200) or overflows
    (10^400), and W_q^q with it, so the gaps are scaled by the largest, m,
    first: W_q = m (sum seg (|g| / m)^q)^(1/q), and 0.0 when m = 0. Only
    segments of positive length count; a zero-length one may carry the gap
    of a zero-weight point. A gap beyond the largest float gives inf.
    """
    if not 1 <= q < math.inf:
        raise ValueError(f"order q must be finite and >= 1, got {q}")
    seg, gaps = np.broadcast_arrays(*_segment_gaps(*_sorted_row(a), *_sorted_row(b)))
    seg, gaps = seg[seg > 0], gaps[seg > 0]
    top = gaps.max()  # the lengths sum to 1, so some segment has positive length
    if not 0 < top < math.inf:
        return float(top)
    return float(top * np.sum(seg * (gaps / top) ** q) ** (1.0 / q))
