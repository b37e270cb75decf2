"""Datasets as weighted empirical measures, plus privacy normalization.

An EmpiricalMeasure is an n-by-d matrix of support points with a
probability vector of weights. The privacy-facing preprocessing rescales
rows so that any two rows of the dataset matrix differ by at most 1 in
Euclidean norm, the neighboring-dataset precondition of the sensitivity
bounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_UNIFORM_TOL = 1e-12  # is_uniform: largest |weight - 1/n| still taken as uniform
_NORM_TOL = 1e-9  # check_privacy_normalized: slack above the row-norm cap 1/2
MAX_CLIP = float(np.finfo(np.float64).max) / 2  # normalize_for_privacy: the largest C whose 2C is finite


class DataError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 3)."""


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point cloud (1/n) sum of Dirac masses, weights summing to 1.

    The points are held read-only. A C-contiguous float64 array that is
    already read-only and owns its memory (``flags.owndata``) is adopted as
    it is, without a copy: nothing else can write it without first setting
    it writeable again. Anything else, such as a writeable array or a view,
    is copied and the copy frozen, so later writes to the input never reach
    the measure. Loaders and transforms that build a fresh array freeze it
    and hand it over this way.
    """

    points: np.ndarray
    weights: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise DataError(f"points must be a 2-D matrix, got shape {pts.shape}")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise DataError(f"need at least one point and one feature, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise DataError("points contain NaN or Inf entries")
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise DataError(f"weights shape {w.shape} does not match {n} points")
            if not np.isfinite(w).all():
                raise DataError("weights contain NaN or Inf entries")
            if (w < 0).any():
                raise DataError("weights must be nonnegative")
            total = w.sum()
            if total <= 0:
                raise DataError("weights sum to zero")
            w = w / total
        if pts.flags.writeable or not (pts.flags.owndata and pts.flags.c_contiguous):
            pts = pts.copy()
            pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def is_uniform(self) -> bool:
        return bool(np.abs(self.weights - 1.0 / self.n).max() <= _UNIFORM_TOL)


def from_points(points, weights=None) -> EmpiricalMeasure:
    """Build a measure from an n-by-d array; weights default to uniform."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return EmpiricalMeasure(pts, weights)


def load_csv(path, has_header: bool = False) -> EmpiricalMeasure:
    """Read a numeric CSV (one sample per row) into a uniform-weight measure.

    The file is parsed in one pass by numpy's C reader, given the path, which
    it reads in chunks (a file object it would parse line by line). Input it
    rejects (ragged rows, bad cells, quoting) and input with no data rows go
    to the per-cell scan, which names the failing line and column or, for
    cells that only Python's ``float`` accepts, returns the same array.
    """
    path = Path(path)
    points = _bulk_parse(path, has_header)
    if points is None:
        points = _scan_csv(path, has_header)
    points.setflags(write=False)  # the measure adopts the fresh array
    return EmpiricalMeasure(points)


def _bulk_parse(path: Path, has_header: bool) -> np.ndarray | None:
    """The whole file through np.loadtxt, or None where the scan must decide."""
    # loadtxt warns on input without data rows, so look for one first
    with open(path, "r", newline="", encoding="utf-8") as fh:
        if has_header:
            next(fh, None)
        if not any(line.strip("\r\n") for line in fh):
            return None
    try:
        return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2, comments=None,
                          skiprows=1 if has_header else 0, encoding="utf-8")
    except ValueError:
        return None


def _scan_csv(path: Path, has_header: bool) -> np.ndarray:
    """Per-cell parse: the array, or a DataError naming the failing line and column."""
    rows: list[list[float]] = []
    width = None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not cells:
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataError(
                    f"{path}: ragged row at line {lineno}: "
                    f"expected {width} columns, found {len(cells)}"
                )
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: unparsable cell at line {lineno}, column {col}: {cell!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def write_csv_rows(path, rows, header=None) -> None:
    """Write an optional header row, then rows of numbers, one line each.

    Cells are written with ``str``, which for a Python float is its shortest
    round-trip ``repr``. Nothing is quoted: for numbers and plain column
    names ``csv.writer`` writes the same bytes. Rows are formatted one at a
    time, so no copy of the whole table is held as text.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_csv(measure: EmpiricalMeasure, path) -> None:
    """Write support points as CSV with full round-trip precision."""
    write_csv_rows(path, (row.tolist() for row in measure.points))


def normalize_for_privacy(measure: EmpiricalMeasure, clip: float | None = None) -> EmpiricalMeasure:
    """Rescale rows so any two differ by at most 1 in l2 norm.

    With a radius C, rows with norm above C are first shrunk onto the
    radius-C ball, then every row is divided by 2C. With a public constant C,
    replacing one record moves one row by at most 1 and no other row, which
    is the neighbouring-dataset precondition the sensitivity bounds and the
    reported epsilon rest on. With None (max-norm), every row is divided by
    2*max row norm, the data-dependent rule of the training algorithm. That
    divisor is a statistic of the data itself: replacing one record can
    rescale every row, so the reported epsilon does not cover data
    normalized this way.
    """
    pts = measure.points
    if clip is None:
        top = float(np.linalg.norm(pts, axis=1).max())
        if top == 0.0:
            raise DataError("all rows are zero; max-norm scale undefined")
        out = pts / (2.0 * top)
    elif not 0 < clip <= MAX_CLIP:
        raise DataError(f"clip needs a finite positive radius C with 2C finite, got {clip}")
    else:
        norms = np.linalg.norm(pts, axis=1)
        factor = np.minimum(1.0, clip / np.maximum(norms, 1e-300))
        out = pts * factor[:, None]
        out /= 2.0 * clip
    out.setflags(write=False)  # the measure adopts the fresh array
    return EmpiricalMeasure(out, measure.weights)


def check_privacy_normalized(measure: EmpiricalMeasure) -> None:
    """Raise unless every row norm is <= 1/2 (+_NORM_TOL), the mechanism precondition."""
    norms = np.linalg.norm(measure.points, axis=1)
    worst = float(norms.max())
    if worst > 0.5 + _NORM_TOL:
        raise DataError(
            f"measure is not privacy-normalized: max row norm {worst:.6g} > 0.5; "
            "apply normalize_for_privacy first"
        )
