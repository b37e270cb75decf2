"""Datasets as weighted empirical measures, plus privacy normalization.

An EmpiricalMeasure is an n-by-d matrix of support points with a
probability vector of weights. The privacy-facing preprocessing rescales
rows so that any two rows of the dataset matrix differ by at most 1 in
Euclidean norm, the neighboring-dataset precondition of the sensitivity
bounds.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 3)."""


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point cloud (1/n) sum of Dirac masses, weights summing to 1."""

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

    def is_uniform(self, tol: float = 1e-12) -> bool:
        return bool(np.abs(self.weights - 1.0 / self.n).max() <= tol)


def from_points(points, weights=None) -> EmpiricalMeasure:
    """Build a measure from an n-by-d array; weights default to uniform."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return EmpiricalMeasure(pts, weights)


def load_csv(path, has_header: bool = False) -> EmpiricalMeasure:
    """Read a numeric CSV (one sample per row) into a uniform-weight measure.

    The file is parsed in one pass by numpy's C reader. Input it rejects
    (ragged rows, bad cells, quoting) and input with no data rows go to the
    per-cell scan, which names the failing line and column or, for cells
    that only Python's ``float`` accepts, returns the same array.
    """
    path = Path(path)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        points = _bulk_parse(fh, has_header)
    if points is None:
        points = _scan_csv(path, has_header)
    return from_points(points)


def _bulk_parse(fh, has_header: bool) -> np.ndarray | None:
    """The whole file through np.loadtxt, or None where the scan must decide."""
    # loadtxt warns on input without data rows, so look for one first
    lines = iter(fh)
    if has_header:
        next(lines, None)
    if not any(line.strip("\r\n") for line in lines):
        return None
    fh.seek(0)
    try:
        return np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2, comments=None,
                          skiprows=1 if has_header else 0)
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


def save_csv(measure: EmpiricalMeasure, path, header: bool = False) -> None:
    """Write support points as CSV with full round-trip precision."""
    names = [f"x{j}" for j in range(measure.dim)] if header else None
    write_csv_rows(path, (row.tolist() for row in measure.points), header=names)


def load_raw(path) -> EmpiricalMeasure:
    """Read the binary format: little-endian u64 (n, d) header, f64 row-major."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16:
        raise DataError(f"{path}: truncated header")
    n, d = struct.unpack("<QQ", raw[:16])
    expected = 16 + 8 * n * d
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes for {n}x{d}, got {len(raw)}")
    pts = np.frombuffer(raw, dtype="<f8", offset=16).reshape(n, d)
    return from_points(pts)


def save_raw(measure: EmpiricalMeasure, path) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", measure.n, measure.dim))
        fh.write(np.ascontiguousarray(measure.points, dtype="<f8").tobytes())


def privacy_scale(measure: EmpiricalMeasure) -> float:
    """The max-norm divisor 2*max_j ||row_j||: rows/scale all have norm <= 1/2."""
    norms = np.linalg.norm(measure.points, axis=1)
    top = float(norms.max())
    if top == 0.0:
        raise DataError("all rows are zero; max-norm scale undefined")
    return 2.0 * top


def normalize_for_privacy(
    measure: EmpiricalMeasure,
    mode: str = "max-norm",
    clip: float | None = None,
    scale: float | None = None,
) -> EmpiricalMeasure:
    """Rescale rows so any two differ by at most 1 in l2 norm.

    max-norm mode divides every row by 2*max row norm (the data-dependent
    rule of the training algorithm; note the max itself leaks one statistic
    of the data). clip mode first shrinks rows with norm above C onto the
    radius-C ball, then divides by 2C; with a public constant C this is the
    private-grade variant. A caller-supplied ``scale`` overrides the
    max-norm divisor, for pipelines that fix it once across batches.
    """
    pts = measure.points
    if mode == "max-norm":
        s = privacy_scale(measure) if scale is None else float(scale)
        if s <= 0:
            raise DataError(f"normalization scale must be positive, got {s}")
        out = pts / s
    elif mode == "clip":
        if clip is None or clip <= 0:
            raise DataError(f"clip mode needs a positive radius C, got {clip}")
        norms = np.linalg.norm(pts, axis=1)
        factor = np.minimum(1.0, clip / np.maximum(norms, 1e-300))
        out = pts * factor[:, None] / (2.0 * clip)
    else:
        raise DataError(f"unknown normalization mode: {mode!r}")
    return EmpiricalMeasure(out, measure.weights)


def check_privacy_normalized(measure: EmpiricalMeasure, tol: float = 1e-9) -> None:
    """Raise unless every row norm is <= 1/2 (+tol), the mechanism precondition."""
    norms = np.linalg.norm(measure.points, axis=1)
    worst = float(norms.max())
    if worst > 0.5 + tol:
        raise DataError(
            f"measure is not privacy-normalized: max row norm {worst:.6g} > 0.5; "
            "apply normalize_for_privacy first"
        )
