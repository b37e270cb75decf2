import csv
import tracemalloc

import numpy as np
import pytest

from dpswd import measures as ms


class TestFromPoints:
    def test_uniform_default(self):
        m = ms.from_points(np.arange(6.0).reshape(3, 2))
        assert np.allclose(m.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert abs(m.weights.sum() - 1.0) <= 1e-12

    def test_weight_normalization(self):
        m = ms.from_points([[0.0], [1.0]], weights=[2.0, 2.0])
        assert np.allclose(m.weights, [0.5, 0.5], atol=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(ms.DataError):
            ms.from_points([[0.0], [1.0]], weights=[1.0, -1.0])

    def test_zero_sum_weights_rejected(self):
        with pytest.raises(ms.DataError):
            ms.from_points([[0.0], [1.0]], weights=[0.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ms.DataError):
            ms.from_points([[np.nan, 0.0]])
        with pytest.raises(ms.DataError):
            ms.from_points([[0.0], [1.0]], weights=[np.inf, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ms.DataError):
            ms.from_points([[0.0], [1.0]], weights=[1.0, 1.0, 1.0])

    def test_immutability(self):
        m = ms.from_points([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.points[0, 0] = 7.0


def frozen(array):
    array.setflags(write=False)
    return array


class TestOwnership:
    def test_adopts_read_only_array_that_owns_its_data(self):
        pts = frozen(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.shares_memory(ms.EmpiricalMeasure(pts).points, pts)

    def test_copies_writeable_array(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = ms.EmpiricalMeasure(pts)
        assert not np.shares_memory(m.points, pts)
        pts[0, 0] = 99.0
        assert m.points[0, 0] == 1.0
        assert not m.points.flags.writeable

    def test_copies_read_only_view(self):
        base = np.arange(8.0).reshape(4, 2).copy()
        view = frozen(base[:2])
        m = ms.EmpiricalMeasure(view)
        assert not np.shares_memory(m.points, base)
        base[0, 0] = 99.0
        assert m.points[0, 0] == 0.0

    def test_copies_read_only_non_contiguous_array(self):
        pts = frozen(np.asfortranarray(np.arange(6.0).reshape(3, 2)))
        m = ms.EmpiricalMeasure(pts)
        assert not np.shares_memory(m.points, pts)
        assert m.points.flags.c_contiguous

    def test_loader_and_normalization_hand_over_fresh_arrays(self, tmp_path):
        (tmp_path / "d.csv").write_text("3,4\n0,1\n")
        loaded = ms.load_csv(tmp_path / "d.csv")
        assert loaded.points.flags.owndata and not loaded.points.flags.writeable
        for clip in (None, 2.0):
            out = ms.normalize_for_privacy(loaded, clip=clip)
            assert out.points.flags.owndata and not out.points.flags.writeable
            assert not np.shares_memory(out.points, loaded.points)

    def test_load_and_normalize_peak_memory(self, tmp_path):
        # each step holds its input and its output, never a third copy
        n, d = 2000, 200
        rng = np.random.default_rng(4)
        ms.save_csv(ms.from_points(rng.standard_normal((n, d))), tmp_path / "big.csv")
        tracemalloc.start()
        try:
            ms.normalize_for_privacy(ms.load_csv(tmp_path / "big.csv"), clip=30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * d * 8


class TestCsv:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,0\n1,1\n")
        m = ms.load_csv(p)
        assert (m.n, m.dim) == (2, 2)

    def test_header_skip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,0\n1,1\n2,2\n")
        m = ms.load_csv(p, has_header=True)
        assert m.n == 3

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"0,1\r\n2,3\r\n")
        assert ms.load_csv(p).n == 2

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ms.DataError, match="line 2"):
            ms.load_csv(p)

    def test_unparsable_cell_names_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ms.DataError, match="line 2, column 2"):
            ms.load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ms.DataError):
            ms.load_csv(p)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        scales = 10.0 ** rng.integers(-8, 8, size=(17, 1))
        m = ms.from_points(rng.standard_normal((17, 4)) * scales)
        p = tmp_path / "rt.csv"
        ms.save_csv(m, p)
        back = ms.load_csv(p)
        # repr round-trips doubles exactly, comfortably within 1e-15 relative
        assert np.array_equal(back.points, m.points)


# Inputs the bulk parser and the per-cell scan must agree on, as raw bytes.
LOADER_CASES = {
    "plain": b"0.5,-1\n2e3,4\n",
    "blank_lines": b"\n1,2\n\n\n3,4\n\n",
    "crlf": b"1,2\r\n3,4\r\n",
    "crlf_blank_line": b"1,2\r\n\r\n3,4\r\n",
    "whitespace_line": b"1,2\n   \n3,4\n",
    "trailing_comma": b"1,2,\n3,4,\n",
    "quoted_cell": b'"1.5",2\n3,"4"\n',
    "underscore_digits": b"1_0,2\n3,4\n",
    "hash_line": b"# comment\n1,2\n",
    "nan_cell": b"1,nan\n3,4\n",
    "spaces_around_cells": b" 1 ,\t2\n3, 4\n",
    "single_row": b"1,2,3\n",
    "single_column": b"1\n2\n3\n",
    "no_final_newline": b"1,2\n3,4",
    "ragged": b"1,2\n3\n",
    "unparsable": b"1,2\n3,oops\n",
    "header_only": b"x,y\n",
    "empty": b"",
    "blank_only": b"\n\r\n\n",
}


def _outcome(fn, *args):
    try:
        return "array", fn(*args).points
    except ms.DataError as exc:
        return "error", str(exc)


class TestLoaderAgreesWithScan:
    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("name", sorted(LOADER_CASES))
    def test_same_array_or_same_error(self, tmp_path, name, has_header):
        p = tmp_path / f"{name}.csv"
        p.write_bytes(LOADER_CASES[name])
        got = _outcome(ms.load_csv, p, has_header)
        want = _outcome(lambda path, h: ms.from_points(ms._scan_csv(path, h)), p, has_header)
        assert got[0] == want[0]
        if got[0] == "array":
            assert got[1].shape == want[1].shape
            assert np.array_equal(got[1], want[1])
        else:
            assert got[1] == want[1]

    def test_clean_input_skips_the_scan(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-cell scan called on clean input")

        monkeypatch.setattr(ms, "_scan_csv", refuse)
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b\r\n1,2\r\n\r\n3,4\r\n")
        assert ms.load_csv(p, has_header=True).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_repr_round_trip_300x50(self, tmp_path):
        rng = np.random.default_rng(7)
        scales = 10.0 ** rng.integers(-300, 300, size=(300, 1))
        pts = rng.standard_normal((300, 50)) * scales
        pts[0, :3] = [0.0, -0.0, 5e-324]
        p = tmp_path / "rt.csv"
        p.write_text("".join(",".join(map(repr, row)) + "\n" for row in pts.tolist()))
        back = ms.load_csv(p).points
        assert np.array_equal(back, pts)
        assert np.array_equal(back, ms._scan_csv(p, False))


# Edge files outside LOADER_CASES: (bytes, has_header, expected array or DataError message).
EDGE_FILES = {
    "lone_cr": (b"1,2\r3,4\r", False, [[1.0, 2.0], [3.0, 4.0]]),
    "lone_cr_header": (b"x,y\r1,2\r3,4\r", True, [[1.0, 2.0], [3.0, 4.0]]),
    "mixed_line_ends": (b"1,2\r\n3,4\n5,6\r7,8", False, [[1, 2], [3, 4], [5, 6], [7, 8]]),
    "trailing_blank_lines": (b"1,2\n3,4\n\n\r\n\n", False, [[1.0, 2.0], [3.0, 4.0]]),
    "arabic_indic_digits": ("\u0661,\u0662\n3,4\n".encode(), False, [[1.0, 2.0], [3.0, 4.0]]),
    "bom_in_header": ("\ufeffx,y\n1,2\n".encode(), True, [[1.0, 2.0]]),
    "bom": ("\ufeff1,2\n3,4\n".encode(), False,
            "unparsable cell at line 1, column 1: '\\ufeff1'"),
    "inf": (b"inf,-inf\n1,Infinity\n", False, "points contain NaN or Inf entries"),
    "nul_in_cell": (b"1,2\n3,\x004\n", False, "unparsable cell at line 2, column 2: '\\x004'"),
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_file_parses_like_scan_or_names_its_fault(tmp_path, name):
    data, has_header, expected = EDGE_FILES[name]
    p = tmp_path / f"{name}.csv"
    p.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(ms.DataError) as exc_info:
            ms.load_csv(p, has_header)
        assert str(exc_info.value).endswith(expected)
    else:
        got = ms.load_csv(p, has_header).points
        assert np.array_equal(got, ms._scan_csv(p, has_header))
        assert got.tolist() == expected


def _csv_writer_reference(path, header, rows):
    """How the rows were written before the shared formatter: one csv.writer row each."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


class TestWriteCsvRows:
    ROWS = [
        [0, 0.1, -0.0, 1e-300],
        [17, float("nan"), float("inf"), -float("inf")],
        [2**70, 1.0, 123456789.125, 5e-324],
        [-3, 1.7976931348623157e308, -2.5, 1e16],
    ]

    @pytest.mark.parametrize("header", [None, ["trial", "h", "c", "x3"]])
    def test_bytes_match_csv_writer(self, tmp_path, header):
        ms.write_csv_rows(tmp_path / "new.csv", iter(self.ROWS), header=header)
        _csv_writer_reference(tmp_path / "ref.csv", header, self.ROWS)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_save_csv_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        m = ms.from_points(rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-9, 9, (40, 1)))
        ms.save_csv(m, tmp_path / "new.csv")
        _csv_writer_reference(tmp_path / "ref.csv", None, m.points.tolist())
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestNormalizeForPrivacy:
    def test_max_norm_example(self):
        m = ms.from_points([[3.0, 4.0], [0.0, 1.0]])
        out = ms.normalize_for_privacy(m)
        assert np.allclose(out.points, [[0.3, 0.4], [0.0, 0.1]], atol=1e-15)
        assert np.linalg.norm(out.points, axis=1).max() == pytest.approx(0.5)

    def test_clip_example(self):
        m = ms.from_points([[1.0, 0.0]])
        out = ms.normalize_for_privacy(m, clip=1.0)
        assert np.allclose(out.points, [[0.5, 0.0]], atol=1e-15)

    def test_clip_shrinks_long_rows_only(self):
        m = ms.from_points([[10.0, 0.0], [0.5, 0.0]])
        out = ms.normalize_for_privacy(m, clip=2.0)
        assert np.allclose(out.points[0], [0.5, 0.0])  # clipped to radius C then /2C
        assert np.allclose(out.points[1], [0.125, 0.0])  # only rescaled by 1/2C

    def test_pairwise_differences_bounded(self):
        rng = np.random.default_rng(7)
        for clip in (None, 1.3):
            for _ in range(20):
                m = ms.from_points(rng.standard_normal((20, 5)) * 3)
                out = ms.normalize_for_privacy(m, clip=clip)
                pts = out.points
                gram = pts @ pts.T
                sq = np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram
                assert sq.max() <= 1.0 + 1e-12

    def test_all_zero_rows_rejected(self):
        m = ms.from_points([[0.0, 0.0]])
        with pytest.raises(ms.DataError):
            ms.normalize_for_privacy(m)

    def test_bad_clip_rejected(self):
        m = ms.from_points([[1.0]])
        with pytest.raises(ms.DataError):
            ms.normalize_for_privacy(m, clip=0.0)
        with pytest.raises(ms.DataError):
            ms.normalize_for_privacy(m, clip=-1.0)
        for radius in (float("inf"), float("nan")):
            with pytest.raises(ms.DataError, match="finite positive radius"):
                ms.normalize_for_privacy(m, clip=radius)

    def test_clip_whose_double_overflows_rejected(self):
        # 2C = inf would scale every row to 0
        m = ms.from_points([[1.0]])
        for radius in (1e308, np.nextafter(ms.MAX_CLIP, np.inf)):
            with pytest.raises(ms.DataError, match="with 2C finite"):
                ms.normalize_for_privacy(m, clip=radius)
        out = ms.normalize_for_privacy(m, clip=ms.MAX_CLIP)
        assert out.points[0, 0] == 0.5 / ms.MAX_CLIP > 0

    def test_check_guard(self):
        good = ms.from_points([[0.3, 0.4]])
        ms.check_privacy_normalized(good)
        bad = ms.from_points([[0.6, 0.0]])
        with pytest.raises(ms.DataError, match="not privacy-normalized"):
            ms.check_privacy_normalized(bad)
