import csv
import os
import threading
import tracemalloc
import warnings

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


# cells whose shortest repr takes a sign, an exponent, a subnormal or the largest float
SPECIAL = [-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308]


@pytest.fixture
def forking(monkeypatch):
    """Child shares at any size."""
    if not ms._FORK_SHARES:
        pytest.skip("child shares run on Linux only")
    monkeypatch.setattr(ms, "_FORK_MIN_BYTES", 0)


@pytest.fixture
def forks(monkeypatch, forking):
    """Child shares at any size; the pids forked, as the parent saw them."""
    return _fork_with(monkeypatch, lambda: None)


def _fork_with(monkeypatch, in_child):
    """Patch os.fork to run in_child() in each child; returns the parent's list of pids."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid == 0:
            in_child()
        else:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _special_points(n, d, seed=5):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-9, 9, (n, 1))
    flat = pts.reshape(-1)
    k = min(len(SPECIAL), flat.size)
    flat[:k] = SPECIAL[:k]
    flat[flat.size - k:] = SPECIAL[:k]
    return pts


class TestForkShares:
    """save_csv's rows [n//2:] and load_csv_pair's second file go to a forked child."""

    @pytest.mark.parametrize("forked", [True, False], ids=["child", "inline"])
    @pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3, 1000) for d in (1, 784)])
    def test_save_csv_bytes_match_serial_writer(self, tmp_path, monkeypatch, forks, forked, n, d):
        if not forked:
            monkeypatch.setattr(ms, "_FORK_SHARES", False)
        m = ms.from_points(_special_points(n, d))
        ms.save_csv(m, tmp_path / "new.csv")
        ms.write_csv_rows(tmp_path / "ref.csv", (row.tolist() for row in m.points))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert len(forks) == forked
        assert_no_child()

    @pytest.mark.parametrize("forked", [True, False], ids=["child", "inline"])
    @pytest.mark.parametrize("has_header", [False, True])
    def test_load_csv_pair_matches_load_csv(self, tmp_path, monkeypatch, forks, forked, has_header):
        if not forked:
            monkeypatch.setattr(ms, "_FORK_SHARES", False)
        header = "x,y,z\n" if has_header else ""
        ms.write_csv_rows(tmp_path / "b.csv", _special_points(7, 3).tolist())
        ms.write_csv_rows(tmp_path / "c.csv", np.random.default_rng(6).standard_normal((5, 3)).tolist())
        for path in (tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"):
            path.write_text(header + (path.read_text() if path.exists() else "3,4,0\n0,1,2\n"))
        prepare = lambda m: ms.normalize_for_privacy(m, clip=2.0)  # noqa: E731
        for first, second, how in (("a.csv", "b.csv", None), ("a.csv", "c.csv", prepare)):
            got = ms.load_csv_pair(tmp_path / first, tmp_path / second, has_header, how)
            for measure, path in zip(got, (first, second)):
                want = ms.load_csv(tmp_path / path, has_header)
                want = how(want) if how else want
                assert measure.points.shape == want.points.shape
                assert measure.points.tobytes() == want.points.tobytes()
                assert measure.points.flags.owndata and not measure.points.flags.writeable
        assert len(forks) == 2 * forked
        assert_no_child()

    def test_shares_below_the_minimum_stay_inline(self, tmp_path, monkeypatch):
        pids = _fork_with(monkeypatch, lambda: None)
        small = ms.from_points(np.ones((4, 3)))
        ms.save_csv(small, tmp_path / "small.csv")
        ms.load_csv_pair(tmp_path / "small.csv", tmp_path / "small.csv")
        assert pids == []

    @pytest.mark.parametrize("fails", ["pipe", "fork"])
    def test_no_child_when_pipe_or_fork_fails(self, tmp_path, monkeypatch, forks, fails):
        def refuse():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, fails, refuse)
        m = ms.from_points(_special_points(5, 4))
        ms.save_csv(m, tmp_path / "new.csv")
        ms.write_csv_rows(tmp_path / "ref.csv", (row.tolist() for row in m.points))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        a, b = ms.load_csv_pair(tmp_path / "ref.csv", tmp_path / "new.csv")
        assert a.points.tolist() == b.points.tolist() == m.points.tolist()

    def test_failed_writer_child_is_redone_here(self, tmp_path, monkeypatch, forking):
        # the child's text reaches the file before it fails: the rows are rewritten
        def in_child():
            ms._csv_lines = lambda rows: [b"junk from a failing child\n" * 100, None]

        pids = _fork_with(monkeypatch, in_child)
        m = ms.from_points(_special_points(6, 3))
        ms.save_csv(m, tmp_path / "new.csv")
        ms.write_csv_rows(tmp_path / "ref.csv", (row.tolist() for row in m.points))
        assert len(pids) == 1
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert_no_child()

    def test_child_shares_are_what_the_parent_uses(self, tmp_path, monkeypatch, forking):
        # the child's array and text are marked, so each must reach the result
        def in_child():
            ms._bulk_parse = lambda path, has_header: np.full((2, 3), 7.0)
            ms._csv_lines = lambda rows: [b"from the child\n"]

        pids = _fork_with(monkeypatch, in_child)
        ms.save_csv(ms.from_points([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == b"1.0,2.0,3.0\nfrom the child\n"
        (tmp_path / "ok.csv").write_text("1,2,3\n")
        a, b = ms.load_csv_pair(tmp_path / "ok.csv", tmp_path / "ok.csv")
        assert a.points.tolist() == [[1.0, 2.0, 3.0]]
        assert b.points.tolist() == [[7.0] * 3] * 2
        assert len(pids) == 2

    @pytest.mark.parametrize("fault", ["short", "exit-code"])
    def test_failed_reader_child_is_redone_here(self, tmp_path, monkeypatch, forking, fault):
        real_exit = os._exit

        def in_child():
            if fault == "short":  # ends cleanly without sending anything
                ms._bulk_parse = lambda path, has_header: real_exit(0)
            else:  # sends a whole, wrong array, then exits non-zero
                ms._bulk_parse = lambda path, has_header: np.zeros((2, 2))
                os._exit = lambda code: real_exit(7)

        pids = _fork_with(monkeypatch, in_child)
        ms.write_csv_rows(tmp_path / "b.csv", _special_points(5, 4).tolist())
        a, b = ms.load_csv_pair(tmp_path / "b.csv", tmp_path / "b.csv")
        assert len(pids) == 1
        assert b.points.tolist() == a.points.tolist() == ms.load_csv(tmp_path / "b.csv").points.tolist()
        assert_no_child()

    @pytest.mark.parametrize("first, second, error", [
        ("ok.csv", "ragged.csv", "ragged row at line 2"),
        ("ok.csv", "missing.csv", "No such file or directory"),
        ("ragged.csv", "missing.csv", "ragged row at line 2"),
        ("zeros.csv", "ragged.csv", "all rows are zero"),
    ])
    def test_errors_come_from_the_serial_load_first_input_first(self, tmp_path, forks, first, second, error):
        (tmp_path / "ok.csv").write_text("1,2\n3,4\n")
        (tmp_path / "ragged.csv").write_text("1,2\n3\n")
        (tmp_path / "zeros.csv").write_text("0,0\n0,0\n")
        prepare = lambda m: ms.normalize_for_privacy(m, clip=None)  # noqa: E731
        with pytest.raises((ms.DataError, OSError)) as got:
            ms.load_csv_pair(tmp_path / first, tmp_path / second, prepare=prepare)
        with pytest.raises((ms.DataError, OSError)) as serial:
            for name in (first, second):
                prepare(ms.load_csv(tmp_path / name))
        assert error in str(got.value)
        assert type(got.value) is type(serial.value) and str(got.value) == str(serial.value)
        assert_no_child()

    def test_fork_warning_with_threads_is_not_recorded(self, tmp_path, monkeypatch, forking):
        # Python >= 3.12 warns at a fork of a multi-threaded process; the
        # patched fork issues that warning on any version
        real_fork = os.fork

        def warning_fork():
            pid = real_fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                              "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ms.save_csv(ms.from_points(_special_points(4, 3)), tmp_path / "new.csv")
        finally:
            stop.set()
            thread.join()
        assert caught == []
        assert_no_child()
