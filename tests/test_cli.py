import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft7Validator

import dpswd
from dpswd.cli import _parse_grid

SCHEMA_DIR = Path(dpswd.__file__).parent / "schemas"


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dpswd.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def validate(payload: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    # the only cross-file reference is the shared manifest schema
    manifest = json.loads((SCHEMA_DIR / "manifest.schema.json").read_text())
    if schema.get("properties", {}).get("manifest", {}).get("$ref"):
        schema["properties"]["manifest"] = manifest
    Draft7Validator(schema).validate(payload)


def strip_duration(text: str) -> str:
    payload = json.loads(text)
    payload["manifest"].pop("duration_s")
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_data")
    rng = np.random.default_rng(0)
    np.savetxt(d / "a.csv", rng.standard_normal((30, 3)), delimiter=",")
    np.savetxt(d / "b.csv", rng.standard_normal((30, 3)) + 1.0, delimiter=",")
    np.savetxt(d / "src2d.csv", rng.standard_normal((20, 2)) + 4.0, delimiter=",")
    np.savetxt(d / "tgt2d.csv", rng.standard_normal((20, 2)), delimiter=",")
    (d / "ragged.csv").write_text("1,2\n3\n")
    return d


class TestCompute:
    def test_identical_inputs_zero(self, data_dir):
        r = run_cli("compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "a.csv"),
                    "--k", "8", "--seed", "1")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["value"] == 0.0
        validate(payload, "compute.schema.json")

    def test_hex_seed_equals_decimal(self, data_dir):
        a, b = str(data_dir / "a.csv"), str(data_dir / "b.csv")
        r1 = run_cli("compute", "--a", a, "--b", b, "--k", "8", "--seed", "0x2A")
        r2 = run_cli("compute", "--a", a, "--b", b, "--k", "8", "--seed", "42")
        assert strip_duration(r1.stdout) == strip_duration(r2.stdout)

    def test_sigma_without_normalize_is_usage_error(self, data_dir):
        r = run_cli("compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"),
                    "--sigma", "1.0")
        assert r.returncode == 2
        assert "normalize" in r.stderr

    def test_private_path_with_normalize(self, data_dir):
        r = run_cli("compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"),
                    "--k", "16", "--sigma", "0.5", "--normalize", "max", "--seed", "3")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["value"] > 0
        validate(payload, "compute.schema.json")

    @pytest.mark.parametrize("text", ["max", "clip:2"])
    def test_manifest_records_normalize_as_given(self, data_dir, text):
        r = run_cli("compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"),
                    "--k", "8", "--normalize", text, "--seed", "3")
        assert r.returncode == 0
        assert json.loads(r.stdout)["manifest"]["params"]["normalize"] == text

    def test_bad_normalize_is_usage_error(self, data_dir):
        r = run_cli("compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"),
                    "--sigma", "0.5", "--normalize", "clip:x")
        assert r.returncode == 2
        assert "bad clip radius" in r.stderr

    def test_missing_file_is_data_error(self, data_dir):
        r = run_cli("compute", "--a", str(data_dir / "nope.csv"), "--b", str(data_dir / "b.csv"))
        assert r.returncode == 3

    def test_ragged_csv_is_data_error(self, data_dir):
        r = run_cli("compute", "--a", str(data_dir / "ragged.csv"), "--b", str(data_dir / "b.csv"))
        assert r.returncode == 3
        assert "line 2" in r.stderr

    def test_missing_required_arg_is_usage_error(self, data_dir):
        r = run_cli("compute", "--a", str(data_dir / "a.csv"))
        assert r.returncode == 2


class TestSensitivityCmd:
    def test_outputs_and_values(self, data_dir, tmp_path):
        out = tmp_path / "sens"
        r = run_cli("sensitivity", "--d", "784", "--k", "200", "--trials", "2000",
                    "--delta", "1e-5", "--seed", "5", "--out", str(out))
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        validate(payload, "sensitivity.schema.json")
        assert payload["requested"]["bernstein"] == pytest.approx(8.0526, abs=1e-3)
        assert payload["requested"]["clt"] == pytest.approx(0.3637, abs=1e-3)
        assert payload["empirical_mean"] == pytest.approx(200 / 784, abs=0.01)
        on_disk = json.loads((out / "sensitivity_summary.json").read_text())
        assert on_disk == payload
        lines = (out / "sensitivity_samples.csv").read_text().splitlines()
        assert lines[0] == "trial,h"
        assert len(lines) == 2001

    def test_d1_every_sample_is_k(self, tmp_path):
        out = tmp_path / "sens1"
        r = run_cli("sensitivity", "--d", "1", "--k", "7", "--trials", "50",
                    "--seed", "0", "--out", str(out))
        assert r.returncode == 0
        rows = (out / "sensitivity_samples.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) == 7.0 for line in rows)


class TestToyCmd:
    def test_sigma_zero_columns_equal(self, tmp_path):
        r = run_cli("toy", "--d", "3", "--n", "40", "--k", "16", "--sigma", "0",
                    "--grid", "0:0.4:0.2", "--repeats", "2", "--seed", "7")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        validate(payload, "toy.schema.json")
        for row in payload["rows"]:
            assert row["dpswd_mean"] == row["swd_mean"]

    def test_csv_written(self, tmp_path):
        out = tmp_path / "toy"
        r = run_cli("toy", "--d", "3", "--n", "30", "--k", "8", "--sigma", "1",
                    "--grid", "0:0.2:0.1", "--repeats", "2", "--seed", "8", "--out", str(out))
        assert r.returncode == 0
        lines = (out / "toy.csv").read_text().splitlines()
        assert lines[0] == "c,swd_mean,swd_std,dpswd_mean,dpswd_std"
        assert len(lines) == 4

    def test_manifest_records_grid_as_given(self):
        r = run_cli("toy", "--d", "2", "--n", "10", "--k", "4", "--sigma", "0",
                    "--grid", "0.2:0.4:0.1", "--repeats", "1", "--seed", "9")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["manifest"]["params"]["grid"] == "0.2:0.4:0.1"
        assert [row["c"] for row in payload["rows"]] == pytest.approx([0.2, 0.3, 0.4])

    def test_bad_grid_is_usage_error(self):
        r = run_cli("toy", "--grid", "1:0:0.1", "--seed", "0")
        assert r.returncode == 2

    @pytest.mark.parametrize("text, count", [("0:1:0.35", 3), ("0:0.3:0.1", 4), ("0:1:0.1", 11),
                                             ("0:0.4:0.2", 3), ("0.2:0.4:0.1", 3), ("1:1:0.5", 1)])
    def test_grid_ends_at_or_before_stop(self, text, count):
        grid = _parse_grid(text)
        start, stop, step = (float(p) for p in text.split(":"))
        assert len(grid) == count
        assert grid[0] == start
        assert grid[-1] <= stop
        assert grid == pytest.approx([start + i * step for i in range(count)], abs=1e-12)


class TestCalibrateCmd:
    def test_reference_run(self):
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--dim", "784",
                    "--k", "1000", "--n", "60000", "--epochs", "100", "--batch", "100",
                    "--bound", "clt", "--seed", "0")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        validate(payload, "calibrate.schema.json")
        assert payload["steps"] == 60000
        assert payload["gamma"] == pytest.approx(1 / 600)
        assert payload["eps_achieved"] <= 10.0 + 1e-9
        assert payload["sigma"] == pytest.approx(0.8837, abs=2e-3)

    def test_reports_per_draw_bound_charged(self):
        # fresh directions at each of the 60000 steps: w is built at delta_s / T
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--dim", "784",
                    "--k", "1000", "--n", "60000", "--epochs", "100", "--batch", "100",
                    "--bound", "bernstein", "--seed", "0")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["w"] == dpswd.bernstein_bound(1000, 784, 0.5e-5 / 60000).w
        assert payload["w"] == pytest.approx(17.136, abs=1e-3)

    @pytest.mark.parametrize("bound", ["bernstein", "clt"])
    def test_tail_bound_without_delta_share_is_usage_error(self, bound):
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--dim", "784",
                    "--k", "1000", "--n", "60000", "--epochs", "100", "--batch", "100",
                    "--bound", bound, "--delta-split", "0", "--seed", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "delta_split must be > 0" in r.stderr

    def test_more_epochs_needs_more_noise(self):
        def sigma_for(epochs):
            r = run_cli("calibrate", "--eps", "3", "--delta", "1e-5", "--dim", "50",
                        "--k", "100", "--n", "5000", "--epochs", str(epochs),
                        "--batch", "100", "--seed", "0")
            return json.loads(r.stdout)["sigma"]

        assert sigma_for(20) > sigma_for(10)

    def test_infeasible_budget_exit_code(self):
        r = run_cli("calibrate", "--eps", "0.001", "--delta", "1e-7", "--dim", "50",
                    "--k", "100", "--n", "1000", "--epochs", "1000", "--batch", "1000",
                    "--amplification", "none", "--seed", "0")
        assert r.returncode == 4
        assert "achieved eps" in r.stderr


class TestFlowCmd:
    def test_end_to_end(self, data_dir, tmp_path):
        out = tmp_path / "flow"
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "120", "--lr", "1.0", "--k", "32", "--seed", "4",
                    "--out", str(out))
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        validate(payload, "flow.schema.json")
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,loss,grad_norm"
        losses = [float(line.split(",")[1]) for line in trace[1:]]
        assert losses[-1] < 0.1 * losses[0]
        particles = (out / "particles.csv").read_text().splitlines()
        assert len(particles) == 20

    def test_missing_target_is_usage_error(self, data_dir, tmp_path):
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--iters", "5", "--lr", "0.1", "--out", str(tmp_path / "x"))
        assert r.returncode == 2

    def test_sigma_requires_normalize(self, data_dir, tmp_path):
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "5", "--lr", "0.1", "--sigma", "1.0",
                    "--out", str(tmp_path / "x"))
        assert r.returncode == 2

    def test_manifest_records_normalize_as_given(self, data_dir, tmp_path):
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "2", "--lr", "0.5", "--k", "4", "--normalize", "max",
                    "--seed", "4", "--out", str(tmp_path / "n"))
        assert r.returncode == 0
        assert json.loads(r.stdout)["manifest"]["params"]["normalize"] == "max"

    def test_private_run_reports_budget(self, data_dir, tmp_path):
        out = tmp_path / "pflow"
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "20", "--lr", "0.5", "--k", "16", "--sigma", "1.0",
                    "--normalize", "max", "--seed", "4", "--out", str(out))
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["eps"] > 0
        assert payload["delta"] == 1e-5
        assert payload["sensitivity_w"] > 0

    def test_tail_bound_without_delta_share_is_usage_error(self, data_dir, tmp_path):
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "5", "--lr", "0.1", "--sigma", "1.0", "--normalize", "max",
                    "--delta-split", "0", "--out", str(tmp_path / "x"))
        assert r.returncode == 2
        assert "delta_split must be > 0" in r.stderr

    def test_diverging_flow_exits_cleanly_with_partial_trace(self, data_dir, tmp_path):
        out = tmp_path / "diverged"
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "200", "--lr", "500", "--k", "8", "--seed", "4",
                    "--log-every", "1", "--out", str(out))
        assert r.returncode == 5
        assert r.stdout == ""
        assert "exceeded" in r.stderr and "reduce the learning rate" in r.stderr
        assert "Traceback" not in r.stderr
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,loss,grad_norm"
        assert [int(line.split(",")[0]) for line in trace[1:]] == list(range(len(trace) - 1))
        assert len(trace) - 1 < 200
        assert not (out / "particles.csv").exists()

    def test_round_trip_with_calibrate(self, data_dir, tmp_path):
        # sigma calibrated for a schedule, then a flow run on that schedule
        # must report the same budget back
        iters, k, eps = 30, 16, 8.0
        cal = run_cli("calibrate", "--eps", str(eps), "--delta", "1e-5", "--dim", "2",
                      "--k", str(k), "--n", "20", "--epochs", str(iters), "--batch", "20",
                      "--bound", "bernstein", "--seed", "0")
        sigma = json.loads(cal.stdout)["sigma"]
        out = tmp_path / "rt"
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", str(iters), "--lr", "0.5", "--k", str(k),
                    "--sigma", str(sigma), "--normalize", "max",
                    "--delta", "1e-5", "--bound", "bernstein",
                    "--seed", "4", "--out", str(out))
        assert r.returncode == 0
        reported = json.loads(r.stdout)["eps"]
        assert reported == pytest.approx(eps, abs=1e-3)


class TestDeterminism:
    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert dpswd.__version__ in r.stdout

    @pytest.mark.parametrize(
        "argv_fn",
        [
            lambda d, o: ["compute", "--a", str(d / "a.csv"), "--b", str(d / "b.csv"),
                          "--k", "32", "--seed", "11"],
            lambda d, o: ["compute", "--a", str(d / "a.csv"), "--b", str(d / "b.csv"),
                          "--k", "32", "--sigma", "0.7", "--normalize", "max", "--seed", "11"],
            lambda d, o: ["sensitivity", "--d", "100", "--k", "50", "--trials", "500",
                          "--seed", "11", "--out", str(o / "s")],
            lambda d, o: ["toy", "--d", "3", "--n", "30", "--k", "8", "--sigma", "1",
                          "--grid", "0:0.2:0.1", "--repeats", "2", "--seed", "11"],
            lambda d, o: ["calibrate", "--eps", "5", "--delta", "1e-5", "--dim", "100",
                          "--k", "64", "--n", "2000", "--epochs", "2", "--batch", "200",
                          "--seed", "11"],
            lambda d, o: ["flow", "--source", str(d / "src2d.csv"),
                          "--target", str(d / "tgt2d.csv"), "--iters", "10", "--lr", "0.5",
                          "--k", "8", "--seed", "11", "--out", str(o / "f")],
        ],
        ids=["compute", "compute-dp", "sensitivity", "toy", "calibrate", "flow"],
    )
    def test_identical_output_across_runs_and_threads(self, data_dir, tmp_path, argv_fn):
        # identical arguments (including --out) with varying --threads; file
        # contents are snapshotted after each run before the next overwrites
        outs = []
        files = {}
        o = tmp_path / "out"
        o.mkdir()
        for threads in ("1", "8", "1"):
            argv = argv_fn(data_dir, o) + ["--threads", threads]
            r = run_cli(*argv)
            assert r.returncode == 0, r.stderr
            outs.append(strip_duration(r.stdout))
            for f in sorted(o.rglob("*")):
                if f.is_file() and f.suffix == ".csv":
                    files.setdefault(f.relative_to(o), []).append(f.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        for variants in files.values():
            assert len(variants) == 3
            assert variants[0] == variants[1] == variants[2]

    def test_csvs_are_rfc4180_parseable(self, data_dir, tmp_path):
        import csv as csvmod

        out = tmp_path / "rfc"
        run_cli("sensitivity", "--d", "10", "--k", "5", "--trials", "20",
                "--seed", "1", "--out", str(out))
        with open(out / "sensitivity_samples.csv", newline="") as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0] == ["trial", "h"]
        assert len(rows) == 21
        assert all(len(r) == 2 for r in rows)
