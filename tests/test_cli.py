import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft7Validator, ValidationError

import dpswd
from dpswd import cli, measures, sliced_distance
from dpswd.cli import GRID_MAX_POINTS, _parse_grid, build_parser
from dpswd.sensitivity import simulate_sensitivity, summarize_simulation

SCHEMA_DIR = Path(dpswd.__file__).parent / "schemas"
README = Path(__file__).resolve().parents[1] / "README.md"

# one seeded run per subcommand, as argv built from (data dir, output dir)
SUBCOMMAND_RUNS = pytest.mark.parametrize(
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

    @pytest.mark.parametrize("text, seed", [("010", 10), ("0x2A", 42), ("0X2a", 42)])
    def test_seed_is_hex_only_with_0x_prefix(self, data_dir, text, seed):
        r = run_cli("compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"),
                    "--k", "8", "--seed", text)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["manifest"]["seed"] == seed

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

    @pytest.mark.parametrize("flag, value", [("--q", "nan"), ("--q", "inf"), ("--sigma", "nan")])
    def test_non_finite_q_or_sigma_is_usage_error(self, data_dir, flag, value):
        r = run_cli("compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"),
                    "--k", "8", flag, value, "--seed", "3")
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"{flag[2:]} must be finite" in r.stderr

    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "0", "k must be >= 1"),
        ("--sigma", "-1", "sigma must be finite and >= 0"),
        ("--q", "0.5", "q must be finite and >= 1"),
    ])
    def test_bad_config_is_refused_before_reading_inputs(self, data_dir, tmp_path, flag, value,
                                                         message):
        # the first input does not exist: a read would exit 3 before the check
        r = run_cli("compute", "--a", str(tmp_path / "missing.csv"), "--b", str(data_dir / "b.csv"),
                    flag, value)
        assert r.returncode == 2
        assert message in r.stderr

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

    def test_non_finite_distance_is_data_error(self, data_dir, tmp_path):
        # the projections of 1e200 square to infinity in float64, and so do
        # noise at sigma = 1e160 and (as inf - inf) noise that itself overflows
        (tmp_path / "huge.csv").write_text("1e200,0\n0,1\n")
        pairs = [(str(tmp_path / "huge.csv"), str(data_dir / "tgt2d.csv"))]
        for sigma in ("1e160", "1e308"):
            pairs.append((str(data_dir / "a.csv"), str(data_dir / "b.csv"),
                          "--sigma", sigma, "--normalize", "clip:4"))
        for a, b, *extra in pairs:
            r = run_cli("compute", "--a", a, "--b", b, "--k", "8", *extra)
            assert r.returncode == 3
            assert r.stdout == ""
            # one line: no numpy warning before the message
            assert r.stderr.startswith("error: the distance is not finite")
            assert r.stderr.count("\n") == 1


def private_input_argv(subcommand, first, second, tmp_path):
    """A compute or flow run reading its two CSV inputs from first and second."""
    if subcommand == "compute":
        return ["compute", "--a", first, "--b", second, "--k", "8"]
    return ["flow", "--source", first, "--target", second, "--iters", "2", "--lr", "0.1",
            "--k", "4", "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("subcommand", ["compute", "flow"])
class TestPrivateInputs:
    def test_sigma_without_normalize_refused_before_reading(self, data_dir, tmp_path, subcommand):
        argv = private_input_argv(subcommand, str(data_dir / "nope.csv"),
                                  str(data_dir / "tgt2d.csv"), tmp_path)
        r = run_cli(*argv, "--sigma", "1")
        assert r.returncode == 2
        assert "requires --normalize" in r.stderr

    @pytest.mark.parametrize("radius", ["inf", "nan", "0", "-1"])
    def test_clip_radius_must_be_finite_and_positive(self, data_dir, tmp_path, subcommand, radius):
        argv = private_input_argv(subcommand, str(data_dir / "src2d.csv"),
                                  str(data_dir / "tgt2d.csv"), tmp_path)
        r = run_cli(*argv, "--sigma", "0.5", "--normalize", f"clip:{radius}")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "C must be finite and > 0" in r.stderr

    def test_clip_radius_whose_double_overflows_is_usage_error(self, data_dir, tmp_path, subcommand):
        # 2C = inf would scale every row to 0, leaving a noise-only release
        argv = private_input_argv(subcommand, str(data_dir / "src2d.csv"),
                                  str(data_dir / "tgt2d.csv"), tmp_path)
        r = run_cli(*argv, "--sigma", "0.5", "--normalize", "clip:1e308")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: bad clip radius in 'clip:1e308': C must be finite and > 0, with 2C finite\n"

    def test_dimension_mismatch_is_data_error(self, data_dir, tmp_path, subcommand):
        argv = private_input_argv(subcommand, str(data_dir / "a.csv"),
                                  str(data_dir / "tgt2d.csv"), tmp_path)
        r = run_cli(*argv)
        assert r.returncode == 3
        assert "dimension mismatch: 3 vs 2" in r.stderr


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

    @pytest.mark.parametrize("d,delta", [("20", "0"), ("20", "1"), ("20", "1.5"), ("20", "nan"),
                                         ("1", "1.5")])
    def test_bad_delta_is_refused_before_simulating(self, tmp_path, d, delta):
        out = tmp_path / "sens"
        r = run_cli("sensitivity", "--d", d, "--k", "5", "--trials", "100",
                    "--delta", delta, "--out", str(out))
        assert r.returncode == 2
        assert "delta must lie in (0, 1)" in r.stderr
        assert not out.exists()

    # d = 1 has null bounds, d = 3 takes the ratio branch; k >= 30 keeps clt silent
    @pytest.mark.parametrize("d,k,trials,delta", [(1, 40, 50, 0.2), (3, 40, 500, 1e-3),
                                                  (784, 200, 1000, 1e-5)])
    def test_prints_the_library_summary(self, tmp_path, capsys, d, k, trials, delta):
        argv = ["sensitivity", "--d", str(d), "--k", str(k), "--trials", str(trials),
                "--delta", str(delta), "--seed", "4", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert set(payload.pop("manifest")) == {"subcommand", "params", "seed", "version", "duration_s"}
        summary = summarize_simulation(simulate_sensitivity(d, k, trials, 4), k, d, delta)
        assert payload == json.loads(json.dumps(summary))

    @pytest.mark.parametrize("where", ["requested", "levels"])
    @pytest.mark.parametrize("change", [{"extra": 1.0}, {"delta": 0.0}, {"delta": 1.0},
                                        {"empirical_quantile": -0.5}],
                             ids=["extra-key", "delta-0", "delta-1", "negative-quantile"])
    def test_schema_refuses_a_bad_level(self, tmp_path, capsys, where, change):
        assert cli.main(["sensitivity", "--d", "20", "--k", "40", "--trials", "100",
                         "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "sensitivity.schema.json")
        level = payload["requested"] if where == "requested" else payload["levels"][1]
        level.update(change)
        with pytest.raises(ValidationError):
            validate(payload, "sensitivity.schema.json")


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

    @pytest.mark.parametrize("flag, sigma, grid", [("--sigma", "1e160", "0:0.1:0.1"),
                                                   ("--sigma", "1e308", "0:0.1:0.1"),
                                                   ("--grid", "1", "0:1e200:1e200")])
    def test_non_finite_estimate_is_usage_error(self, flag, sigma, grid):
        r = run_cli("toy", "--n", "10", "--k", "4", "--sigma", sigma, "--grid", grid,
                    "--repeats", "1", "--seed", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        # one line: no numpy warning and no JSON encoder message
        assert r.stderr == f"error: the estimate is not finite (float64 overflow): reduce {flag}\n"

    def test_zero_repeats_is_usage_error(self):
        r = run_cli("toy", "--d", "2", "--n", "10", "--k", "4", "--repeats", "0", "--seed", "9")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--repeats must be >= 1" in r.stderr

    def test_bad_grid_is_usage_error(self):
        r = run_cli("toy", "--grid", "1:0:0.1", "--seed", "0")
        assert r.returncode == 2

    @pytest.mark.parametrize("grid", ["0:inf:1", "0:1:nan"])
    def test_non_finite_grid_is_usage_error(self, grid):
        r = run_cli("toy", "--grid", grid, "--seed", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert f"must be finite, got {grid!r}" in r.stderr

    @pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0:1e12:1", f"0:{GRID_MAX_POINTS}:1"])
    def test_grid_over_point_cap_is_usage_error(self, grid):
        r = run_cli("toy", "--grid", grid, "--seed", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert f"grid has more than {GRID_MAX_POINTS} points: {grid!r}" in r.stderr

    def test_grid_at_point_cap_is_accepted(self):
        grid = _parse_grid(f"0:{GRID_MAX_POINTS - 1}:1")
        assert len(grid) == GRID_MAX_POINTS
        assert grid[-1] == GRID_MAX_POINTS - 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--n", "--d"])
    def test_count_below_one_is_usage_error(self, flag, value):
        r = run_cli("toy", flag, value, "--k", "4", "--repeats", "1", "--seed", "9")
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"{flag} must be >= 1, got {value}" in r.stderr

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

    def test_amplification_none_is_sampling_rate_one(self):
        # the mnist-clt "none" row of test_accountant's CALIBRATION_PINS: the
        # budget is charged at sampling rate 1, while gamma still reports batch/n
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--dim", "784",
                    "--k", "1000", "--n", "60000", "--epochs", "100", "--batch", "100",
                    "--bound", "clt", "--amplification", "none", "--seed", "0")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        validate(payload, "calibrate.schema.json")
        assert (payload["sigma"], payload["eps_achieved"], payload["best_order"]) == (
            182.09960156493966, 9.999999999994442, 3.75)
        assert payload["amplification"] == "none"
        assert payload["gamma"] == 0.0016666666666666668

    @pytest.mark.parametrize("amplification", ["subsample", "none"])
    @pytest.mark.parametrize("bound", ["bernstein", "clt"])
    @pytest.mark.parametrize("row", [(784, 1000, 60000, 100, 100, 1e-5),
                                     (8192, 2000, 162000, 100, 256, 1e-6)],
                             ids=["mnist", "celeba"])
    def test_prints_library_calibration(self, capsys, row, bound, amplification):
        # subsample charges the budget at batch/n and none at sampling rate 1;
        # both report gamma = batch/n
        d, k, n, epochs, batch, delta = row
        assert cli.main(["calibrate", "--eps", "10", "--delta", str(delta), "--dim", str(d),
                         "--k", str(k), "--n", str(n), "--epochs", str(epochs),
                         "--batch", str(batch), "--bound", bound,
                         "--amplification", amplification]) == 0
        payload = json.loads(capsys.readouterr().out)
        budget = dpswd.PrivacyBudget(
            eps_target=10.0, delta_target=delta, steps=epochs * (n // batch),
            sampling_rate=1.0 if amplification == "none" else batch / n, delta_split=0.5)
        result = dpswd.calibrate_sigma(budget, budget.tail_bound(bound, k, d))
        assert (payload["sigma"], payload["eps_achieved"], payload["best_order"]) == (
            result.sigma, result.eps_achieved, result.best_order)
        assert (payload["amplification"], payload["gamma"]) == (amplification, batch / n)

    def test_orders_is_not_an_option(self):
        # every account runs on the one quarter-step order grid
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--dim", "784",
                    "--k", "1000", "--n", "60000", "--epochs", "100", "--batch", "100",
                    "--orders", "dense", "--seed", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "unrecognized arguments: --orders dense" in r.stderr
        assert "Traceback" not in r.stderr

    def test_manifest_params_have_no_orders(self):
        r = run_cli("calibrate", "--eps", "5", "--delta", "1e-5", "--dim", "100",
                    "--k", "64", "--n", "2000", "--epochs", "2", "--batch", "200", "--seed", "11")
        assert r.returncode == 0, r.stderr
        params = json.loads(r.stdout)["manifest"]["params"]
        assert "orders" not in params
        assert params["amplification"] == "subsample"

    def test_poisson_amplification_is_not_a_choice(self):
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--dim", "784",
                    "--k", "1000", "--n", "60000", "--epochs", "100", "--batch", "100",
                    "--amplification", "poisson", "--seed", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "invalid choice: 'poisson'" in r.stderr
        assert "Traceback" not in r.stderr

    def test_small_per_draw_delta_clt(self):
        # per-draw delta 1e-12 / 2 / 60000 = 8.3e-18, where 1 - delta rounds to 1.0
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-12", "--dim", "784",
                    "--k", "1000", "--n", "60000", "--epochs", "100", "--batch", "100",
                    "--bound", "clt", "--seed", "0")
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["w"] == dpswd.clt_bound(1000, 784, 0.5e-12 / 60000).w
        assert payload["sigma"] == pytest.approx(1.1023, abs=1e-3)

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

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_is_usage_error(self, eps):
        r = run_cli("calibrate", "--eps", eps, "--delta", "1e-5", "--dim", "784", "--k", "1000",
                    "--n", "600", "--epochs", "1", "--batch", "100", "--seed", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "eps_target must be finite and positive" in r.stderr

    @pytest.mark.parametrize("flag", ["--n", "--batch", "--epochs"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_size_is_usage_error(self, flag, value):
        sizes = {"--n": "60000", "--batch": "100", "--epochs": "100", flag: value}
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--dim", "784", "--k", "1000",
                    *(part for item in sizes.items() for part in item),
                    "--seed", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"{flag} must be >= 1" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("flag, field", [("--epochs", "--epochs"), ("--n", "--n"),
                                             ("--k", "k"), ("--dim", "d")])
    def test_count_beyond_float64_is_usage_error(self, flag, field):
        # the bounds and the schedule compute with counts as floats
        sizes = {"--dim": "784", "--k": "1000", "--n": "60000", "--epochs": "1", flag: str(10**320)}
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--batch", "100",
                    *(part for item in sizes.items() for part in item))
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"error: {field} must be at most 1.79769e+308" in r.stderr
        assert "Traceback" not in r.stderr

    def test_counts_that_overflow_w_are_named(self):
        r = run_cli("calibrate", "--eps", "10", "--delta", "1e-5", "--dim", "2", "--k", str(10**308),
                    "--n", "1000", "--epochs", "1", "--batch", "100")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: the bernstein sensitivity bound w overflows float64 at k=about 10^308.0, d=2\n"

    def test_budget_met_at_bracket_floor_is_clamped(self):
        # sigma = 1e-3 already meets eps = 1e13; the floor is reported, not searched below
        r = run_cli("calibrate", "--eps", "1e13", "--delta", "1e-5", "--dim", "784",
                    "--k", "1000", "--n", "60000", "--epochs", "100", "--batch", "100",
                    "--seed", "0")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["sigma"] == 0.001
        assert payload["eps_achieved"] <= 1e13

    def test_infeasible_budget_exit_code(self):
        r = run_cli("calibrate", "--eps", "0.001", "--delta", "1e-7", "--dim", "50",
                    "--k", "100", "--n", "1000", "--epochs", "1000", "--batch", "1000",
                    "--amplification", "none", "--seed", "0")
        assert r.returncode == 4
        assert "achieved eps" in r.stderr


def finite_numbers(value) -> bool:
    """True when every float in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main; argparse's refusals exit by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCalibrateIntegerFlagsProperty:
    # the edges of the count checks, of exact float conversion and of
    # float64's range, beside ordinary values
    EDGES = [-1, 0, 1, 2, 2**53, 10**17, 10**300, 10**308, 10**309, 10**400]
    FLAGS = ["--n", "--epochs", "--batch", "--k", "--dim"]

    def test_every_argv_ends_in_a_documented_exit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        value = st.sampled_from(self.EDGES) | st.integers(1, 100_000)

        # in process: hypothesis refuses function-scoped fixtures such as capsys
        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.fixed_dictionaries({flag: value for flag in self.FLAGS}),
                          st.sampled_from(["bernstein", "clt"]))
        def check(counts, bound):
            argv = ["calibrate", "--eps", "10", "--delta", "1e-5", "--bound", bound,
                    *(part for flag, count in counts.items() for part in (flag, str(count)))]
            code, out, err = run_in_process(argv)
            assert code in (0, 2, 3, 4, 5), (argv, err)
            assert "Traceback" not in err
            if code != 0:
                assert out == ""
                return
            payload = json.loads(out)
            validate(payload, "calibrate.schema.json")
            assert finite_numbers(payload)

        check()


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

    @pytest.mark.parametrize("batch, message", [
        ("50", "batch_size must lie in [1, 40]"),
        ("20", "batch_size must equal the source particle count"),
    ], ids=["above-target-rows", "not-source-count"])
    def test_batch_that_does_not_fit_the_inputs_is_data_error(self, tmp_path, batch, message):
        # the check needs both row counts, so it is made after the read
        rng = np.random.default_rng(2)
        np.savetxt(tmp_path / "s30.csv", rng.standard_normal((30, 2)), delimiter=",")
        np.savetxt(tmp_path / "t40.csv", rng.standard_normal((40, 2)), delimiter=",")
        r = run_cli("flow", "--source", str(tmp_path / "s30.csv"),
                    "--target", str(tmp_path / "t40.csv"), "--batch", batch,
                    "--iters", "2", "--lr", "0.1", "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"

    def test_unequal_counts_without_batch_is_data_error(self, data_dir, tmp_path):
        (tmp_path / "three.csv").write_text("0,0\n1,1\n2,2\n")
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(tmp_path / "three.csv"),
                    "--iters", "2", "--lr", "0.1", "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert "equal sample counts required" in r.stderr

    # at 3e-154 and 1e-153 the rate is finite, but not alpha times it at order 256
    @pytest.mark.parametrize("sigma", ["1e160", "1e-200", "3e-154", "1e-153"])
    def test_sigma_without_finite_rdp_rate_is_usage_error(self, data_dir, tmp_path, sigma):
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "2", "--lr", "0.1", "--k", "4", "--sigma", sigma,
                    "--normalize", "clip:4", "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stdout == ""
        # one line: no traceback and no numpy warning before the message
        assert r.stderr.startswith(f"error: sigma={float(sigma):g} is out of range")
        assert r.stderr.count("\n") == 1

    def test_batch_sigma_whose_amplified_bound_overflows_runs_silently(self, data_dir, tmp_path):
        # at sigma = 1e-152 the base curve is finite, but not the subsampled
        # terms; those orders are charged the unamplified bound
        np.savetxt(tmp_path / "t40.csv", np.random.default_rng(1).standard_normal((40, 2)),
                   delimiter=",")
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(tmp_path / "t40.csv"), "--batch", "20",
                    "--iters", "2", "--lr", "0.1", "--k", "4", "--sigma", "1e-152",
                    "--normalize", "clip:4", "--out", str(tmp_path / "o"))
        assert r.returncode == 0
        assert r.stderr == ""
        assert 1e300 < json.loads(r.stdout)["eps"] < math.inf

    def test_tail_bound_without_delta_share_is_usage_error(self, data_dir, tmp_path):
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "5", "--lr", "0.1", "--sigma", "1.0", "--normalize", "max",
                    "--delta-split", "0", "--out", str(tmp_path / "x"))
        assert r.returncode == 2
        assert "delta_split must be > 0" in r.stderr

    @pytest.mark.parametrize("flag, value, message", [
        ("--delta", "5", "delta must lie in (0, 1), got 5.0"),
        ("--delta", "nan", "delta must lie in (0, 1), got nan"),
        ("--delta-split", "1", "delta_split must lie in [0, 1), got 1.0"),
    ])
    def test_bad_delta_at_sigma_zero_is_usage_error(self, data_dir, tmp_path, flag, value, message):
        out = tmp_path / "x"
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "5", "--lr", "0.1", flag, value, "--out", str(out))
        assert r.returncode == 2
        assert r.stdout == ""
        assert message in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--delta", "5"), ("--delta-split", "-0.5"),
                                             ("--k", "0"), ("--batch", "0"), ("--sigma", "-1")])
    def test_bad_delta_is_refused_before_reading_inputs(self, data_dir, tmp_path, flag, value):
        # the source does not exist: a read would exit 3 before the check
        message = {"--delta": "must lie in", "--delta-split": "must lie in",
                   "--k": "k must be >= 1", "--batch": "batch_size must be >= 1",
                   "--sigma": "sigma must be finite and >= 0"}[flag]
        r = run_cli("flow", "--source", str(tmp_path / "missing.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "5", "--lr", "0.1", "--sigma", "1.0", "--normalize", "clip:1",
                    flag, value, "--out", str(tmp_path / "x"))
        assert r.returncode == 2
        assert message in r.stderr

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_log_every_below_one_is_usage_error(self, data_dir, tmp_path, value):
        out = tmp_path / "x"
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "5", "--lr", "0.1", "--log-every", value, "--out", str(out))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "log_every must be >= 1" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, data_dir, tmp_path, value):
        out = tmp_path / "x"
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"),
                    "--iters", "1", "--lr", value, "--out", str(out))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "learning_rate must be finite and > 0" in r.stderr
        assert not out.exists()

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

    @pytest.mark.parametrize("iters", ["1", "2"])
    def test_update_overflow_exits_as_diverged_with_trace(self, tmp_path, iters):
        # the loss stays finite, but lr * grad overflows float64 at step 0
        rng = np.random.default_rng(0)
        np.savetxt(tmp_path / "src.csv", rng.standard_normal((20, 3)) * 10 + 500, delimiter=",")
        np.savetxt(tmp_path / "tgt.csv", rng.standard_normal((20, 3)), delimiter=",")
        out = tmp_path / "out"
        r = run_cli("flow", "--source", str(tmp_path / "src.csv"),
                    "--target", str(tmp_path / "tgt.csv"),
                    "--iters", iters, "--lr", "1.7e308", "--k", "8", "--out", str(out))
        assert r.returncode == 5
        assert r.stdout == ""
        assert "overflowed float64 at step 0" in r.stderr
        assert "warning:" not in r.stderr and "Traceback" not in r.stderr
        assert (out / "trace.csv").read_text().splitlines()[0] == "iteration,loss,grad_norm"
        assert not (out / "particles.csv").exists()

    def test_iterations_beyond_float64_is_usage_error(self, data_dir, tmp_path):
        out = tmp_path / "x"
        r = run_cli("flow", "--source", str(data_dir / "src2d.csv"),
                    "--target", str(data_dir / "tgt2d.csv"), "--iters", str(10**320),
                    "--lr", "0.1", "--sigma", "1", "--normalize", "clip:4", "--out", str(out))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "iterations must be at most" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

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


class TestOutputDirectory:
    """--out is created right after the arguments are checked, before any work."""

    @pytest.mark.parametrize("argv_fn, work", [
        (lambda d: ["flow", "--source", str(d / "src2d.csv"), "--target", str(d / "tgt2d.csv"),
                    "--iters", "2000", "--lr", "0.1", "--k", "4"], "run_flow"),
        (lambda d: ["sensitivity", "--d", "784", "--k", "200", "--trials", "100000"],
         "simulate_sensitivity"),
        (lambda d: ["toy", "--d", "3", "--n", "30", "--k", "8"], "_toy_sweep"),
    ], ids=["flow", "sensitivity", "toy"])
    def test_out_naming_a_file_fails_before_the_work(self, data_dir, tmp_path, monkeypatch,
                                                     capsys, argv_fn, work):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")

        def never_entered(*args, **kwargs):
            raise AssertionError(f"{work} ran although --out is unusable")

        monkeypatch.setattr(cli, work, never_entered)
        assert cli.main([*argv_fn(data_dir), "--out", str(taken)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 17] File exists: {str(taken)!r}\n"

    @SUBCOMMAND_RUNS
    def test_out_holds_the_files_the_readme_lists(self, data_dir, tmp_path, monkeypatch,
                                                  capsys, argv_fn):
        # run from inside tmp_path, so a file written to the working directory shows too
        listed = {"sensitivity": {"s/sensitivity_samples.csv"},
                  "flow": {"f/trace.csv", "f/particles.csv"}}
        argv = argv_fn(data_dir, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 0, capsys.readouterr().err
        written = {f.relative_to(tmp_path).as_posix() for f in tmp_path.rglob("*") if f.is_file()}
        assert written == listed.get(argv[0], set())

    @pytest.mark.parametrize("argv", [
        ["sensitivity", "--d", "20", "--k", "5", "--trials", "0"],
        ["sensitivity", "--d", "0", "--k", "5"],
        ["toy", "--k", "0"],
        ["toy", "--sigma", "-1"],
        ["toy", "--repeats", "0"],
    ])
    def test_usage_error_creates_nothing(self, tmp_path, argv):
        out = tmp_path / "out"
        r = run_cli(*argv, "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert not out.exists()

    def test_flow_without_delta_share_reads_nothing(self, data_dir, tmp_path, monkeypatch, capsys):
        def never_read(*args, **kwargs):
            raise AssertionError("load_csv_pair ran although the arguments are unusable")

        monkeypatch.setattr(cli, "load_csv_pair", never_read)
        out = tmp_path / "out"
        argv = ["flow", "--source", str(data_dir / "src2d.csv"), "--target", str(data_dir / "tgt2d.csv"),
                "--iters", "5", "--lr", "0.1", "--sigma", "1", "--normalize", "clip:8",
                "--delta-split", "0", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: a bernstein bound needs a share of delta: delta_split must be > 0\n")
        assert not out.exists()

    def test_compute_private_without_normalize_reads_nothing(self, data_dir, monkeypatch, capsys):
        def never_read(*args, **kwargs):
            raise AssertionError("load_csv_pair ran although the arguments are unusable")

        monkeypatch.setattr(cli, "load_csv_pair", never_read)
        argv = ["compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"),
                "--k", "8", "--sigma", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --sigma > 0 requires --normalize: the private mechanism assumes "
            "privacy-normalized inputs (row norms <= 1/2)\n")


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 2.91 TiB for an array with shape (100000000000, 4)"),
     "Unable to allocate 2.91 TiB for an array with shape (100000000000, 4)"),
    (MemoryError(), "MemoryError"),
], ids=["numpy-message", "bare"])
def test_memory_error_is_data_error_without_traceback(data_dir, monkeypatch, capsys, error, message):
    # the allocation is never attempted: the direction draw raises in its place
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(sliced_distance, "sample_sphere", out_of_memory)
    argv = ["compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"), "--k", "8"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err


# a clt calibration below the bound's k > 30 rule of thumb, which warns
SMALL_K_CLT_CALIBRATE = ["calibrate", "--eps", "5", "--delta", "1e-5", "--dim", "100", "--k", "10",
                         "--n", "2000", "--epochs", "2", "--batch", "200", "--bound", "clt"]
SMALL_K_WARNING = "warning: clt_bound with k=10 < 30: the normal approximation is unreliable\n"


@pytest.mark.parametrize("argv_fn", [
    lambda o: ["sensitivity", "--d", "50", "--k", "10", "--trials", "100", "--out", str(o)],
    lambda o: SMALL_K_CLT_CALIBRATE,
], ids=["sensitivity", "calibrate"])
def test_warning_is_one_line(tmp_path, argv_fn):
    r = run_cli(*argv_fn(tmp_path / "s"))
    assert r.returncode == 0
    assert r.stderr == SMALL_K_WARNING


def test_warning_is_recorded_under_an_error_filter():
    # python -W error turns a warning into an exception unless main overrides the filter
    strict = subprocess.run([sys.executable, "-W", "error", "-m", "dpswd.cli", *SMALL_K_CLT_CALIBRATE],
                            capture_output=True, text=True)
    plain = run_cli(*SMALL_K_CLT_CALIBRATE)
    assert strict.returncode == plain.returncode == 0
    assert strip_duration(strict.stdout) == strip_duration(plain.stdout)
    assert strict.stderr == plain.stderr == SMALL_K_WARNING


def test_warning_is_recorded_in_process_under_the_suite_error_filter(capsys):
    # this suite runs with filterwarnings = error, which main must not raise under
    assert cli.main(SMALL_K_CLT_CALIBRATE) == 0
    captured = capsys.readouterr()
    assert captured.err == SMALL_K_WARNING
    validate(json.loads(captured.out), "calibrate.schema.json")


class TestDeterminism:
    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert dpswd.__version__ in r.stdout

    def test_version_matches_pyproject(self):
        # both are bumped by hand at every release; no tomllib before Python 3.11
        text = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^version = "([^"]*)"$', text, re.M)[1] == dpswd.__version__

    def test_package_all_is_unique_and_resolves(self):
        # a stale name would break only `from dpswd import *`
        assert len(set(dpswd.__all__)) == len(dpswd.__all__)
        assert [name for name in dpswd.__all__ if not hasattr(dpswd, name)] == []

    @SUBCOMMAND_RUNS
    def test_identical_output_across_runs_and_threads(self, data_dir, tmp_path, argv_fn):
        # identical arguments (including --out); the sensitivity simulation
        # runs on as many threads as it finds CPUs; file contents are
        # snapshotted after each run before the next overwrites
        outs = []
        files = {}
        o = tmp_path / "out"
        o.mkdir()
        for _ in range(3):
            r = run_cli(*argv_fn(data_dir, o))
            assert r.returncode == 0, r.stderr
            outs.append(strip_duration(r.stdout))
            for f in sorted(o.rglob("*")):
                if f.is_file() and f.suffix == ".csv":
                    files.setdefault(f.relative_to(o), []).append(f.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        for variants in files.values():
            assert len(variants) == 3
            assert variants[0] == variants[1] == variants[2]

    def test_one_parser_serves_every_call_in_a_process(self, data_dir, capsys):
        # the parser is built once; no option of one call may reach the next
        runs = [
            ["calibrate", "--eps", "5", "--delta", "1e-5", "--dim", "100", "--k", "64",
             "--n", "2000", "--epochs", "2", "--batch", "200", "--seed", "11"],
            ["compute", "--a", str(data_dir / "a.csv"), "--b", str(data_dir / "b.csv"),
             "--k", "16", "--seed", "3"],
            ["calibrate", "--eps", "2", "--delta", "1e-6", "--dim", "50", "--k", "40",
             "--n", "1000", "--epochs", "3", "--batch", "100", "--bound", "clt",
             "--amplification", "none", "--delta-split", "0.3"],
        ]
        assert build_parser() is build_parser()
        for argv in runs:
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            fresh = run_cli(*argv)
            assert fresh.returncode == 0, fresh.stderr
            assert strip_duration(out) == strip_duration(fresh.stdout)
            options = {action.dest for action in subcommand_parser(build_parser(), argv[0])._actions}
            assert set(json.loads(out)["manifest"]["params"]) == options - {"help", "seed"}

    @SUBCOMMAND_RUNS
    def test_manifest_echoes_parsed_arguments(self, data_dir, tmp_path, argv_fn):
        argv = argv_fn(data_dir, tmp_path)
        r = run_cli(*argv)
        assert r.returncode == 0, r.stderr
        manifest = json.loads(r.stdout)["manifest"]
        parsed = vars(build_parser().parse_args(argv))
        assert manifest["subcommand"] == parsed.pop("subcommand")
        assert manifest["seed"] == parsed.pop("seed")
        parsed.pop("func")
        assert manifest["params"] == parsed

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


def test_library_knobs_are_all_set_from_options(data_dir, tmp_path, monkeypatch):
    """cmd_flow sets every FlowConfig field and cmd_calibrate every calibrate_sigma parameter."""
    passed = {}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            passed[name] = set(inspect.signature(fn).bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "FlowConfig", recording("flow", cli.FlowConfig))
    monkeypatch.setattr(cli, "calibrate_sigma", recording("calibrate", cli.calibrate_sigma))
    assert cli.main(["flow", "--source", str(data_dir / "src2d.csv"),
                     "--target", str(data_dir / "tgt2d.csv"), "--iters", "2", "--lr", "0.1",
                     "--k", "4", "--out", str(tmp_path / "f")]) == 0
    assert cli.main(["calibrate", "--eps", "5", "--delta", "1e-5", "--dim", "100", "--k", "64",
                     "--n", "2000", "--epochs", "2", "--batch", "200"]) == 0
    assert passed["flow"] == {f.name for f in dataclasses.fields(dpswd.FlowConfig)}
    assert passed["calibrate"] == set(inspect.signature(dpswd.calibrate_sigma).parameters)


def readme_cli_examples() -> list[list[str]]:
    """Each `dpswd ...` command of the README's CLI block, as argv."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dpswd ")]


def test_readme_cli_examples_parse():
    examples = readme_cli_examples()
    assert {argv[0] for argv in examples} == {"compute", "sensitivity", "toy", "calibrate", "flow"}
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)


def parser_options(parser) -> set[str]:
    """Every option string of a parser and of its subcommands' parsers."""
    names = set()
    for action in parser._actions:
        names.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                names |= parser_options(subparser)
    return names


def test_readme_flags_are_parser_options():
    text = README.read_text(encoding="utf-8")
    before, rest = text.split("\n## Install and test\n", 1)
    after = rest.split("\n## ", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", before + after))
    assert "--seed" in named
    assert named <= parser_options(build_parser())


def subcommand_parser(parser, name: str) -> argparse.ArgumentParser:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def test_calibrate_schema_enums_are_parser_choices():
    schema = json.loads((SCHEMA_DIR / "calibrate.schema.json").read_text())["properties"]
    choices = {action.dest: action.choices
               for action in subcommand_parser(build_parser(), "calibrate")._actions}
    assert list(choices["amplification"]) == schema["amplification"]["enum"]
    assert list(choices["bound"]) == schema["bound_kind"]["enum"]


class TestTwoCoreInputs:
    """compute and flow load their second input in a forked child (Linux)."""

    @pytest.fixture
    def forks(self, monkeypatch):
        # children for inputs of any size; the list collects their pids
        if not measures._FORK_SHARES:
            pytest.skip("child shares run on Linux only")
        monkeypatch.setattr(measures, "_FORK_MIN_BYTES", 0)
        pids = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def argv(subcommand, first, second, out):
        if subcommand == "compute":
            return ["compute", "--a", str(first), "--b", str(second), "--k", "8"]
        return ["flow", "--source", str(first), "--target", str(second), "--iters", "3",
                "--lr", "0.5", "--k", "8", "--out", str(out)]

    @pytest.mark.parametrize("subcommand", ["compute", "flow"])
    def test_success_leaves_no_child(self, data_dir, tmp_path, capsys, forks, subcommand):
        argv = self.argv(subcommand, data_dir / "src2d.csv", data_dir / "tgt2d.csv", tmp_path / "o")
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert len(forks) == (2 if subcommand == "flow" else 1)  # flow also saves particles.csv
        self.assert_no_child()

    @pytest.mark.parametrize("subcommand", ["compute", "flow"])
    @pytest.mark.parametrize("second", ["ragged.csv", "missing.csv"])
    def test_bad_second_input_reads_as_load_csv_alone(self, data_dir, tmp_path, capsys, forks,
                                                       subcommand, second):
        with pytest.raises((measures.DataError, OSError)) as alone:
            measures.load_csv(data_dir / second)
        argv = self.argv(subcommand, data_dir / "src2d.csv", data_dir / second, tmp_path / "o")
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {alone.value}\n"
        assert len(forks) == 1
        self.assert_no_child()

    @pytest.mark.parametrize("first, second, message", [
        ("ragged.csv", "missing.csv", "ragged row at line 2"),
        ("zeros.csv", "ragged.csv", "all rows are zero; max-norm scale undefined"),
    ])
    def test_first_input_error_wins(self, data_dir, tmp_path, capsys, forks, first, second, message):
        (tmp_path / "zeros.csv").write_text("0,0\n0,0\n")
        paths = {name: (tmp_path if name == "zeros.csv" else data_dir) / name for name in (first, second)}
        argv = self.argv("compute", paths[first], paths[second], None) + ["--normalize", "max"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        self.assert_no_child()

    def test_diverging_flow_leaves_no_child(self, data_dir, tmp_path, capsys, forks):
        argv = ["flow", "--source", str(data_dir / "src2d.csv"), "--target", str(data_dir / "tgt2d.csv"),
                "--iters", "200", "--lr", "500", "--k", "8", "--seed", "4", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 5
        assert "reduce the learning rate" in capsys.readouterr().err
        assert len(forks) == 1
        self.assert_no_child()
