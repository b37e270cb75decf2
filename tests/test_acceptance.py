"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Each test collects named sub-checks and fails with a full report if any
sub-check fails. One sub-check, the CLT coverage of criterion 2 (checked at
two tail levels), is known to be unattainable as stated and fails by design
rather than being loosened; see the failure messages and README for the
quantitative analysis.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy import stats
from scipy.optimize import linprog

import dpswd
from dpswd import accountant as acc
from dpswd import sensitivity as sens
from dpswd.flow import FlowConfig, run_flow
from dpswd.measures import EmpiricalMeasure, from_points, normalize_for_privacy
from dpswd.randomness import PURPOSE_DATA, derive_seed, sample_sphere, substream
from dpswd.sensitivity import bernstein_bound, clt_bound, fixed_sensitivity
from dpswd.sliced_distance import SwdConfig, smoothed_swd, swd, value_and_gradient
from dpswd.wasserstein1d import wasserstein_1d, wasserstein_1d_q

SEED = 31337


class Criterion:
    """Collects sub-checks and prints one summary line for the criterion."""

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title
        self.checks: list[tuple[str, bool]] = []

    def check(self, label: str, ok: bool):
        self.checks.append((label, bool(ok)))

    def close(self):
        failed = [label for label, ok in self.checks if not ok]
        status = "PASS" if not failed else "FAIL"
        print(f"[criterion {self.number}] {status}: {self.title} "
              f"({len(self.checks) - len(failed)}/{len(self.checks)} checks)")
        for label, ok in self.checks:
            print(f"    {'ok  ' if ok else 'FAIL'} {label}")
        assert not failed, f"criterion {self.number} failed: {failed}"


def test_criterion_01_beta_law():
    c = Criterion(1, "squared projections follow Beta(1/2,(d-1)/2)")
    started = time.perf_counter()
    n = 100_000
    critical = 1.6276 / math.sqrt(n)  # asymptotic 1% KS critical value
    for d in (2, 5, 784):
        y = np.concatenate(
            [sample_sphere(d, 20_000, seed=SEED + i)[0, :] ** 2 for i in range(5)]
        )
        ks = stats.kstest(y, stats.beta(0.5, (d - 1) / 2).cdf).statistic
        c.check(f"d={d}: KS {ks:.5f} < {critical:.5f}", ks < critical)
        if d == 784:
            c.check(
                f"d=784 empirical mean {y.mean():.6f} within 1e-3 of {1 / d:.6f}",
                abs(y.mean() - 1 / d) <= 1e-3,
            )
    elapsed = time.perf_counter() - started
    c.check(f"runtime {elapsed:.1f}s < 10s", elapsed < 10.0)
    c.close()


def test_criterion_02_sensitivity_bounds():
    c = Criterion(2, "sensitivity bounds and simulated tail ordering")
    started = time.perf_counter()
    k, d = 200, 784

    log10 = math.log(1e5)
    bern_oracle = k / d + (2 / 3) * log10 + (2 / d) * math.sqrt(k * (d - 1) / (d + 2) * log10)
    clt_oracle = k / d + (dpswd.inverse_normal_cdf(1 - 1e-5) / d) * math.sqrt(2 * k * (d - 1) / (d + 2))
    bern = bernstein_bound(k, d, 1e-5).w
    clt = clt_bound(k, d, 1e-5).w
    c.check(f"bernstein {bern:.4f} ~ 8.0526", abs(bern - 8.0526) <= 1e-3)
    c.check(f"bernstein matches formula oracle {bern_oracle:.6f}", abs(bern - bern_oracle) <= 1e-12)
    c.check(f"clt {clt:.4f} ~ 0.3637", abs(clt - 0.3637) <= 1e-3)
    c.check(f"clt matches formula oracle {clt_oracle:.6f}", abs(clt - clt_oracle) <= 1e-12)
    c.check(f"bernstein {bern:.3f} > 1", bern > 1.0)

    h = sens.simulate_sensitivity(d, k, 10_000, seed=SEED)
    c.check(
        f"mean H {h.mean():.4f} within 0.005 of {k / d:.4f}",
        abs(h.mean() - k / d) <= 0.005,
    )
    for delta in (0.1, 0.01):
        q = float(np.quantile(h, 1 - delta))
        cb = clt_bound(k, d, delta).w
        bb = bernstein_bound(k, d, delta).w
        c.check(f"delta={delta}: clt {cb:.4f} <= bernstein {bb:.4f}", cb <= bb)
        # Known-unattainable as stated: the CLT bound equals the normal
        # quantile, but the sum of k=200 Beta variables is right-skewed, so
        # its true (1-delta)-quantile exceeds the normal approximation by
        # ~0.2% (delta=0.1) to ~1.2% (delta=0.01). Kept faithful, not
        # loosened; the Bernstein side of the ordering holds.
        c.check(f"delta={delta}: empirical q {q:.4f} <= clt {cb:.4f}", q <= cb)
    elapsed = time.perf_counter() - started
    c.check(f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0)
    c.close()


def _lp_cost(xa, wa, xb, wb, q):
    n, m = len(xa), len(xb)
    cost = (np.abs(np.subtract.outer(xa, xb)) ** q).ravel()
    a_eq, b_eq = [], []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(wa[i])
    for j in range(m - 1):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(wb[j])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def test_criterion_03_wasserstein_exactness():
    c = Criterion(3, "1-D Wasserstein agrees with LP oracle; metric axioms")
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        q = float(rng.choice([1.0, 2.0]))
        xa, xb = rng.standard_normal(n) * 2, rng.standard_normal(m) * 2
        wa = rng.uniform(0.2, 1.0, n)
        wb = rng.uniform(0.2, 1.0, m)
        wa, wb = wa / wa.sum(), wb / wb.sum()
        mine = wasserstein_1d_q(EmpiricalMeasure(xa[:, None], wa), EmpiricalMeasure(xb[:, None], wb), q)
        worst = max(worst, abs(mine - _lp_cost(xa, wa, xb, wb, q)))
    c.check(f"200 instances, max |diff| to LP = {worst:.2e} <= 1e-10", worst <= 1e-10)

    sym_exact, ident_ok, tri_ok = True, True, True
    for _ in range(100):
        q = float(rng.choice([1.0, 2.0, 3.0]))
        xs = [rng.standard_normal(int(rng.integers(2, 6))) for _ in range(3)]
        sym_exact &= wasserstein_1d_q(xs[0], xs[1], q) == wasserstein_1d_q(xs[1], xs[0], q)
        ident_ok &= wasserstein_1d_q(xs[0], xs[0], q) == 0.0
        dab = wasserstein_1d(xs[0], xs[1], q)
        dbc = wasserstein_1d(xs[1], xs[2], q)
        dac = wasserstein_1d(xs[0], xs[2], q)
        tri_ok &= dac <= dab + dbc + 1e-12
    c.check("symmetry exact on 100 triples", sym_exact)
    c.check("identity of indiscernibles on 100 triples", ident_ok)
    c.check("triangle inequality with 1e-12 slack on 100 triples", tri_ok)
    c.close()


def test_criterion_04_swd_estimator():
    c = Criterion(4, "Monte-Carlo estimator mean and variance scaling")
    v5 = sens.beta_moments(5).variance
    k = 100_000
    x = from_points([np.zeros(5)])
    y = from_points([np.r_[1.0, np.zeros(4)]])
    val = swd(x, y, SwdConfig(k=k, q=2, seed=SEED)).value
    tol = 3 * math.sqrt(v5 / k)
    c.check(f"single-Dirac value {val:.5f} within {tol:.5f} of 0.2", abs(val - 0.2) <= tol)

    v1 = np.array([swd(x, y, SwdConfig(k=64, q=2, seed=s)).value for s in range(100)])
    v2 = np.array([swd(x, y, SwdConfig(k=128, q=2, seed=s)).value for s in range(100)])
    ratio = v1.var(ddof=1) / v2.var(ddof=1)
    c.check(f"doubling k halves variance: ratio {ratio:.2f} in [1.6, 2.4]", 1.6 <= ratio <= 2.4)
    c.close()


def _toy_curves(d, n, k, sigma, grid, repeats, seed):
    plain = np.empty((repeats, len(grid)))
    noised = np.empty((repeats, len(grid)))
    for r in range(repeats):
        data_rng = substream(seed, PURPOSE_DATA, r)
        base_source = data_rng.standard_normal((n, d))
        base_target = data_rng.standard_normal((n, d))
        rep_seed = derive_seed(seed, r)
        source = EmpiricalMeasure(base_source)
        for ci, cval in enumerate(grid):
            target = EmpiricalMeasure(base_target + cval)
            plain[r, ci] = swd(source, target, SwdConfig(k=k, q=2, seed=rep_seed)).value
            noised[r, ci] = smoothed_swd(
                source, target, SwdConfig(k=k, q=2, seed=rep_seed, sigma=sigma)
            ).value
    return plain.mean(axis=0), noised.mean(axis=0)


def test_criterion_05_toy_experiment():
    c = Criterion(5, "noised distance preserves the separation ordering")
    started = time.perf_counter()
    grid = [round(0.1 * i, 10) for i in range(11)]
    for sigma in (1.0, 3.0):
        plain, noised = _toy_curves(5, 500, 100, sigma, grid, 5, SEED)
        rho = stats.spearmanr(grid, noised).statistic
        c.check(
            f"sigma={sigma}: noised curve strictly increasing (spearman {rho:.3f})",
            bool(np.all(np.diff(noised) > 0)) and rho == 1.0,
        )
        c.check(
            f"sigma={sigma}: noised floor {noised[0]:.4f} > plain bias {plain[0]:.4f} at c=0",
            noised[0] > plain[0],
        )
    _, floor50 = _toy_curves(5, 50, 100, 1.0, [0.0], 5, SEED)
    _, floor500 = _toy_curves(5, 500, 100, 1.0, [0.0], 5, SEED)
    c.check(
        f"noise floor shrinks with n: {floor50[0]:.4f} (n=50) > {floor500[0]:.4f} (n=500)",
        floor50[0] > floor500[0],
    )
    elapsed = time.perf_counter() - started
    c.check(f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0)
    c.close()


def test_criterion_06_accountant_oracle():
    c = Criterion(6, "noise calibration matches the closed-form oracle")
    eps, delta = 10.0, 1e-5
    big_l = math.log(1 / delta)
    sigma_oracle = (math.sqrt(2 * big_l) + math.sqrt(2 * big_l + 2 * eps)) / (2 * eps)
    c.check(f"oracle sigma {sigma_oracle:.5f} ~ 0.5679", abs(sigma_oracle - 0.5679) <= 1e-4)
    budget = acc.PrivacyBudget(
        eps_target=eps, delta_target=delta, steps=1, sampling_rate=1.0, delta_split=0.0
    )
    result = acc.calibrate_sigma(budget, fixed_sensitivity(1.0))
    c.check(
        f"calibrated sigma {result.sigma:.5f} within 1e-3 of oracle {sigma_oracle:.5f}",
        abs(result.sigma - sigma_oracle) <= 1e-3,
    )
    eps_back, _ = acc.account(result.sigma, budget, fixed_sensitivity(1.0))
    c.check(
        f"round trip: account(calibrate) = {eps_back:.5f} within 1e-3 of {eps}",
        abs(eps_back - eps) <= 1e-3,
    )
    spec = acc.MechanismSpec(sigma=0.7, sensitivity_sq=2.0)
    same = np.array_equal(
        acc.subsampled_rdp(spec, 1.0).eps_at_order, acc.gaussian_rdp(spec).eps_at_order
    )
    c.check("gamma=1 subsampled curve equals base curve exactly", same)
    c.close()


def test_criterion_07_table_reproduction():
    c = Criterion(7, "calibration against published reference configurations")
    rows = [
        ("MNIST/bernstein", 784, 1000, 60000, 100, 100, 1e-5, "bernstein", 2.94),
        ("MNIST/clt", 784, 1000, 60000, 100, 100, 1e-5, "clt", 0.84),
        ("CelebA/bernstein", 8192, 2000, 162000, 100, 256, 1e-6, "bernstein", 2.392),
        ("CelebA/clt", 8192, 2000, 162000, 100, 256, 1e-6, "clt", 0.37),
    ]
    for name, d, k, n, epochs, batch, delta, kind, sigma_ref in rows:
        budget = acc.PrivacyBudget(
            eps_target=10.0,
            delta_target=delta,
            steps=epochs * (n // batch),
            sampling_rate=batch / n,
            delta_split=0.5,
        )
        bound = budget.tail_bound(kind, k, d)
        result = acc.calibrate_sigma(budget, bound)
        dev = result.sigma / sigma_ref - 1
        # With fresh directions at each of the T steps, the bound is built
        # at the per-draw share delta/(2T) (union bound over the T draws).
        # Settings: without-replacement amplification, delta_split=0.5, the
        # quarter-step order grid. CelebA/bernstein lands about +22%,
        # closest to the gate.
        c.check(
            f"{name}: sigma {result.sigma:.4f} vs reference {sigma_ref} "
            f"({dev:+.1%}, amplification=subsample)",
            abs(dev) <= 0.25,
        )
    c.close()


def test_criterion_08_gradient_correctness():
    c = Criterion(8, "analytic gradient matches central finite differences")
    rng = np.random.default_rng(SEED)
    h = 1e-5
    worst = 0.0
    trials = 0
    while trials < 50:
        a_pts = rng.standard_normal((8, 3))
        b_pts = rng.standard_normal((8, 3))
        cfg = SwdConfig(k=16, q=2, seed=int(rng.integers(2**31)))
        u = sample_sphere(3, cfg.k, cfg.seed)
        min_gap = min(
            float(np.diff(np.sort(p @ u, axis=0), axis=0).min()) for p in (a_pts, b_pts)
        )
        if min_gap <= 1e-3:  # keep FD probes away from sorting ties
            continue
        trials += 1
        b = from_points(b_pts)
        analytic = value_and_gradient(from_points(a_pts), b, cfg)[1]
        numeric = np.zeros_like(a_pts)
        for i in range(8):
            for j in range(3):
                up, dn = a_pts.copy(), a_pts.copy()
                up[i, j] += h
                dn[i, j] -= h
                numeric[i, j] = (
                    smoothed_swd(from_points(up), b, cfg).value
                    - smoothed_swd(from_points(dn), b, cfg).value
                ) / (2 * h)
        rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        worst = max(worst, rel)
    c.check(f"50 instances, max relative error {worst:.2e} <= 1e-5", worst <= 1e-5)
    c.close()


def test_criterion_09_flow_convergence():
    c = Criterion(9, "particle flow converges; noise floor shrinks with n")
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    src = from_points(rng.standard_normal((100, 2)) + 5.0)
    tgt = from_points(rng.standard_normal((100, 2)))
    cfg = FlowConfig(iterations=500, learning_rate=1.0, k=50, sigma=0.0, seed=SEED, log_every=50)
    trace = run_flow(src, tgt, cfg)
    eval_cfg = SwdConfig(k=500, q=2, seed=SEED + 1)
    initial = swd(src, tgt, eval_cfg).value
    final = swd(from_points(trace.final_points), tgt, eval_cfg).value
    c.check(
        f"sigma=0: final {final:.4f} <= 0.1 * initial {initial:.4f}",
        final <= 0.1 * initial,
    )

    def floor(n, seed):
        r = np.random.default_rng(seed)
        s = normalize_for_privacy(from_points(r.standard_normal((n, 2)) + 5.0))
        t = normalize_for_privacy(from_points(r.standard_normal((n, 2))))
        fcfg = FlowConfig(
            iterations=300, learning_rate=1.0, k=50, sigma=1.0, seed=seed, log_every=10
        )
        return float(np.mean(run_flow(s, t, fcfg).losses[-10:]))

    f100 = float(np.mean([floor(100, SEED + s) for s in range(5)]))
    f400 = float(np.mean([floor(400, SEED + s) for s in range(5)]))
    c.check(f"sigma=1: floor positive ({f100:.4f}, {f400:.4f})", f100 > 0 and f400 > 0)
    c.check(f"floor shrinks with n: {f100:.4f} (n=100) > {f400:.4f} (n=400)", f100 > f400)
    elapsed = time.perf_counter() - started
    c.check(f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0)
    c.close()


def test_criterion_10_cli_determinism(tmp_path):
    c = Criterion(10, "CLI output bit-identical across runs")
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(SEED)
    np.savetxt(data / "a.csv", rng.standard_normal((25, 3)), delimiter=",")
    np.savetxt(data / "b.csv", rng.standard_normal((25, 3)) + 1.0, delimiter=",")
    np.savetxt(data / "s.csv", rng.standard_normal((15, 2)) + 3.0, delimiter=",")
    np.savetxt(data / "t.csv", rng.standard_normal((15, 2)), delimiter=",")
    out = tmp_path / "out"
    out.mkdir()
    commands = {
        "compute": ["compute", "--a", str(data / "a.csv"), "--b", str(data / "b.csv"),
                    "--k", "600", "--sigma", "0.5", "--normalize", "max", "--seed", "17"],
        "sensitivity": ["sensitivity", "--d", "50", "--k", "32", "--trials", "400",
                        "--seed", "17", "--out", str(out / "sens")],
        "toy": ["toy", "--d", "3", "--n", "40", "--k", "16", "--sigma", "1",
                "--grid", "0:0.4:0.2", "--repeats", "2", "--seed", "17",
                "--out", str(out / "toy")],
        "calibrate": ["calibrate", "--eps", "5", "--delta", "1e-5", "--dim", "100",
                      "--k", "64", "--n", "4000", "--epochs", "2", "--batch", "400",
                      "--seed", "17"],
        "flow": ["flow", "--source", str(data / "s.csv"), "--target", str(data / "t.csv"),
                 "--iters", "15", "--lr", "0.5", "--k", "16", "--seed", "17",
                 "--out", str(out / "flow")],
    }
    for name, argv in commands.items():
        stdouts, csvs = [], []
        for _ in range(3):
            r = subprocess.run(
                [sys.executable, "-m", "dpswd.cli", *argv],
                capture_output=True, text=True,
            )
            assert r.returncode == 0, (name, r.stderr)
            payload = json.loads(r.stdout)
            payload["manifest"].pop("duration_s")
            stdouts.append(json.dumps(payload, sort_keys=True))
            snapshot = {}
            for f in sorted(out.rglob("*.csv")):
                snapshot[str(f)] = f.read_bytes()
            csvs.append(snapshot)
        c.check(
            f"{name}: stdout and files identical across 3 runs",
            stdouts[0] == stdouts[1] == stdouts[2] and csvs[0] == csvs[1] == csvs[2],
        )
    c.close()
