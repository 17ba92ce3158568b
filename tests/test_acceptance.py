"""Acceptance gate: one test per release criterion, in order.

Each test prints a single `[criterion NN] PASS/FAIL` line with the
measured numbers before asserting, so a verbose run reads as a checklist.
Monte Carlo criteria run at fixed seeds; the statistical bands they must
hit are the documented 3-standard-error / critical-value bounds, not
seed-tuned tolerances.
"""

import math

import numpy as np
import pytest
from scipy import stats

from _oracles import dense_transient, uniformization
from sisq.chain import ModelParams
from sisq.cli import main
from sisq.clt import endemic_normal, integrate_variance_ode, variance_at
from sisq.sim import SeedSpec, conditioned_ensemble, extinction_time_samples, simulate_restarted
from sisq.spectral import (
    expected_time_qsd,
    full_decomposition,
    quasi_stationary_distribution,
    transition_matrix,
)
from sisq.stationary import (
    exact_expected_extinction_time,
    log_stationary_weights,
    stationary_distribution,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_eigenvalue_qsd_identity():
    worst = 0.0
    worst_at = None
    for n in (1, 2, 5, 10, 50, 200):
        for r0 in (0.5, 1.0, 2.0, 5.0, 8.0):
            p = ModelParams(n, r0, 1.0)
            r = quasi_stationary_distribution(p)
            rel = abs(r.lambda1 + p.gamma * r.qsd[0]) / abs(r.lambda1)
            if rel >= worst:
                worst, worst_at = rel, (n, r0)
    report(1, worst <= 1e-9,
           f"max |lambda1 + gamma*q1|/|lambda1| = {worst:.3e} at {worst_at} "
           "over the 30-point grid (bound 1e-9)")


def test_criterion_02_hand_derivable_two_state_chain():
    p = ModelParams(2, 1.0, 1.0)
    lam1_want = (-3.5 + math.sqrt(4.25)) / 2.0
    r = quasi_stationary_distribution(p)
    pi = stationary_distribution(p)
    devs = {
        "lambda1": abs(r.lambda1 - lam1_want),
        "q1": abs(r.qsd[0] - 0.7192236),
        "q2": abs(r.qsd[1] - 0.2807764),
        "ET_Q": abs(expected_time_qsd(p) - 1.390388),
        "pi1": abs(pi[0] - 0.8),
        "pi2": abs(pi[1] - 0.2),
        "ET_ext": abs(exact_expected_extinction_time(p) - 1.25),
    }
    worst = max(devs, key=devs.get)
    report(2, devs[worst] <= 1e-6,
           f"worst deviation {devs[worst]:.3e} ({worst}) against the "
           "hand-derived n=2 values (bound 1e-6)")


def test_criterion_03_projector_identities():
    # Parameter grid capped by conditioning, not preference: the identity
    # error scales like machine epsilon times the square root of the
    # detailed-balance weight span, so sets whose span nears 1e16 (e.g.
    # n=50 at R0 in {0.5, 1, 5}) cannot meet 1e-8 in double precision by
    # any algorithm.  Every set below carries >= 100x margin.
    grid = ((2, 1.0), (5, 2.0), (10, 0.5), (10, 8.0), (20, 5.0), (50, 2.0))
    worst_sum = worst_pair = worst_left = 0.0
    for n, lam in grid:
        p = ModelParams(n, lam, 1.0)
        evals, basis = full_decomposition(p)
        lw = log_stationary_weights(p)
        sqw = np.exp(0.5 * (lw - lw.max()))
        right = basis / sqw[:, None]
        left = basis * sqw[:, None]
        worst_sum = max(worst_sum, np.abs(right @ left.T - np.eye(n)).max())
        # E_i E_j = gram_ij * right_i left_j^T exactly, so its norm is
        # |gram_ij| * ||right_i||_inf * ||left_j||_1
        gram = basis.T @ basis
        np.fill_diagonal(gram, 0.0)
        pair = np.abs(gram) * np.abs(right).max(axis=0)[:, None] \
            * np.abs(left).sum(axis=0)[None, :]
        worst_pair = max(worst_pair, pair.max())
        q = dense_transient(p)
        resid = left.T @ q - evals[:, None] * left.T
        scale = np.abs(q).sum(axis=1).max() * np.abs(left).max(axis=0)
        worst_left = max(worst_left, (np.abs(resid).max(axis=1) / scale).max())
    ok = worst_sum <= 1e-8 and worst_pair <= 1e-8 and worst_left <= 1e-8
    report(3, ok,
           f"sum E_k - I: {worst_sum:.3e}, cross products: {worst_pair:.3e}, "
           f"left residuals: {worst_left:.3e} (bounds 1e-8)")


def test_criterion_04_propagator_vs_uniformization():
    worst = 0.0
    for lam in (0.5, 2.0, 5.0):
        p = ModelParams(10, lam, 1.0)
        q = dense_transient(p)
        for t in (0.1, 1.0, 10.0):
            diff = np.abs(transition_matrix(p, t) - uniformization(q, t)).max()
            worst = max(worst, diff)
    report(4, worst <= 1e-8,
           f"sup-norm gap spectral vs uniformization = {worst:.3e} "
           "over n=10, t in {0.1, 1, 10} (bound 1e-8)")


def test_criterion_05_subcritical_limit():
    got = exact_expected_extinction_time(ModelParams(10**4, 0.5, 1.0))
    want = -math.log(1.0 - 0.5) / 0.5
    rel = abs(got - want) / want
    report(5, rel <= 0.01,
           f"E(T_ext) = {got:.10f} vs limit {want:.10f}, rel err {rel:.2e} (bound 1%)")


def test_criterion_06_variance_ode():
    p = ModelParams(100, 2.0, 1.0)
    horizon = 5.0 / (p.lam - p.gamma)
    ts, out = integrate_variance_ode(horizon, p, 1000)
    endpoint_err = abs(out[-1] - variance_at(horizon, p))
    _, long_run = integrate_variance_ode(40.0, p, 4000)
    limit_err = abs(long_run[-1] - 1.0 / p.r0)
    summary_err = abs(endemic_normal(p).sigma2_inf - 1.0 / p.r0)
    ok = endpoint_err <= 1e-8 and limit_err <= 1e-10 and summary_err <= 1e-10
    report(6, ok,
           f"RK4 endpoint err {endpoint_err:.3e} (bound 1e-8), "
           f"limit err {limit_err:.3e}/{summary_err:.3e} (bound 1e-10)")


def test_criterion_07_clt_convergence_to_spectral():
    # The central limit theorem governs the body of the QSD, so the CLT
    # route is checked in that sense: the Kolmogorov distance between the
    # spectral QSD and the continuity-corrected N(mu_n, sigma2_n), renormalised
    # to the band [1/2, n + 1/2] as q1_normal_approx does, must shrink like
    # n^(-1/2).  The state-1 head is not checked here: there the two decay
    # at different exponential rates in n (README, "Testing").  R0 = 5 is
    # included because at R0 = 2 the variances n/R0 and n(1 - 1/R0) coincide.
    dists = {}
    for r0 in (2.0, 5.0):
        row = []
        for n in (50, 100, 200, 400):
            p = ModelParams(n, r0, 1.0)
            cdf = np.cumsum(quasi_stationary_distribution(p).qsd)
            summ = endemic_normal(p)
            law = stats.norm(summ.mu_n, math.sqrt(summ.sigma2_n))
            lo, hi = law.cdf(0.5), law.cdf(n + 0.5)
            normal = (law.cdf(np.arange(1, n + 1) + 0.5) - lo) / (hi - lo)
            row.append(float(np.abs(cdf - normal).max()))
        dists[r0] = row
    ok = all(all(a > b for a, b in zip(row, row[1:])) and row[-1] <= row[0] / 2
             for row in dists.values())
    report(7, ok,
           "Kolmogorov distance of spectral QSD vs normal law along "
           f"n=(50,100,200,400): R0=2 {[f'{d:.4f}' for d in dists[2.0]]}, "
           f"R0=5 {[f'{d:.4f}' for d in dists[5.0]]}; required strictly "
           "decreasing with D_400 <= D_50/2")


def test_criterion_08_restart_rate():
    p = ModelParams(2, 1.0, 1.0)
    tr = simulate_restarted(p, 1e4, SeedSpec(1))
    rate = tr.n_restarts / tr.t_end
    se = math.sqrt(tr.n_restarts) / tr.t_end
    ok = abs(rate - 0.8) <= 3.0 * se
    report(8, ok,
           f"restart rate {rate:.4f} vs gamma*pi1 = 0.8, "
           f"|dev| {abs(rate - 0.8):.4f} <= 3*SE {3 * se:.4f}")


def test_criterion_09_exponential_extinction_law():
    p = ModelParams(2, 1.0, 1.0)
    r = quasi_stationary_distribution(p)
    s = extinction_time_samples(p, 10**4, SeedSpec(11), r.qsd)
    d = stats.kstest(s.times, "expon", args=(0.0, -1.0 / r.lambda1)).statistic
    d_crit = stats.kstwo.isf(0.01, s.replicates)
    mean_dev = abs(s.mean - 1.390388)
    ok = d < d_crit and mean_dev <= 3.0 * s.standard_error
    report(9, ok,
           f"KS D {d:.5f} < crit(1%) {d_crit:.5f}; mean {s.mean:.5f} "
           f"dev {mean_dev:.5f} <= 3*SE {3 * s.standard_error:.5f}")


def test_criterion_10_endemic_ensemble():
    p = ModelParams(1000, 5.0, 1.0)
    res = conditioned_ensemble(p, 10**4, 10.0, SeedSpec(42), workers=4)
    mean = res.mean()
    var = res.sample_variance()
    se = math.sqrt(var / res.survivors)
    d = stats.kstest(res.survivor_states, "norm",
                     args=(800.0, math.sqrt(200.0))).statistic
    ok = abs(mean - 800.0) <= 3.0 * se and abs(var - 200.0) <= 30.0 and d < 0.05
    report(10, ok,
           f"{res.survivors} survivors; mean {mean:.3f} (dev {abs(mean - 800):.3f} "
           f"<= {3 * se:.3f}), variance {var:.2f} (within 200 +- 30), "
           f"KS vs N(800, 200) {d:.4f} < 0.05")


def test_criterion_11_byte_identical_reruns(tmp_path, capsys):
    def run(*args):
        assert main(list(args)) == 0
        capsys.readouterr()

    paths = [tmp_path / name for name in ("e1.csv", "e2.csv", "e3.csv")]
    workers = ([], [], ["--workers", "3"])
    for path, extra in zip(paths, workers):
        run("simulate", "--n", "100", "--r0", "5", "--mode", "ensemble",
            "--t-max", "4", "--replicates", "500", "--seed", "7",
            "--output", str(path), *extra)
    ensembles_equal = (paths[0].read_bytes() == paths[1].read_bytes()
                       == paths[2].read_bytes())
    sidecars_equal = (
        (tmp_path / "e1.normal.json").read_bytes()
        == (tmp_path / "e2.normal.json").read_bytes()
        == (tmp_path / "e3.normal.json").read_bytes())

    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for path in (t1, t2):
        run("simulate", "--n", "50", "--lambda", "2", "--mode", "plain",
            "--t-max", "20", "--seed", "77", "--output", str(path))
    trajectories_equal = t1.read_bytes() == t2.read_bytes()

    x1, x2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
    for path in (x1, x2):
        run("extinction-time", "--n", "2", "--lambda", "1", "--method",
            "simulate", "--seed", "15", "--replicates", "1000",
            "--output", str(path))
    samples_equal = x1.read_bytes() == x2.read_bytes()

    ok = ensembles_equal and sidecars_equal and trajectories_equal and samples_equal
    report(11, ok,
           f"ensemble rerun+parallel identical: {ensembles_equal}, "
           f"sidecars: {sidecars_equal}, trajectory rerun: {trajectories_equal}, "
           f"extinction sampling rerun: {samples_equal}")
