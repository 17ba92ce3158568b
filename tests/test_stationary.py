import math

import numpy as np
import pytest
from scipy.special import logsumexp

from _oracles import dense_transient, ratio_log_weights
from sisq.chain import ModelParams, rates
from sisq.stationary import (
    _log_mean_times,
    check_probability_vector,
    exact_expected_extinction_time,
    log_expected_extinction_time,
    stationary_distribution,
)


def test_single_state_is_point_mass():
    assert stationary_distribution(ModelParams(1, 1.0)).tolist() == [1.0]


def test_hand_values_n2():
    pi = stationary_distribution(ModelParams(2, 1.0, 1.0))
    assert pi == pytest.approx([0.8, 0.2], rel=1e-12)


def test_is_probability_vector():
    for p in (ModelParams(10, 0.5), ModelParams(100, 5.0), ModelParams(3, 1.0, 7.0)):
        pi = stationary_distribution(p)
        assert np.all(pi >= 0.0)
        assert abs(pi.sum() - 1.0) <= 1e-12


def test_mode_near_endemic_level():
    # argmax within +-2 states of n*(1 - 1/R0) = 80
    pi = stationary_distribution(ModelParams(100, 5.0, 1.0))
    assert abs(int(np.argmax(pi)) + 1 - 80) <= 2


def test_detailed_balance_entrywise():
    for p in (ModelParams(2, 1.0, 1.0), ModelParams(7, 0.4, 1.1),
              ModelParams(50, 2.0, 1.0), ModelParams(50, 8.0, 3.0)):
        pi = stationary_distribution(p)
        births, deaths = rates(p)
        for i in range(1, p.n):
            lhs = pi[i - 1] * births[i]
            rhs = pi[i] * deaths[i + 1]
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_closed_form_matches_ratio_recurrence():
    # same weights by a different derivation: cumulative one-step log
    # ratios vs the log-gamma closed form
    for n, lam in ((2, 1.0), (50, 2.0), (200, 0.5), (200, 2.0), (200, 8.0)):
        p = ModelParams(n, lam, 1.0)
        logw = ratio_log_weights(p)
        oracle = np.exp(logw - logsumexp(logw))
        oracle /= oracle.sum()
        pi = stationary_distribution(p)
        assert pi == pytest.approx(oracle, rel=1e-10)


def test_extinction_time_hand_values():
    assert exact_expected_extinction_time(ModelParams(1, 1.0, 2.0)) == pytest.approx(0.5, rel=1e-14)
    assert exact_expected_extinction_time(ModelParams(2, 1.0, 1.0)) == pytest.approx(1.25, rel=1e-12)


def test_extinction_time_is_reciprocal_first_weight():
    for p in (ModelParams(2, 1.0, 1.0), ModelParams(30, 1.5, 0.7),
              ModelParams(120, 0.5, 1.0)):
        et = exact_expected_extinction_time(p)
        pi1 = stationary_distribution(p)[0]
        assert et == pytest.approx(1.0 / (p.gamma * pi1), rel=1e-12)


def test_extinction_time_matches_plain_float_sum():
    # direct summation of the defining series, representable regime only
    p = ModelParams(60, 1.2, 1.0)
    total = 0.0
    for i in range(1, p.n + 1):
        term = (p.lam / (p.n * p.gamma)) ** (i - 1) * math.factorial(p.n - 1) \
            / (i * math.factorial(p.n - i))
        total += term
    assert exact_expected_extinction_time(p) == pytest.approx(total / p.gamma, rel=1e-10)


def test_log_form_hand_values():
    assert log_expected_extinction_time(ModelParams(1, 1.0, 1.0)) == 0.0
    got = log_expected_extinction_time(ModelParams(2, 1.0, 1.0))
    assert got == pytest.approx(math.log(1.25), rel=1e-12)


def test_log_form_consistent_where_representable():
    for p in (ModelParams(10, 0.5), ModelParams(80, 2.0), ModelParams(5, 9.0, 2.0)):
        assert math.exp(log_expected_extinction_time(p)) == pytest.approx(
            exact_expected_extinction_time(p), rel=1e-12)


def test_overflow_reported_distinctly_with_log_fallback():
    p = ModelParams(1000, 5.0, 1.0)
    log_et = log_expected_extinction_time(p)
    assert math.isfinite(log_et) and log_et > 709.0
    with pytest.raises(OverflowError):
        exact_expected_extinction_time(p)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 30])
@pytest.mark.parametrize("r0", [0.3, 0.7, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("gamma", [1.0, 0.37])
def test_mean_times_match_dense_solve_at_every_start(n, r0, gamma):
    # gamma * E_i[T] against a dense solve of -Q tau = 1, every start i.
    # The solve errs by up to 3e-13 here (the kernel by 1e-14, against
    # exact rationals) and is no reference further out: it returns
    # negative times at (50, 5).
    p = ModelParams(n, r0 * gamma, gamma)
    tau = np.linalg.solve(-dense_transient(p), np.ones(n))
    got = _log_mean_times(p)
    assert got.shape == (n,)
    np.testing.assert_allclose(np.exp(got), gamma * tau, rtol=1e-12, atol=0.0)
    want = log_expected_extinction_time(p) + math.log(gamma)
    assert got[0] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_check_probability_vector_accepts_valid():
    out = check_probability_vector([0.25, 0.75], 2)
    assert out.dtype == np.float64
    assert out.tolist() == [0.25, 0.75]


def test_check_probability_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        check_probability_vector([0.5, 0.5], 3)
    with pytest.raises(ValueError):
        check_probability_vector([-0.1, 1.1], 2)
    with pytest.raises(ValueError):
        check_probability_vector([0.6, 0.6], 2)
    with pytest.raises(ValueError):
        check_probability_vector([math.nan, 1.0], 2)
