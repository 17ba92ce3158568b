import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sisq.spectral
from _oracles import (
    _flux_sweep,
    _log_flux_sum_at_zero,
    dense_full,
    bands,
    dense_transient,
    dominant_eigenpair,
    flux_bisection_reference,
    uniformization,
)
from sisq.chain import ModelParams
from sisq.spectral import (
    ConvergenceError,
    conditioned_distribution,
    expected_time_qsd,
    full_decomposition,
    quasi_stationary_distribution,
    transition_matrix,
)
from sisq.stationary import log_stationary_weights

N2_LAMBDA1 = (-3.5 + math.sqrt(4.25)) / 2.0


# The dense route refuses exactly where stationary_distribution(p) has a
# zero entry; these are its edges at R0 = 2, 5 and 0.5, the points the
# benchmark's edge probe tries, and sizes past the old n = 4096 cap and
# past n = 2,025, where no R0 is accepted.
@pytest.mark.parametrize("n, r0, refused", [
    (1489, 2.0, True), (1488, 2.0, False), (926, 5.0, True), (440, 0.5, True),
    (2000, 2.0, True), (4096, 0.5, True), (4096, 1.05, True),
    (4097, 2.0, True), (2100, math.e, True),
])
def test_dense_route_refusal_edge(n, r0, refused):
    p = ModelParams(n, r0, 1.0)
    if refused:
        with pytest.raises(ValueError):
            transition_matrix(p, 1.0)
    else:
        assert transition_matrix(p, 1.0).shape == (n, n)


def test_symmetrized_spectrum_equals_dense_spectrum():
    # similarity transform must preserve the spectrum; oracle is a
    # generic dense eigensolve of the nonsymmetric generator.  Parameter
    # sets are limited to mild detailed-balance weight spans: past that
    # the oracle's own eigenvalues are ill-conditioned (error grows like
    # eps * sqrt(weight span)) and it stops being a 1e-8 reference.
    for n, lam in ((5, 1.0), (20, 3.0), (50, 2.0)):
        p = ModelParams(n, lam, 1.0)
        got = np.sort(full_decomposition(p)[0])
        want = np.sort(np.linalg.eigvals(dense_transient(p)).real)
        scale = np.abs(dense_transient(p)).sum(axis=1).max()
        assert np.allclose(got, want, rtol=0.0, atol=1e-8 * scale)


def test_dominant_eigenpair_single_state():
    lam1, u1 = dominant_eigenpair(ModelParams(1, 2.0, 1.0))
    assert lam1 == -1.0
    assert u1.tolist() == [1.0]


def test_dominant_eigenpair_hand_value_n2():
    lam1, u1 = dominant_eigenpair(ModelParams(2, 1.0, 1.0))
    assert lam1 == pytest.approx(N2_LAMBDA1, rel=1e-12)
    assert np.all(u1 > 0.0)
    assert np.linalg.norm(u1) == pytest.approx(1.0, rel=1e-12)


def test_dominant_eigenpair_positive_and_unit():
    for p in (ModelParams(10, 0.5), ModelParams(40, 2.0), ModelParams(25, 1.0, 3.0)):
        lam1, u1 = dominant_eigenpair(p)
        assert lam1 < 0.0
        assert np.all(u1 > 0.0)
        assert np.linalg.norm(u1) == pytest.approx(1.0, rel=1e-12)


def test_spectral_gap_hand_values_n2():
    evals, _ = full_decomposition(ModelParams(2, 1.0, 1.0))
    assert evals[0] == pytest.approx(N2_LAMBDA1, rel=1e-12)
    assert evals[1] == pytest.approx((-3.5 - math.sqrt(4.25)) / 2.0, rel=1e-12)
    assert evals[0] > evals[1]


def test_qsd_single_state():
    r = quasi_stationary_distribution(ModelParams(1, 5.0, 1.0))
    assert r.lambda1 == -1.0
    assert r.qsd.tolist() == [1.0]


def test_qsd_hand_values_n2():
    r = quasi_stationary_distribution(ModelParams(2, 1.0, 1.0))
    assert r.lambda1 == pytest.approx(N2_LAMBDA1, rel=1e-9)
    assert r.qsd == pytest.approx([0.7192236, 0.2807764], abs=1e-6)


def test_qsd_is_probability_vector():
    for p in (ModelParams(10, 0.5), ModelParams(100, 2.0), ModelParams(7, 4.0, 2.0)):
        r = quasi_stationary_distribution(p)
        assert np.all(r.qsd > 0.0)
        assert r.qsd.sum() == pytest.approx(1.0, rel=1e-12)


def test_eigenvalue_qsd_identity_tight():
    # lambda1 = -gamma * qsd[0] holds to a few roundings by construction
    for p in (ModelParams(2, 1.0, 1.0), ModelParams(50, 2.0, 1.0),
              ModelParams(80, 0.5, 2.5), ModelParams(200, 8.0, 1.0)):
        r = quasi_stationary_distribution(p)
        assert abs(r.lambda1 + p.gamma * r.qsd[0]) <= 1e-14 * abs(r.lambda1)


def test_qsd_left_eigenvector_residual():
    for p in (ModelParams(5, 2.0), ModelParams(30, 0.5), ModelParams(50, 1.0, 2.0)):
        r = quasi_stationary_distribution(p)
        q = dense_transient(p)
        resid = np.abs(r.qsd @ q - r.lambda1 * r.qsd).max()
        scale = np.abs(q).sum(axis=1).max() * r.qsd.max()
        assert resid <= 1e-9 * scale


def test_flux_and_lapack_routes_agree():
    # both solvers see well-scaled eigenvalues here, so they must agree;
    # at strongly supercritical parameters only the flux route keeps
    # relative accuracy and this comparison would be meaningless
    for p in (ModelParams(10, 0.5), ModelParams(10, 2.0), ModelParams(30, 1.0, 2.5),
              ModelParams(50, 1.5, 1.0)):
        r = quasi_stationary_distribution(p)
        lam1, u1 = dominant_eigenpair(p)
        assert r.lambda1 == pytest.approx(lam1, rel=1e-9)
        lw = log_stationary_weights(p)
        q_full = u1 * np.exp(0.5 * (lw - lw.max()))
        q_full /= q_full.sum()
        assert np.allclose(r.qsd, q_full, rtol=1e-9, atol=1e-12)


def test_expected_time_qsd_values():
    assert expected_time_qsd(ModelParams(1, 1.0, 2.0)) == pytest.approx(0.5, rel=1e-12)
    assert expected_time_qsd(ModelParams(2, 1.0, 1.0)) == pytest.approx(1.390388, abs=1e-6)


def test_expected_time_qsd_is_negative_reciprocal_eigenvalue():
    for p in (ModelParams(2, 1.0), ModelParams(60, 2.0), ModelParams(15, 0.5, 0.3)):
        r = quasi_stationary_distribution(p)
        assert expected_time_qsd(p) == pytest.approx(-1.0 / r.lambda1, rel=1e-12)


def test_full_decomposition_single_state():
    evals, basis = full_decomposition(ModelParams(1, 1.0, 3.0))
    assert evals.tolist() == [-3.0]
    assert np.abs(basis).tolist() == [[1.0]]


def test_full_decomposition_descending_orthonormal():
    evals, basis = full_decomposition(ModelParams(40, 2.0, 1.0))
    assert np.all(np.diff(evals) < 0.0)
    gram = basis.T @ basis
    assert np.abs(gram - np.eye(40)).max() <= 1e-10


def test_full_decomposition_trace_identity():
    p = ModelParams(40, 2.0, 1.0)
    evals, _ = full_decomposition(p)
    assert evals.sum() == pytest.approx(bands(p)[1].sum(), rel=1e-9)


def test_transition_matrix_at_zero_is_identity():
    p = ModelParams(6, 1.5, 1.0)
    assert np.abs(transition_matrix(p, 0.0) - np.eye(6)).max() <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="dense assembly multiplies rounding noise by exp(span/2) of the "
    "detailed-balance log-weights; ROADMAP item 4",
)
def test_transition_matrix_at_zero_is_identity_n200():
    p = ModelParams(200, 2.0, 1.0)
    assert np.abs(transition_matrix(p, 0.0) - np.eye(200)).max() <= 1e-10


def test_transition_matrix_bounds_and_domain():
    p = ModelParams(12, 2.0, 1.0)
    m = transition_matrix(p, 0.7)
    assert m.min() >= 0.0 and m.max() <= 1.0
    row_sums = m.sum(axis=1)
    assert np.all(row_sums > 0.0) and np.all(row_sums < 1.0)
    with pytest.raises(ValueError):
        transition_matrix(p, -1.0)


@pytest.mark.parametrize("t", [math.nan, -math.inf])
def test_propagators_refuse_undefined_times(t):
    # a NaN time used to pass the t < 0 check and return NaN rows
    p = ModelParams(6, 1.5, 1.0)
    with pytest.raises(ValueError, match="time must be >= 0"):
        transition_matrix(p, t)
    with pytest.raises(ValueError, match="time must be >= 0"):
        conditioned_distribution(p, t, 1)


@pytest.mark.parametrize("i", [0, 7])
def test_conditioned_distribution_refuses_start_outside_1_to_n(i):
    with pytest.raises(ValueError, match=rf"^state must lie in 1\.\.6, got {i}$"):
        conditioned_distribution(ModelParams(6, 1.5, 1.0), 1.0, i)


@pytest.mark.parametrize("i", [True, 2.0, 2.5, np.float64(3.0), "2"],
                         ids=["True", "float-2.0", "2.5", "float64-3.0", "str-2"])
def test_conditioned_distribution_refuses_non_integer_start(i):
    # True used to run as state 1, and 2.0 and 2.5 raised an unnamed
    # IndexError from the row lookup
    message = re.escape(f"state must be an integer, got {i!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        conditioned_distribution(ModelParams(6, 1.5, 1.0), 1.0, i)


def test_conditioned_distribution_takes_numpy_integer_start():
    p = ModelParams(6, 1.5, 1.0)
    assert np.array_equal(conditioned_distribution(p, 1.0, np.int64(4)),
                          conditioned_distribution(p, 1.0, 4))


def test_propagators_at_infinite_time():
    # exp(Q t) -> 0 is the exact limit; conditioning on survival is not
    p = ModelParams(6, 1.5, 1.0)
    assert not transition_matrix(p, math.inf).any()
    with pytest.raises(ValueError, match="survival probability underflowed"):
        conditioned_distribution(p, math.inf, 1)


def test_transition_probability_scalar_generator():
    assert transition_matrix(ModelParams(1, 1.0, 1.0), 2.0)[0, 0] == \
        pytest.approx(math.exp(-2.0), rel=1e-12)


def test_transition_row_sum_is_survival_from_state():
    # leak into the absorbing state accounts for the missing row mass;
    # oracle integrates the full chain including state 0
    p = ModelParams(2, 1.0, 1.0)
    t = 0.5
    row_sum = float(transition_matrix(p, t)[0].sum())
    p_full = uniformization(dense_full(p), t)
    assert 0.0 < row_sum < 1.0
    assert row_sum == pytest.approx(1.0 - p_full[1, 0], abs=1e-10)


def test_transition_matrix_matches_uniformization():
    for lam, t in ((0.5, 0.3), (2.0, 1.0), (5.0, 4.0)):
        p = ModelParams(10, lam, 1.0)
        got = transition_matrix(p, t)
        want = uniformization(dense_transient(p), t)
        assert np.abs(got - want).max() <= 1e-8


def test_single_rows_do_not_assemble_the_matrix(monkeypatch):
    # points inside the dense route's accurate range: past it both paths
    # return rounding noise (the n200 xfail), which differs between them
    cases = [(ModelParams(n, lam, 1.0), t, i)
             for n, lam in ((2, 1.0), (5, 2.0), (12, 2.0), (20, 3.0))
             for t in (0.0, 0.7, 5.0) for i in (1, n // 2 + 1, n)]
    want = [transition_matrix(p, t)[i - 1] for p, t, i in cases]

    def refuse(*args):
        raise AssertionError("transition_matrix called")

    monkeypatch.setattr(sisq.spectral, "transition_matrix", refuse)
    for (p, t, i), row in zip(cases, want):
        got = conditioned_distribution(p, t, i)
        assert np.abs(got - row / row.sum()).max() <= 1e-14


def test_cold_row_keeps_one_dense_matrix():
    # the cache holds the orthonormal basis and O(n) vectors, and building
    # it never holds more than the eigensolver's output plus a little
    p = ModelParams(400, 2.0)
    sisq.spectral._parts.clear()
    tracemalloc.start()
    try:
        conditioned_distribution(p, 1.0, 1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n2 = 8 * p.n**2
    assert retained <= 1.25 * n2
    assert peak <= 2.5 * n2


def test_cold_call_at_new_parameters_drops_the_old_basis():
    # the basis cached for one parameter set is released before the
    # eigensolve for the next allocates its own, so a cold call peaks at
    # the solver's two n x n arrays, not those plus the old basis
    a, b = ModelParams(400, 2.0), ModelParams(400, 2.5)
    conditioned_distribution(ModelParams(3, 2.0), 1.0, 1)  # scipy.linalg loaded
    tracemalloc.start()
    try:
        conditioned_distribution(a, 1.0, 1)
        tracemalloc.reset_peak()
        conditioned_distribution(b, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * b.n**2


def test_conditioned_distribution_rows_sum_to_one():
    p = ModelParams(9, 2.0, 1.0)
    for i in (1, 4, 9):
        row = conditioned_distribution(p, 2.5, i)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditioned_distribution_converges_to_qsd():
    p = ModelParams(2, 1.0, 1.0)
    row = conditioned_distribution(p, 20.0, 1)
    assert row == pytest.approx(quasi_stationary_distribution(p).qsd, abs=1e-6)


def test_conditioned_convergence_monotone():
    for p, i in ((ModelParams(10, 2.0, 1.0), 1), (ModelParams(30, 0.5, 1.0), 3)):
        q = quasi_stationary_distribution(p).qsd
        dists = [np.abs(conditioned_distribution(p, t / p.gamma, i) - q).max()
                 for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b for a, b in zip(dists, dists[1:]))


def test_conditioned_probability_at_zero():
    # reconstructed from the spectral sum, so the point mass at t=0 is
    # exact only to rounding
    row = conditioned_distribution(ModelParams(5, 1.0), 0.0, 3)
    assert row[3 - 1] == pytest.approx(1.0, abs=1e-12)
    assert row[2 - 1] == pytest.approx(0.0, abs=1e-12)


def test_underflow_guard_names_the_regime():
    with pytest.raises(OverflowError, match="underflows double"):
        quasi_stationary_distribution(ModelParams(1000, 5.0, 1.0))


@pytest.mark.parametrize("gamma", [1e-300, 1e-160, 1e160, 1e200])
@pytest.mark.parametrize("n, r0", [(10, 2.0), (100, 2.0), (400, 5.0)])
def test_flux_solver_scale_invariant_far_from_unit_gamma(n, r0, gamma):
    # scaling lambda and gamma together scales lambda1 and leaves the QSD
    # unchanged (Nasell, J. R. Statist. Soc. B 61, 1999).  Entries above
    # the mode are tail noise (ROADMAP item 1), so only the head is held.
    ref = quasi_stationary_distribution(ModelParams(n, r0, 1.0))
    p = ModelParams(n, r0 * gamma, gamma)
    if -ref.lambda1 * gamma < sys.float_info.min:
        with pytest.raises(OverflowError):
            quasi_stationary_distribution(p)
        with pytest.raises(OverflowError):
            expected_time_qsd(p)
        return
    r = quasi_stationary_distribution(p)
    assert r.lambda1 / gamma == pytest.approx(ref.lambda1, rel=1e-13, abs=0.0)
    head = slice(0, int(np.argmax(ref.qsd)) + 1)
    assert np.allclose(r.qsd[head], ref.qsd[head], rtol=1e-13, atol=0.0)
    assert expected_time_qsd(p) * gamma == pytest.approx(
        expected_time_qsd(ModelParams(n, r0, 1.0)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("gamma", [1e-310, 5e-324])
def test_flux_solver_refuses_subnormal_decay_rate(gamma):
    p = ModelParams(10, 2.0 * gamma, gamma)
    with pytest.raises(OverflowError, match="normal double"):
        quasi_stationary_distribution(p)
    with pytest.raises(OverflowError):
        expected_time_qsd(p)


def test_results_are_immutable_and_cached_consistently():
    p = ModelParams(20, 2.0, 1.0)
    r1 = quasi_stationary_distribution(p)
    r2 = quasi_stationary_distribution(ModelParams(20, 2.0, 1.0))
    assert np.array_equal(r1.qsd, r2.qsd)
    assert not r1.qsd.flags.writeable
    with pytest.raises(ValueError):
        r1.qsd[0] = 0.0


def test_convergence_error_carries_iterations():
    err = ConvergenceError("nope", iterations=7)
    assert isinstance(err, RuntimeError)
    assert err.iterations == 7


# (n, R0, gamma): the benchmark's four points, the compare grid, the
# extinction-sampler start, the smallest chains, criticality and a
# recovery rate other than 1.
_FLUX_ORACLE_GRID = [
    (100, 2.0, 1.0), (1000, 2.0, 1.0), (400, 5.0, 1.0), (1000, 1.2, 1.0),
    (50, 2.0, 1.0), (200, 2.0, 1.0),
    (20, 2.0, 1.0),
    (1, 2.0, 1.0), (2, 1.0, 1.0), (2, 3.0, 1.0),
    (300, 1.0, 1.0), (1000, 1.0, 1.0),
    (500, 2.0, 0.37), (60, 0.5, 0.37), (250, 8.0, 0.37),
]


def _assert_flux_matches_reference(n: int, r0: float, gamma: float) -> None:
    p = ModelParams(n, r0 * gamma, gamma)
    try:
        theta, qsd = flux_bisection_reference(p)
    except OverflowError:
        with pytest.raises(OverflowError):
            quasi_stationary_distribution(p)
        return
    r = quasi_stationary_distribution(p)
    assert r.lambda1 == -theta
    assert np.array_equal(r.qsd, qsd)


@pytest.mark.parametrize("n, r0, gamma", _FLUX_ORACLE_GRID)
def test_flux_solver_bit_identical_to_reference(n, r0, gamma):
    _assert_flux_matches_reference(n, r0, gamma)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=1500),
    r0=st.floats(min_value=0.2, max_value=50.0),
)
def test_flux_solver_matches_reference_property(n, r0):
    _assert_flux_matches_reference(n, r0, 1.0)


@pytest.mark.parametrize("n, r0, gamma", _FLUX_ORACLE_GRID)
def test_flux_sweep_matches_frozen_numpy_loop(n, r0, gamma):
    # the float loop against the numpy-scalar loop it replaced, on the
    # rates as the solver scales them: theta from the search's low end
    # gamma / 2^k_hi up to gamma, and within 1e-12 of theta* either side
    m = math.frexp(gamma)[1] - 1
    p = ModelParams(n, math.ldexp(r0 * gamma, -m), math.ldexp(gamma, -m))
    lower, _, upper = (band.tolist() for band in bands(p))
    k_hi = math.ceil(sisq.spectral._log_flux_sum_at_zero(p) / math.log(2.0)) + 1
    star = -quasi_stationary_distribution(p).lambda1
    thetas = [math.ldexp(p.gamma, -k_hi) * 2.0 ** (k_hi * i / 14) for i in range(15)]
    thetas += [star * (1.0 + e) for e in (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)]
    early = 0
    for theta in thetas:
        want_below, want_v, want_s = _flux_sweep(theta, upper, lower, p.gamma, n)
        out = np.empty(n)
        for below, s in (
            sisq.spectral._flux_sweep(theta, upper, lower, p.gamma),
            sisq.spectral._flux_sweep(theta, upper, lower, p.gamma, out),
        ):
            assert type(below) is bool and type(s) is float
            assert below == want_below and s == want_s
        if want_v is None:
            early += 1
        else:
            assert np.array_equal(out, want_v)
    # v_2 = (b_1 + gamma - theta) / d_2 > 0 for theta <= gamma
    assert early > 0 or n <= 2


def _count_flux_sweeps(monkeypatch) -> list:
    calls = []
    sweep = sisq.spectral._flux_sweep

    def counting(*args):
        calls.append(args[0])
        return sweep(*args)

    monkeypatch.setattr(sisq.spectral, "_flux_sweep", counting)
    return calls


@pytest.mark.parametrize("n, r0", [(1000, 2.0), (400, 5.0)])
def test_flux_solver_sweep_count(monkeypatch, n, r0):
    # the halving walk took 317 and 503 sweeps at these points
    calls = _count_flux_sweeps(monkeypatch)
    sisq.spectral._solve_dominant_flux(ModelParams(n, r0, 1.0))
    assert len(calls) <= 60


def test_flux_solver_names_failed_lower_bound(monkeypatch):
    # a flux sum S(0) of 1 would put the search's low end at gamma / 2,
    # far above the true rate at (1000, 2): refuse, never bracket wrongly
    calls = _count_flux_sweeps(monkeypatch)
    monkeypatch.setattr(sisq.spectral, "_log_flux_sum_at_zero", lambda *args: 0.0)
    with pytest.raises(ConvergenceError, match="lower bound") as info:
        sisq.spectral._solve_dominant_flux(ModelParams(1000, 2.0, 1.0))
    assert info.value.iterations == len(calls) == 1


@pytest.mark.parametrize("n, r0, gamma", _FLUX_ORACLE_GRID)
def test_flux_sum_at_zero_closed_form(n, r0, gamma):
    # the closed form against the frozen logaddexp loop it replaced,
    # including the exponent bound k_hi the binary search starts from
    p = ModelParams(n, r0 * gamma, gamma)
    lower, _, upper = bands(p)
    got = sisq.spectral._log_flux_sum_at_zero(p)
    want = _log_flux_sum_at_zero(upper, lower, gamma)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert math.ceil(got / math.log(2.0)) == math.ceil(want / math.log(2.0))


@pytest.mark.parametrize("n, r0, gamma", [
    (6, 1.5, 1.0), (30, 0.7, 1.0), (40, 2.0, 1.0), (10, 0.5, 0.37),
    (1, 2.0, 1.0), (2, 1.0, 1.0),
])
def test_flux_sum_at_zero_is_gamma_times_mean_time_from_n(n, r0, gamma):
    # S(0) = gamma * E_n[T] (Karlin & McGregor 1957), against a dense
    # solve of -Q tau = 1
    p = ModelParams(n, r0 * gamma, gamma)
    tau = np.linalg.solve(-dense_transient(p), np.ones(n))
    got = math.exp(sisq.spectral._log_flux_sum_at_zero(p))
    assert got == pytest.approx(gamma * tau[-1], rel=1e-11, abs=0.0)


@pytest.mark.parametrize("n, r0", [(450, 5.0), (500, 5.0), (800, 5.0), (900, 3.0)])
def test_flux_rate_where_bisection_stops_early(n, r0):
    # the scaled theta* is below 1e-154 here, so sqrt(lo * hi) is formed
    # from a subnormal product (or is 0) and the bisection stops short of
    # its tolerance; the polished rate still sits at the sign change
    p = ModelParams(n, r0, 1.0)
    theta = -quasi_stationary_distribution(p).lambda1
    assert theta < 1e-154
    lower, _, upper = (band.tolist() for band in bands(p))
    assert sisq.spectral._flux_sweep(theta * (1.0 - 1e-13), upper, lower, 1.0)[0]
    assert not sisq.spectral._flux_sweep(theta * (1.0 + 1e-13), upper, lower, 1.0)[0]
