"""Spectral route to the quasi-stationary distribution of the SIS chain.

The transient generator Q is similar to a symmetric tridiagonal matrix via
the detailed-balance weights, so its spectrum is real, simple, and
negative.  The quasi-stationary distribution is the normalized left
eigenvector of the dominant eigenvalue lambda1, the mean absorption time
from quasi-stationarity is 1/(gamma * q[1]) = -1/lambda1, and survival
from a quasi-stationary start is exactly exponential with rate -lambda1.

Two solvers live here.  The dominant pair is computed by a flux-form
recurrence plus bisection on the decay rate theta = -lambda1: summing the
left-eigenvector equations telescopes them into an all-positive recurrence
whose last residual changes sign exactly at theta.  The bisection runs in
two phases: a binary search over the exponent k finds the factor-2 bracket
[gamma / 2^k, gamma / 2^(k-1)] around theta, bounded below by the
theta = 0 sweep, and a geometric bisection then narrows it.  The bracket
is exactly the one a halving walk down from gamma would reach, so the
search only saves sweeps and never moves a bit of the result.  Below
theta ~ 1e-154 the bisection stops early (see _solve_dominant_flux).
Because no cancellation ever occurs, lambda1 and the head of the
eigenvector retain full relative accuracy even when |lambda1| is hundreds
of orders of magnitude below the matrix norm, a regime where any
residual-based eigensolver returns pure rounding noise.  The full
decomposition, needed only for propagators and identity checks at modest
n, is delegated to scipy's eigh_tridiagonal, whose default driver picks
LAPACK's divide-and-conquer stevd for a full spectrum; scipy.linalg is
imported there, so only the dense route loads it.  One basis of n^2
doubles stays resident, for the last parameter set asked for; it is
dropped before the eigensolve for another set starts.  stevd's own n x n
workspace sits beside the n x n basis it returns, so a cold dense call
peaks at about 2 n^2 doubles whatever was cached before and whatever order
the propagator is assembled in.  The driver is left at scipy's default
because another one would round every dense row differently.  The dense
route is refused where stationary_distribution(p) has a zero entry or a
symmetrized off-diagonal product b_i * d_{i+1} overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sisq.chain import ModelParams, check_state, rates
from sisq.stationary import _log_mean_times, log_stationary_weights, stationary_distribution

__all__ = [
    "ConvergenceError",
    "SpectralResult",
    "quasi_stationary_distribution",
    "expected_time_qsd",
    "full_decomposition",
    "transition_matrix",
    "conditioned_distribution",
]

# Bracket tolerance (relative) and iteration budget of the bisection.
_BRACKET_RTOL = 1e-12
_MAX_BISECTIONS = 2000

# Reject parameter sets whose eigenvalue magnitude would underflow double
# precision: the normalizing flux sum S satisfies |lambda1| = gamma / S.
_MAX_LOG_FLUX_SUM = 280.0 * math.log(10.0)


class ConvergenceError(RuntimeError):
    """An eigenvalue solve failed to reach its documented tolerance."""

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class SpectralResult:
    """Dominant eigenpair of the transient generator.

    Attributes:
        lambda1: dominant (algebraically largest) eigenvalue, < 0.
        qsd: quasi-stationary distribution over states 1..n (entry k is
            state k + 1); strictly positive, sums to 1.
    """

    lambda1: float
    qsd: np.ndarray

    def __post_init__(self) -> None:
        qsd = np.asarray(self.qsd, dtype=float)
        qsd.flags.writeable = False
        object.__setattr__(self, "qsd", qsd)


def _flux_sweep(
    theta: float, upper: list, lower: list, gamma: float, out: np.ndarray | None = None
) -> tuple[bool, float]:
    """One pass of the telescoped left-eigenvector recurrence.

    With v[1] = 1 and S_j the running sum, the recurrence

        v[j+1] = (b_j * v[j] + gamma - theta * S_j) / d_{j+1}

    keeps every term nonnegative exactly when theta is at most the true
    decay rate; the sign of the final residual gamma - theta * S_n is the
    bisection predicate.  Returns (theta_below_true_rate, S_n), or
    (False, S_j) as soon as a term leaves (0, inf).

    The loop runs on Python floats (v[j] in a local, the rates as lists),
    so no numpy scalar enters the arithmetic; both are IEEE doubles
    rounded to nearest, so the bits are a numpy loop's.  Python's `/`
    raises on a zero divisor, but d_{j+1} is a death rate, never zero; an
    overflow still yields inf, which the exit test catches.  No vector is
    kept unless the caller passes an n-vector `out`, which receives
    v[1..n] (partly, on an early exit); the solver does that once per
    solve, at the accepted rate.
    """
    vn = 1.0
    s = 1.0
    if out is not None:
        out[0] = vn
    k = 0
    for b, d in zip(upper, lower):
        vn = (b * vn + gamma - theta * s) / d
        if not vn > 0.0 or vn == math.inf:
            return False, s
        s += vn
        if out is not None:
            k += 1
            out[k] = vn
    return gamma - theta * s > 0.0, s


def _scaled_flux_sum(p: ModelParams) -> tuple[int, ModelParams, float]:
    """(m, p', log S(0)): the binary exponent m of gamma, the model with
    both rates scaled by 2^-m, and the log of its flux sum at theta = 0.

    Raises:
        OverflowError: S(0) passes _MAX_LOG_FLUX_SUM, so |lambda1| ~
            gamma / S(0) underflows double precision.
    """
    m = math.frexp(p.gamma)[1] - 1
    p = ModelParams(p.n, math.ldexp(p.lam, -m), math.ldexp(p.gamma, -m))
    log_s0 = float(_log_mean_times(p)[-1])
    if log_s0 > _MAX_LOG_FLUX_SUM:
        raise OverflowError(
            "dominant eigenvalue magnitude ~ gamma*exp(-%.4g) underflows double "
            "precision at these parameters; the spectral route cannot represent it"
            % log_s0
        )
    return m, p, log_s0


def _solve_dominant_flux(p: ModelParams) -> tuple[float, np.ndarray]:
    """Dominant decay rate theta = -lambda1 and QSD by flux bisection.

    Two phases.  The first brackets theta* between gamma / 2^k and
    gamma / 2^(k-1) for the smallest k >= 1 whose sweep lies below the
    rate.  The second bisects that bracket geometrically to _BRACKET_RTOL,
    or until the midpoint sqrt(lo * hi) leaves it: once the scaled theta*
    is below about 1e-154 the product is subnormal, and below about
    1.6e-162 no step runs.  The polished theta there is still within
    1e-13 of the sign change, as the tests check from (450, 5) up.
    Neither keeps a sweep's terms: one more sweep at the accepted lower
    end forms the eigenvector, and theta is polished to gamma / S_n.

    The first phase is a binary search over the integer k rather than a
    halving walk down from gamma.  The theta = 0 sweep bounds theta* from
    below by gamma / S(0), so k_hi = ceil(log S(0) / ln 2) + 1 sits at
    least a factor 2 below theta*, where the sweep predicate is robustly
    true.  Every point the search tests is either one the halving walk
    would also test or lies below gamma / 2^(k+1), so it finds the same k.
    ldexp(gamma, -k) is the value the walk reaches by k exact halvings
    (exact while it is a normal float, which the _MAX_LOG_FLUX_SUM refusal
    ensures, gamma being scaled into [1, 2) as below).  So the bracket,
    and hence lambda1 and the QSD, are bit-identical to the walk's, while
    its log2(gamma / theta*) sweeps shrink to about log2 of that.
    S(0) = gamma * E_n[T] is the last entry of stationary._log_mean_times,
    read and refused by _scaled_flux_sum, which compare also calls before
    its first solve; the theta = 0 terms bound every other sweep's, so
    none overflows.

    Both phases run on the rates scaled by 2^-m, with m the binary
    exponent of gamma, so the scaled gamma lies in [1, 2).  theta is
    homogeneous of degree 1 in the rates and the QSD of degree 0, and a
    power-of-two scaling is exact, so the result is unchanged wherever the
    unscaled sweep stayed in the normal double range; far from gamma = 1
    it keeps the products b_j * v_j and the bisection midpoints
    sqrt(lo * hi) from overflowing or underflowing.

    n = 1 needs no case of its own: the sweep takes no step, so S_n = 1,
    every trial below gamma lies below the rate, and the polish returns
    theta = gamma and qsd = [1] exactly.

    Raises:
        OverflowError: the flux sum or theta itself leaves the normal
            double range.
        ConvergenceError: the sweep at gamma / 2^k_hi is not below the
            rate, so the lower bound failed; iterations is the sweep count.
    """
    m, p, log_s0 = _scaled_flux_sum(p)
    n = p.n
    gamma = p.gamma
    births, deaths = rates(p)
    upper = births[1:n]
    lower = deaths[2:]
    # Phase 1: smallest k in (k_lo, k_hi] whose sweep is below the rate.
    k_lo = 0
    k_hi = math.ceil(log_s0 / math.log(2.0)) + 1
    below, _ = _flux_sweep(math.ldexp(gamma, -k_hi), upper, lower, gamma)
    sweeps = 1
    if not below:
        raise ConvergenceError(
            "flux sweep at the lower bound gamma / 2^%d is not below the decay rate"
            % k_hi,
            iterations=sweeps,
        )
    while k_hi - k_lo > 1:
        k = (k_lo + k_hi) // 2
        below, _ = _flux_sweep(math.ldexp(gamma, -k), upper, lower, gamma)
        sweeps += 1
        if below:
            k_hi = k
        else:
            k_lo = k
    lo = math.ldexp(gamma, -k_hi)
    hi = math.ldexp(gamma, -k_hi + 1)
    # Phase 2: geometric bisection of the factor-2 bracket.
    for _ in range(_MAX_BISECTIONS):
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        below, _ = _flux_sweep(mid, upper, lower, gamma)
        if below:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BRACKET_RTOL * hi:
            break
    else:
        raise ConvergenceError(
            f"flux bisection did not reach bracket tolerance {_BRACKET_RTOL:g}",
            iterations=sweeps + _MAX_BISECTIONS,
        )
    # The accepted rate's terms, once: the sweep is deterministic, so this
    # pass repeats the bits of the one that accepted lo.
    v = np.empty(n)
    _, s = _flux_sweep(lo, upper, lower, gamma, v)
    # Polish: at the converged sweep the eigen-identity pins theta to
    # gamma / S_n, which lands inside (lo, theta*] and makes the reported
    # pair satisfy lambda1 = -gamma * qsd[0] to rounding by construction.
    theta = math.ldexp(gamma / s, m)
    if not theta >= sys.float_info.min:
        raise OverflowError(
            "dominant eigenvalue magnitude underflows the normal double range "
            "at these parameters; the spectral route cannot represent it"
        )
    return theta, v / s


@lru_cache(maxsize=128)
def _dominant_cached(p: ModelParams) -> SpectralResult:
    theta, qsd = _solve_dominant_flux(p)
    return SpectralResult(lambda1=-theta, qsd=qsd)


def quasi_stationary_distribution(p: ModelParams) -> SpectralResult:
    """Quasi-stationary distribution and dominant eigenvalue of the chain.

    The result satisfies q @ Q = lambda1 * q with q strictly positive and
    summing to 1, and lambda1 equals -gamma times the first entry of q to
    rounding.  Results are cached per parameter set and immutable.

    Raises:
        OverflowError: |lambda1| is not a normal double (extinction
            time beyond ~1e280 / gamma, or gamma itself near the bottom of
            the double range); no double-precision result exists.
        ConvergenceError: bisection failed (not expected for valid
            parameters).
    """
    return _dominant_cached(p)


def expected_time_qsd(p: ModelParams) -> float:
    """Mean absorption time from a quasi-stationary start.

    Equals the reciprocal of gamma times the first QSD entry, which is
    also -1/lambda1.

    Raises:
        OverflowError: as quasi_stationary_distribution, or when that
            reciprocal is beyond the normal double range.
    """
    r = quasi_stationary_distribution(p)
    rate = p.gamma * float(r.qsd[0])
    if not rate >= sys.float_info.min:
        raise OverflowError(
            "mean absorption time 1/(gamma * q1) overflows double precision "
            "at these parameters"
        )
    return 1.0 / rate


def full_decomposition(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of the symmetrized generator, descending order.

    That is W^(1/2) Q W^(-1/2), W the detailed-balance weights: Q's
    diagonal -(b_i + d_i), and off-diagonal sqrt(b_i * d_{i+1}), with
    b and d the rates of chain.rates.

    Returns (eigenvalues, basis): the eigenvalues in descending order and
    the orthonormal eigenvectors (to 1e-10, LAPACK) as the columns of
    basis, in the same order.

    Refused with ValueError, before any O(n^2) allocation, where
    stationary_distribution(p) has a zero entry or a product b_i * d_{i+1}
    overflows.  The first is the dense route's only limit on n: the
    largest accepted n is 439 at R0 = 0.5, 778 at 1.05, 891 at 1.2, 1488
    at 2 and 925 at 5.  No n above about 2,030 is accepted at any R0 (that
    one near R0 = e), because the log-weights span at least about n/e nats
    and exp underflows past 745.  The second refuses rates that
    ModelParams accepts but whose products pass the double range (near
    1e154 and above); the product is not split into sqrt(b_i) * sqrt(d_{i+1}),
    which would round accepted off-diagonals differently.
    """
    from scipy.linalg import eigh_tridiagonal
    if not np.all(stationary_distribution(p) > 0.0):
        raise ValueError(
            "detailed-balance weight span exceeds double precision; the dense "
            "spectral route is unavailable at these parameters"
        )
    b, d = map(np.array, rates(p))
    with np.errstate(over="ignore"):
        off = b[1:-1] * d[2:]
    if not np.all(np.isfinite(off)):
        raise ValueError(
            "an off-diagonal product b_i * d_(i+1) of the symmetrized generator "
            "exceeds the double range; the dense spectral route is unavailable "
            "at these parameters"
        )
    evals, evecs = eigh_tridiagonal(-(b[1:] + d[1:]), np.sqrt(off))
    return evals[::-1], evecs[:, ::-1]


# One slot, keyed by the parameters: every caller walks t for one
# parameter set at a time.  A miss empties it before the eigensolve, so
# one basis of n^2 doubles stays resident, and a cold call peaks at
# stevd's own 2 n^2 doubles whatever was cached before; lru_cache would
# evict the old basis only after the new one was built, 3 n^2 at the peak.
_parts: dict[ModelParams, tuple[np.ndarray, np.ndarray]] = {}


def _propagate(p: ModelParams, t: float, rows: int | slice) -> np.ndarray:
    """Rows of exp(Q t) (0-based index or slice), clipped to [0, 1].

    Assembled from the spectral decomposition as
    W^(-1/2) U exp(Lambda t) U^T W^(1/2), so one row costs O(n^2) once
    the decomposition is cached.
    """
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    parts = _parts.get(p)
    if parts is None:
        _parts.clear()
        parts = _parts[p] = full_decomposition(p)
    evals, basis = parts
    lw = log_stationary_weights(p)
    sqw = np.exp(0.5 * (lw - lw.max()))
    return np.clip(
        (basis[rows] * np.exp(evals * t)) @ basis.T * (sqw / sqw[rows, None]),
        0.0, 1.0,
    )


def transition_matrix(p: ModelParams, t: float) -> np.ndarray:
    """Dense matrix exp(Q t) over the transient states, entry (i-1, j-1).

    Entries are clipped to [0, 1], where roundoff can stray by a few ulp.
    """
    return _propagate(p, t, slice(None))


def conditioned_distribution(p: ModelParams, t: float, i: int) -> np.ndarray:
    """Distribution of Y(t) given survival to t and Y(0) = i; sums to 1."""
    row = _propagate(p, t, check_state(p, i) - 1)
    total = row.sum()
    if total <= 0.0:
        raise ValueError(f"survival probability underflowed at t={t!r}")
    return row / total

