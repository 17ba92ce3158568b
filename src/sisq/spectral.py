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
two phases: a binary search over the exponent k finds the factor-2
bracket [gamma / 2^k, gamma / 2^(k-1)] around theta, bounded below by the
theta = 0 sweep, and a geometric bisection then narrows it.  The bracket
is exactly the one a halving walk down from gamma would reach, so the
search only saves sweeps and never moves a bit of the result.  Because no
cancellation ever occurs, lambda1 and the head of the eigenvector retain
full relative accuracy even when |lambda1| is hundreds of orders of
magnitude below the matrix norm, a regime where any residual-based
eigensolver returns pure rounding noise.  The full decomposition, needed
only for propagators and identity checks at modest n, is delegated to
LAPACK's Sturm-count bisection and inverse iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import logsumexp

from sisq.chain import ModelParams, build_transient_generator
from sisq.stationary import log_stationary_weights

__all__ = [
    "ConvergenceError",
    "SizeCapError",
    "SymmetrizedGenerator",
    "SpectralResult",
    "symmetrize",
    "quasi_stationary_distribution",
    "expected_time_qsd",
    "survival_probability",
    "full_decomposition",
    "transition_matrix",
    "transition_probability",
    "conditioned_distribution",
    "conditioned_probability",
    "FULL_DECOMPOSITION_SIZE_CAP",
]

# Dense eigenvector storage is O(n^2); the full spectrum only serves
# propagator evaluation and identity checks, for which this is ample.
FULL_DECOMPOSITION_SIZE_CAP = 4096

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


class SizeCapError(ValueError):
    """Dense spectral work refused beyond FULL_DECOMPOSITION_SIZE_CAP."""


@dataclass(frozen=True)
class SymmetrizedGenerator:
    """Symmetric tridiagonal matrix similar to the transient generator.

    The similarity transform by the square root of the detailed-balance
    weights W leaves the diagonal unchanged and turns each off-diagonal
    pair into sqrt(birth_rate(i) * death_rate(i+1)); that product form
    depends only on the rates, so it never suffers the underflow that the
    weights themselves are prone to.

    Attributes:
        n: dimension.
        diag: main diagonal, length n.
        offdiag: off-diagonal, length n - 1, strictly positive.
        log_weights: log of the detailed-balance weights W, shifted so the
            maximum entry is 0.  Kept in log form because the weights
            themselves span hundreds of orders of magnitude.
    """

    n: int
    diag: np.ndarray
    offdiag: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("diag", "offdiag", "log_weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SpectralResult:
    """Dominant eigenpair of the transient generator, optionally full.

    Attributes:
        lambda1: dominant (algebraically largest) eigenvalue, < 0.
        qsd: quasi-stationary distribution over states 1..n (entry k is
            state k + 1); strictly positive, sums to 1.
        eigenvalues: full spectrum in descending order, or None.
        basis: orthonormal eigenvectors of the symmetrized matrix as
            columns, ordered like eigenvalues, or None.
    """

    lambda1: float
    qsd: np.ndarray
    eigenvalues: np.ndarray | None = None
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("qsd", "eigenvalues", "basis"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)


def symmetrize(p: ModelParams) -> SymmetrizedGenerator:
    """Similarity-transform the transient generator by the stationary weights.

    The weights are the closed-form log_stationary_weights(p); nothing is
    exponentiated here, so this never fails for valid parameters.  Whether
    the weights fit double precision is checked by full_decomposition,
    the one consumer that needs them outside log space.

    Returns:
        SymmetrizedGenerator with the same spectrum as the generator.
    """
    g = build_transient_generator(p)
    log_w = log_stationary_weights(p)
    return SymmetrizedGenerator(
        n=g.n,
        diag=g.diag,
        offdiag=np.sqrt(g.upper * g.lower),
        log_weights=log_w - log_w.max(),
    )


def _log_flux_sum_at_zero(p: ModelParams) -> float:
    """Log of the flux sum S at trial rate theta = 0, an upper bound in theta.

    The theta = 0 sweep dominates every other trial value entry-wise, so
    it certifies that the double-precision bisection below cannot
    overflow mid-sweep.  In closed form its terms are
    v_j = w_j * (1 + sum_{k<j} gamma / (b_k * w_k)) with w the
    detailed-balance weights (w_1 = 1) and b_k the birth rates, so S(0) is
    a running logaddexp and one log-sum-exp over log_stationary_weights.
    """
    lw = log_stationary_weights(p)
    g = build_transient_generator(p)
    terms = np.concatenate(([0.0], math.log(p.gamma) - np.log(g.upper) - lw[:-1]))
    # numpy's reduce rather than scipy's logsumexp: every QSD solve runs
    # this, and the first logsumexp call in a process maps in ~0.45 MB of
    # code (scipy 1.17, x86-64 Linux).
    return float(np.logaddexp.reduce(lw + np.logaddexp.accumulate(terms)))


def _flux_sweep(
    theta: float, upper: list, lower: list, gamma: float, n: int
) -> tuple[bool, np.ndarray | None, float]:
    """One pass of the telescoped left-eigenvector recurrence.

    With v[1] = 1 and S_j the running sum, the recurrence

        v[j+1] = (b_j * v[j] + gamma - theta * S_j) / d_{j+1}

    keeps every term nonnegative exactly when theta is at most the true
    decay rate; the sign of the final residual gamma - theta * S_n is the
    bisection predicate.  Returns (theta_below_true_rate, v, S_n).
    """
    v = np.empty(n)
    v[0] = 1.0
    s = 1.0
    for k in range(n - 1):
        vn = (upper[k] * v[k] + gamma - theta * s) / lower[k]
        if not vn > 0.0 or vn == math.inf:
            return False, None, s
        v[k + 1] = vn
        s += vn
    return gamma - theta * s > 0.0, v, s


def _solve_dominant_flux(p: ModelParams) -> tuple[float, np.ndarray]:
    """Dominant decay rate theta = -lambda1 and QSD by flux bisection.

    Two phases.  The first brackets theta* between gamma / 2^k and
    gamma / 2^(k-1) for the smallest k >= 1 whose sweep lies below the
    rate.  The second bisects that bracket geometrically to _BRACKET_RTOL
    and polishes theta to gamma / S_n.

    The first phase is a binary search over the integer k rather than a
    halving walk down from gamma.  The theta = 0 sweep bounds theta* from
    below by gamma / S(0), so k_hi = ceil(log S(0) / ln 2) + 1 sits at
    least a factor 2 below theta*, where the sweep predicate is robustly
    true.  Every point the search tests is either one the halving walk
    would also test or lies below gamma / 2^(k+1), so it finds the same k.
    ldexp(gamma, -k) is the value the walk reaches by k exact halvings
    (exact while it is a normal float, which the _MAX_LOG_FLUX_SUM refusal
    ensures for gamma above ~1e-27).  So the bracket, and hence lambda1
    and the QSD, are bit-identical to the walk's, while its
    log2(gamma / theta*) sweeps shrink to about log2 of that.

    Raises:
        ConvergenceError: the sweep at gamma / 2^k_hi is not below the
            rate, so the lower bound failed; iterations is the sweep count.
    """
    n = p.n
    gamma = p.gamma
    if n == 1:
        return gamma, np.ones(1)
    log_s0 = _log_flux_sum_at_zero(p)
    if log_s0 > _MAX_LOG_FLUX_SUM:
        raise OverflowError(
            "dominant eigenvalue magnitude ~ gamma*exp(-%.4g) underflows double "
            "precision at these parameters; the spectral route cannot represent it"
            % log_s0
        )
    g = build_transient_generator(p)
    upper = g.upper.tolist()
    lower = g.lower.tolist()
    # Phase 1: smallest k in (k_lo, k_hi] whose sweep is below the rate.
    k_lo = 0
    k_hi = math.ceil(log_s0 / math.log(2.0)) + 1
    below, v_lo, s_lo = _flux_sweep(math.ldexp(gamma, -k_hi), upper, lower, gamma, n)
    sweeps = 1
    if not below:
        raise ConvergenceError(
            "flux sweep at the lower bound gamma / 2^%d is not below the decay rate"
            % k_hi,
            iterations=sweeps,
        )
    while k_hi - k_lo > 1:
        k = (k_lo + k_hi) // 2
        below, v, s = _flux_sweep(math.ldexp(gamma, -k), upper, lower, gamma, n)
        sweeps += 1
        if below:
            k_hi, v_lo, s_lo = k, v, s
        else:
            k_lo = k
    lo = math.ldexp(gamma, -k_hi)
    hi = math.ldexp(gamma, -k_hi + 1)
    # Phase 2: geometric bisection of the factor-2 bracket.
    for _ in range(_MAX_BISECTIONS):
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        below, v, s = _flux_sweep(mid, upper, lower, gamma, n)
        if below:
            lo, v_lo, s_lo = mid, v, s
        else:
            hi = mid
        if hi - lo <= _BRACKET_RTOL * hi:
            break
    else:
        raise ConvergenceError(
            f"flux bisection did not reach bracket tolerance {_BRACKET_RTOL:g}",
            iterations=sweeps + _MAX_BISECTIONS,
        )
    # Polish: at the converged sweep the eigen-identity pins theta to
    # gamma / S_n, which lands inside (lo, theta*] and makes the reported
    # pair satisfy lambda1 = -gamma * qsd[0] to rounding by construction.
    theta = gamma / s_lo
    return theta, v_lo / s_lo


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
        OverflowError: |lambda1| underflows double precision (extinction
            time beyond ~1e280); no double-precision result exists.
        ConvergenceError: bisection failed (not expected for valid
            parameters).
    """
    return _dominant_cached(p)


def expected_time_qsd(p: ModelParams) -> float:
    """Mean absorption time from a quasi-stationary start.

    Equals the reciprocal of gamma times the first QSD entry, which is
    also -1/lambda1.
    """
    r = quasi_stationary_distribution(p)
    return 1.0 / (p.gamma * float(r.qsd[0]))


def survival_probability(p: ModelParams, t: float) -> float:
    """P(not yet extinct at time t) = exp(lambda1 * t).

    Assumes the process starts distributed as the quasi-stationary
    distribution; from that start the survival law is exactly
    exponential.

    Args:
        p: model parameters.
        t: elapsed time, >= 0.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    r = quasi_stationary_distribution(p)
    return math.exp(r.lambda1 * t)


def full_decomposition(s: SymmetrizedGenerator) -> SpectralResult:
    """All eigenpairs of the symmetrized generator, descending order.

    The quasi-stationary vector is recovered from the top eigenvector u1
    as u1 * W^(1/2), normalized to sum 1; eigenvectors are orthonormal to
    1e-10 (LAPACK).  Refused before any allocation above
    FULL_DECOMPOSITION_SIZE_CAP, and with ValueError when a normalized
    detailed-balance weight underflows double precision.  The second is
    the real limit: the largest accepted n is 439 at R0 = 0.5, 778 at
    1.05, 891 at 1.2, 1488 at 2 and 925 at 5.
    """
    if s.n > FULL_DECOMPOSITION_SIZE_CAP:
        raise SizeCapError(
            f"n={s.n} exceeds the dense decomposition cap "
            f"{FULL_DECOMPOSITION_SIZE_CAP}"
        )
    if not np.all(np.exp(s.log_weights - logsumexp(s.log_weights)) > 0.0):
        raise ValueError(
            "detailed-balance weight span exceeds double precision; the dense "
            "spectral route is unavailable at these parameters"
        )
    if s.n == 1:
        return SpectralResult(
            lambda1=float(s.diag[0]),
            qsd=np.ones(1),
            eigenvalues=s.diag.copy(),
            basis=np.ones((1, 1)),
        )
    evals, evecs = eigh_tridiagonal(s.diag, s.offdiag)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    u1 = evecs[:, 0]
    if u1[np.argmax(np.abs(u1))] < 0.0:
        u1 = -u1
        evecs = evecs.copy()
        evecs[:, 0] = u1
    q = u1 * np.exp(0.5 * s.log_weights)
    q = q / q.sum()
    return SpectralResult(
        lambda1=float(evals[0]), qsd=q, eigenvalues=evals, basis=evecs
    )


@lru_cache(maxsize=32)
def _propagator_parts(p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached (eigenvalues, right factors, left factors) for exp(Q t)."""
    if p.n > FULL_DECOMPOSITION_SIZE_CAP:
        raise SizeCapError(
            f"n={p.n} exceeds the dense decomposition cap "
            f"{FULL_DECOMPOSITION_SIZE_CAP}"
        )
    s = symmetrize(p)
    r = full_decomposition(s)
    sqw = np.exp(0.5 * s.log_weights)
    right = r.basis / sqw[:, None]
    left = r.basis * sqw[:, None]
    for arr in (r.eigenvalues, right, left):
        arr.flags.writeable = False
    return r.eigenvalues, right, left


def _propagate(p: ModelParams, t: float, rows: int | slice) -> np.ndarray:
    """Rows of exp(Q t) (0-based index or slice), clipped to [0, 1].

    Assembled from the spectral decomposition as
    sum_k exp(lambda_k t) (W^(-1/2) u_k)(u_k^T W^(1/2)), so one row costs
    O(n^2) once the decomposition is cached.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    evals, right, left = _propagator_parts(p)
    return np.clip((right[rows] * np.exp(evals * t)) @ left.T, 0.0, 1.0)


def transition_matrix(p: ModelParams, t: float) -> np.ndarray:
    """Dense matrix exp(Q t) over the transient states, entry (i-1, j-1).

    Entries are clipped to [0, 1], where roundoff can stray by a few ulp.
    """
    return _propagate(p, t, slice(None))


def transition_probability(p: ModelParams, t: float, i: int, j: int) -> float:
    """P(Y(t) = j and not yet extinct | Y(0) = i), states 1-based."""
    if not (1 <= i <= p.n and 1 <= j <= p.n):
        raise ValueError(f"states must lie in 1..{p.n}, got i={i}, j={j}")
    return float(_propagate(p, t, i - 1)[j - 1])


def conditioned_distribution(p: ModelParams, t: float, i: int) -> np.ndarray:
    """Distribution of Y(t) given survival to t and Y(0) = i; sums to 1."""
    if not 1 <= i <= p.n:
        raise ValueError(f"state must lie in 1..{p.n}, got {i}")
    row = _propagate(p, t, i - 1)
    total = row.sum()
    if total <= 0.0:
        raise ValueError(f"survival probability underflowed at t={t!r}")
    return row / total


def conditioned_probability(p: ModelParams, t: float, i: int, j: int) -> float:
    """P(Y(t) = j | survival to t, Y(0) = i), states 1-based."""
    if not 1 <= j <= p.n:
        raise ValueError(f"states must lie in 1..{p.n}, got j={j}")
    return float(conditioned_distribution(p, t, i)[j - 1])
