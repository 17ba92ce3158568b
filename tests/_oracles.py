"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written by a different route than the
library code it checks: dense matrices instead of banded storage, a
Poisson-series propagator instead of the spectral one, raw ratio
recurrences instead of log-gamma closed forms, LAPACK's stebz/stein
eigenpair instead of the flux recurrence.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from sisq.chain import ModelParams, build_transient_generator
from sisq.spectral import ConvergenceError, SymmetrizedGenerator


def dense_transient(p: ModelParams) -> np.ndarray:
    """Dense n x n copy of the transient generator."""
    g = build_transient_generator(p)
    q = np.diag(g.diag)
    if p.n > 1:
        q += np.diag(g.upper, 1) + np.diag(g.lower, -1)
    return q


def dense_full(p: ModelParams) -> np.ndarray:
    """Dense generator over all states 0..n, absorbing state included."""
    n = p.n
    q = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        b = p.lam * i * (n - i) / n
        d = p.gamma * i
        q[i, i] = -(b + d)
        q[i, i - 1] = d
        if i < n:
            q[i, i + 1] = b
    return q


def uniformization(q: np.ndarray, t: float, tail: float = 1e-14) -> np.ndarray:
    """exp(q*t) as a Poisson-weighted power series of I + q/rate.

    Works for any generator or sub-generator with bounded diagonal; the
    series is truncated once the remaining Poisson mass drops below
    `tail`.  Completely independent of the spectral route.
    """
    dim = q.shape[0]
    rate = max(-q.diagonal().min(), 1e-12) * 1.0000001
    a = np.eye(dim) + q / rate
    mu = rate * t
    weight = math.exp(-mu)
    acc = weight * np.eye(dim)
    power = np.eye(dim)
    covered = weight
    k = 0
    while covered < 1.0 - tail:
        k += 1
        weight *= mu / k
        power = power @ a
        acc += weight * power
        covered += weight
        if k > mu + 50.0 * math.sqrt(mu + 1.0) + 1000:
            raise RuntimeError("poisson series failed to converge")
    return acc


def ratio_log_weights(p: ModelParams) -> np.ndarray:
    """Unnormalized stationary log-weights via the one-step ratio recurrence.

    log w_1 = 0, log w_{i+1} = log w_i + log(b_i / d_{i+1}); a different
    derivation path than the closed-form log-gamma expression used by the
    library.
    """
    out = np.zeros(p.n)
    for i in range(1, p.n):
        b = p.lam * i * (p.n - i) / p.n
        d = p.gamma * (i + 1)
        out[i] = out[i - 1] + math.log(b) - math.log(d)
    return out


def _tridiag_norm_inf(diag: np.ndarray, offdiag: np.ndarray) -> float:
    rs = np.abs(diag).copy()
    if offdiag.size:
        rs[:-1] += np.abs(offdiag)
        rs[1:] += np.abs(offdiag)
    return float(rs.max())


def dominant_eigenpair(s: SymmetrizedGenerator) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its unit eigenvector, all entries one sign.

    Delegates to LAPACK's Sturm-count bisection and inverse iteration
    (stebz/stein).  The residual is checked against the documented bound
    1e-10 * ||S||.

    Returns:
        (lambda1, u1) with u1 normalized to unit Euclidean norm and
        oriented positive.
    """
    if s.n == 1:
        return float(s.diag[0]), np.ones(1)
    evals, evecs = eigh_tridiagonal(
        s.diag, s.offdiag, select="i", select_range=(s.n - 1, s.n - 1)
    )
    lam1 = float(evals[0])
    u1 = evecs[:, 0]
    if u1[np.argmax(np.abs(u1))] < 0.0:
        u1 = -u1
    resid = np.abs(
        s.diag * u1
        + np.concatenate((s.offdiag * u1[1:], [0.0]))
        + np.concatenate(([0.0], s.offdiag * u1[:-1]))
        - lam1 * u1
    ).max()
    bound = 1e-10 * _tridiag_norm_inf(s.diag, s.offdiag)
    if resid > bound:
        raise ConvergenceError(
            f"dominant eigenpair residual {resid:.3e} exceeds {bound:.3e}"
        )
    return lam1, u1
