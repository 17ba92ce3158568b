"""Equilibrium of the restart-at-one SIS chain and the exact mean extinction time.

When the chain is restarted at state 1 upon every extinction it becomes an
ergodic birth-death process on {1, ..., n}, whose equilibrium distribution
follows from detailed balance:

    pi[i+1] / pi[i] = b_i / d_{i+1}
                    = (i / (i+1)) * (lambda / (n*gamma)) * (n - i)

with b_i and d_i the birth and death rates of chain.rates.  The exact
mean time to extinction of the plain chain started from state 1 is
1 / (gamma * pi[1]).  Everything is accumulated in log space: the
unnormalized weights span hundreds of orders of magnitude once n is large
and R0 > 1, and (n-1)! alone overflows double precision past n = 170.
scipy.special is imported by the functions that call it, so the simulate
commands, which call none of them, never load it.
"""

from __future__ import annotations

import math

import numpy as np

from sisq.chain import ModelParams

__all__ = [
    "stationary_distribution",
    "log_stationary_weights",
    "exact_expected_extinction_time",
    "log_expected_extinction_time",
    "check_probability_vector",
]


def check_probability_vector(values: np.ndarray, n: int) -> np.ndarray:
    """Validate a distribution over states 1..n (entry k is state k+1).

    Entries must be nonnegative and sum to 1 within 1e-12 absolute.
    Returns the validated array as float64.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"probability vector must have length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise ValueError("probability vector entries must be finite and >= 0")
    s = v.sum()
    if abs(s - 1.0) > 1e-12:
        raise ValueError(f"probability vector must sum to 1 within 1e-12, got {s!r}")
    return v


def log_stationary_weights(p: ModelParams) -> np.ndarray:
    """Log of the unnormalized detailed-balance weights, state 1 pinned at 0.

    Entry k is log w[k+1] with

        w[i] = (lambda/(n*gamma))**(i-1) * (n-1)! / ((n-i)! * i),

    the closed form of the detailed-balance recurrence, written with
    log-gamma so no factorial is ever formed.  w[1] = 1 exactly.
    """
    from scipy.special import gammaln

    n = p.n
    i = np.arange(1, n + 1, dtype=float)
    return (
        (i - 1.0) * math.log(p.lam / (n * p.gamma))
        + gammaln(n)
        - gammaln(n - i + 1.0)
        - np.log(i)
    )


def stationary_distribution(p: ModelParams) -> np.ndarray:
    """Equilibrium distribution pi of the restarted chain over states 1..n.

    Args:
        p: model parameters.

    Returns:
        Length-n array, entry k is the equilibrium probability of state
        k + 1.  Normalized with the log-sum-exp pattern.
    """
    from scipy.special import logsumexp

    logw = log_stationary_weights(p)
    pi = np.exp(logw - logsumexp(logw))
    return pi / pi.sum()


def _log_mean_times(p: ModelParams) -> np.ndarray:
    """log(gamma * E_i[T]) for each start state i (entry k is state k + 1).

    gamma * E_i[T] = sum_{j<=i} w_j P_j + P_i sum_{j>i} w_j, with w the
    weights and P_i = sum_{k<=i} 1 / (k w_k) (Karlin & McGregor 1957), in
    one O(n) pass of numpy's logaddexp: scipy's logsumexp, which
    log_expected_extinction_time keeps for its last bit, maps in ~0.45 MB
    of code on its first call in a process (scipy 1.17, x86-64 Linux).
    """
    lw = log_stationary_weights(p)
    log_p = np.logaddexp.accumulate(-np.log(np.arange(1.0, p.n + 1)) - lw)
    out = np.logaddexp.accumulate(lw + log_p)
    out[:-1] = np.logaddexp(out[:-1], log_p[:-1] + np.logaddexp.accumulate(lw[:0:-1])[::-1])
    return out


def log_expected_extinction_time(p: ModelParams) -> float:
    """Log of the exact mean extinction time from state 1.

    The identity 1/(gamma*pi[1]) turns the normalizer of the stationary
    distribution directly into the expected time, so the log form is a
    single log-sum-exp and is always finite.
    """
    from scipy.special import logsumexp

    logw = log_stationary_weights(p)
    return float(logsumexp(logw)) - math.log(p.gamma)


def exact_expected_extinction_time(p: ModelParams) -> float:
    """Exact mean time to extinction from state 1, equal to 1/(gamma*pi[1]).

    Raises:
        OverflowError: when the value exceeds double precision; the log
            form remains available via log_expected_extinction_time.
    """
    log_t = log_expected_extinction_time(p)
    try:
        return math.exp(log_t)
    except OverflowError:
        raise OverflowError(
            f"mean extinction time exp({log_t:.6g}) exceeds double precision; "
            "use log_expected_extinction_time"
        ) from None
