"""Diffusion-limit route: normal approximations for the supercritical chain.

For R0 = lambda/gamma > 1 the scaled infective fraction concentrates at
the endemic equilibrium y_hat = 1 - 1/R0, and the fluctuation around it is
asymptotically Gaussian.  This module carries the endemic equilibrium
with the drift derivative and diffusion coefficient there, the variance
ODE with its closed-form solution, the resulting normal law
N(mu_n, sigma2_n) for the infective count, and the approximations to the
first QSD entry and the mean extinction time that follow from it.

Everything here presupposes R0 > 1; at or below criticality the endemic
equilibrium collapses to 0 and the formulas are meaningless, so those
parameters are rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sisq.chain import ModelParams, _is_integer

__all__ = [
    "LogValue",
    "EndemicSummary",
    "variance_at",
    "integrate_variance_ode",
    "endemic_normal",
    "q1_normal_approx",
    "expected_time_clt",
]


@dataclass(frozen=True)
class LogValue:
    """A positive scalar carried by its logarithm.

    The natural value is exposed as a property so that overflow surfaces
    as the usual OverflowError from math.exp rather than silently turning
    into inf; underflow follows math.exp and degrades to 0.0.
    """

    log: float

    @property
    def value(self) -> float:
        return math.exp(self.log)


@dataclass(frozen=True)
class EndemicSummary:
    """Endemic equilibrium and the normal law around it.

    Attributes:
        y_hat: equilibrium infected fraction, 1 - 1/R0.
        dF_hat: drift derivative at the equilibrium, -(lambda - gamma).
        g_hat: diffusion coefficient at the equilibrium,
            2*(gamma/lambda)*(lambda - gamma).
        sigma2_inf: limiting scaled variance, gamma/lambda.
        mu_n: mean infective count, (1 - 1/R0)*n.
        sigma2_n: infective count variance, n/R0.
    """

    y_hat: float
    dF_hat: float
    g_hat: float
    sigma2_inf: float
    mu_n: float
    sigma2_n: float


def _require_supercritical(p: ModelParams) -> None:
    if p.lam <= p.gamma:
        raise ValueError(
            f"R0 = {p.r0!r} but the diffusion-limit route requires R0 > 1: "
            "the endemic equilibrium 1 - 1/R0 must be positive"
        )


def endemic_normal(p: ModelParams) -> EndemicSummary:
    """Endemic equilibrium summary and the normal law N(mu_n, sigma2_n).

    g_hat is constructed as -2 * dF_hat * sigma2_inf so the stationary
    Lyapunov relation -g_hat = 2 * dF_hat * sigma2_inf holds exactly in
    floating point; it agrees with the diffusion coefficient
    lambda*y*(1-y) + gamma*y at y_hat to rounding.

    Raises:
        ValueError: R0 <= 1.
    """
    _require_supercritical(p)
    sigma2_inf = p.gamma / p.lam
    y_hat = 1.0 - sigma2_inf
    dF_hat = -(p.lam - p.gamma)
    g_hat = -2.0 * dF_hat * sigma2_inf
    return EndemicSummary(
        y_hat=y_hat,
        dF_hat=dF_hat,
        g_hat=g_hat,
        sigma2_inf=sigma2_inf,
        mu_n=y_hat * p.n,
        sigma2_n=p.n * sigma2_inf,
    )


def variance_at(t: float, p: ModelParams) -> float:
    """Closed-form scaled variance (gamma/lambda)*(1 - exp(-2(lambda-gamma)t)).

    Monotone increasing from 0 at t = 0 to the limit gamma/lambda, which
    it returns at t = inf.

    Raises:
        ValueError: R0 <= 1, or t is negative or NaN.
    """
    _require_supercritical(p)
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    return -(p.gamma / p.lam) * math.expm1(-2.0 * (p.lam - p.gamma) * t)


def integrate_variance_ode(
    t_max: float, p: ModelParams, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 solution of the fluctuation-variance ODE.

    Integrates d(sigma2)/dt = g_hat + 2*dF_hat*sigma2 from sigma2(0) = 0,
    with the drift derivative and diffusion held at the endemic
    equilibrium.

    Args:
        t_max: integration horizon, positive and finite.
        p: model parameters with R0 > 1.
        steps: number of RK4 steps, an integer >= 10 (bool excluded).

    Returns:
        (times, sigma2) arrays of length steps + 1.

    Raises:
        ValueError: R0 <= 1, t_max not positive and finite, or steps not
            an integer >= 10.
    """
    summ = endemic_normal(p)
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if not _is_integer(steps) or steps < 10:
        raise ValueError(f"steps must be an integer >= 10, got {steps!r}")
    steps = int(steps)
    a = 2.0 * summ.dF_hat
    b = summ.g_hat

    def rhs(sig2: float) -> float:
        return b + a * sig2

    h = t_max / steps
    ts = np.linspace(0.0, t_max, steps + 1)
    out = np.empty(steps + 1)
    out[0] = 0.0
    sig2 = 0.0
    for k in range(steps):
        k1 = rhs(sig2)
        k2 = rhs(sig2 + 0.5 * h * k1)
        k3 = rhs(sig2 + 0.5 * h * k2)
        k4 = rhs(sig2 + h * k3)
        sig2 += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = sig2
    return ts, out


def q1_normal_approx(p: ModelParams) -> LogValue:
    """Normal-law approximation to the first QSD entry.

    Evaluates the N(mu_n, sigma2_n) density at the point 1 and divides by
    the probability the law assigns to the state band [1/2, n + 1/2].
    Everything is done in log space; the denominator uses the
    complementary form 1 - Phi(-z_hi) - Phi(z_lo), whose tail terms
    underflow harmlessly when the band covers nearly all the mass.

    The normal law has the wrong exponential rate in n at state 1, so the
    relative error against the true q1 does not vanish as n grows: it
    tends to 1 at fixed R0 (README, "Testing").

    Raises:
        ValueError: n = 1, where a normal law over a single state is
            meaningless, or R0 <= 1.
    """
    from scipy.special import ndtr  # here, so that simulate never loads it

    if p.n == 1:
        raise ValueError("n = 1 leaves no room for a normal approximation")
    summ = endemic_normal(p)
    sigma = math.sqrt(summ.sigma2_n)
    z1 = (1.0 - summ.mu_n) / sigma
    log_num = -0.5 * z1 * z1 - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)
    z_hi = (p.n + 0.5 - summ.mu_n) / sigma
    z_lo = (0.5 - summ.mu_n) / sigma
    tail = float(ndtr(-z_hi)) + float(ndtr(z_lo))
    log_den = math.log1p(-tail)
    return LogValue(log=log_num - log_den)


def expected_time_clt(p: ModelParams) -> LogValue:
    """Diffusion-limit approximation to the mean extinction time.

    Returns 1/(gamma * q1_normal_approx) as a LogValue; the log form is
    always finite, and reading .value on an overflowing result raises
    OverflowError.

    It inherits the wrong exponential rate in n of q1_normal_approx, so
    its relative error does not vanish as n grows: it overstates the mean
    extinction time by a factor that grows exponentially in n.

    Raises:
        ValueError: as q1_normal_approx, whose refusals it inherits: n = 1
            or R0 <= 1.
    """
    q1 = q1_normal_approx(p)
    return LogValue(log=-math.log(p.gamma) - q1.log)
