"""Quasi-stationary analysis of the SIS epidemic birth-death chain.

Four independent routes to the same quantities, meant to be checked
against one another:

- ``stationary``: closed-form equilibrium of the restart-at-one chain and
  the exact mean time to extinction.
- ``spectral``: dominant eigenpair and full spectral decomposition of the
  transient generator; quasi-stationary distribution and its mean
  absorption time.
- ``clt``: diffusion-limit (normal) approximations valid for R0 > 1.
- ``sim``: exact event-driven simulation used as the empirical oracle.

``chain`` holds the model definition shared by all of them, and ``cli``
exposes everything as a command-line tool.
"""

from sisq.chain import ModelParams, TransientGenerator, birth_rate, death_rate, build_transient_generator
from sisq.stationary import (
    exact_expected_extinction_time,
    log_expected_extinction_time,
    stationary_distribution,
)
from sisq.spectral import (
    ConvergenceError,
    SizeCapError,
    SpectralResult,
    SymmetrizedGenerator,
    expected_time_qsd,
    full_decomposition,
    quasi_stationary_distribution,
    survival_probability,
    symmetrize,
)
from sisq.clt import (
    EndemicSummary,
    LogValue,
    drift,
    drift_derivative,
    diffusion,
    endemic_normal,
    expected_time_clt,
    integrate_variance_ode,
    q1_normal_approx,
    variance_at,
)
from sisq.sim import (
    SeedSpec,
    Trajectory,
    ZeroSurvivorsError,
    conditioned_ensemble,
    empirical_occupancy,
    extinction_time_samples,
    simulate,
    simulate_restarted,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "TransientGenerator",
    "birth_rate",
    "death_rate",
    "build_transient_generator",
    "stationary_distribution",
    "exact_expected_extinction_time",
    "log_expected_extinction_time",
    "SymmetrizedGenerator",
    "SpectralResult",
    "ConvergenceError",
    "SizeCapError",
    "symmetrize",
    "quasi_stationary_distribution",
    "expected_time_qsd",
    "survival_probability",
    "full_decomposition",
    "EndemicSummary",
    "LogValue",
    "drift",
    "drift_derivative",
    "diffusion",
    "variance_at",
    "integrate_variance_ode",
    "endemic_normal",
    "q1_normal_approx",
    "expected_time_clt",
    "SeedSpec",
    "Trajectory",
    "ZeroSurvivorsError",
    "simulate",
    "simulate_restarted",
    "empirical_occupancy",
    "conditioned_ensemble",
    "extinction_time_samples",
    "__version__",
]
