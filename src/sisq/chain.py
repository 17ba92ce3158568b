"""SIS birth-death chain on {0, 1, ..., n}: rates and the transient generator.

State i counts the infectives in a closed population of n hosts.  New
infections arrive at rate lambda*i*(n-i)/n, recoveries at rate gamma*i,
and state 0 (disease extinct) is absorbing.  The generator restricted to
the transient states {1, ..., n} is tridiagonal and is the object every
downstream module works with; it is kept in banded form so that rate
queries stay O(1) and memory stays O(n) even for very large populations.
Dense matrices are only ever materialized by the spectral module, whose
only limit is that it refuses one where stationary_distribution(p) has a
zero entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "TransientGenerator",
    "birth_rate",
    "death_rate",
    "build_transient_generator",
    "check_state",
]


def _is_integer(x) -> bool:
    """True for a Python or numpy integer; bool, a float and a string are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the SIS chain.

    Attributes:
        n: population size (number of hosts), integer >= 1.  n = 1 is the
            degenerate chain with only recovery; n = 0 is rejected.
        lam: infection contact rate per unit time, > 0.
        gamma: recovery rate per unit time, > 0.
    """

    n: int
    lam: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not _is_integer(self.n):
            raise ValueError(f"population size must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"population size must be >= 1, got {self.n}")
        lam = float(self.lam)
        gamma = float(self.gamma)
        if not math.isfinite(lam) or lam <= 0.0:
            raise ValueError(f"infection rate must be positive and finite, got {self.lam!r}")
        if not math.isfinite(gamma) or gamma <= 0.0:
            raise ValueError(f"recovery rate must be positive and finite, got {self.gamma!r}")
        # Each rate can be a normal double while their ratio overflows or
        # underflows; every route would then turn R0 = inf or 0 into NaN.
        r0 = lam / gamma
        if not 0.0 < r0 < math.inf:
            raise ValueError(
                f"R0 = lambda/gamma must be a positive finite double, got "
                f"{r0!r} from lambda={lam!r}, gamma={gamma!r}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma", gamma)

    @property
    def r0(self) -> float:
        """Basic reproduction number lambda/gamma."""
        return self.lam / self.gamma


def check_state(p: ModelParams, i: int, what: str = "state") -> int:
    """A transient state i in 1..n given from outside, as an int.

    Refused with ValueError, `what` naming it, unless it is an integer
    (bool excluded) in 1..n: a float such as 2.0 would index as another
    state, or not at all, and True would run as state 1.
    """
    if not _is_integer(i):
        raise ValueError(f"{what} must be an integer, got {i!r}")
    i = int(i)
    if not 1 <= i <= p.n:
        raise ValueError(f"{what} must lie in 1..{p.n}, got {i}")
    return i


def birth_rate(i: int, p: ModelParams) -> float:
    """Infection rate out of state i: lambda*i*(n-i)/n.

    Vanishes at both ends: no infectives at i = 0, no susceptibles left
    at i = n.
    """
    if i < 0 or i > p.n:
        raise ValueError(f"state {i} outside [0, {p.n}]")
    return p.lam * i * (p.n - i) / p.n


def death_rate(i: int, p: ModelParams) -> float:
    """Recovery rate out of state i: gamma*i."""
    if i < 0 or i > p.n:
        raise ValueError(f"state {i} outside [0, {p.n}]")
    return p.gamma * i


@dataclass(frozen=True)
class TransientGenerator:
    """Tridiagonal generator restricted to the transient states 1..n.

    Row k (0-based) describes state i = k + 1:

        upper[k] = birth_rate(k + 1)   transitions i -> i + 1
        lower[k] = death_rate(k + 2)   transitions i + 1 -> i
        diag[k]  = -(birth_rate(k + 1) + death_rate(k + 1))

    Row sums are -gamma for the first row (recovery from state 1 leaks
    into the absorbing state) and zero for every other row.

    Attributes:
        n: number of transient states.
        lower: sub-diagonal, length n - 1.
        diag: main diagonal, length n.
        upper: super-diagonal, length n - 1.
    """

    n: int
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lower", "diag", "upper"):
            arr = getattr(self, name)
            arr = np.asarray(arr, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.diag.shape != (self.n,):
            raise ValueError(f"diag must have length n={self.n}")
        if self.lower.shape != (max(self.n - 1, 0),) or self.upper.shape != self.lower.shape:
            raise ValueError(f"off-diagonals must have length n-1={self.n - 1}")


def build_transient_generator(p: ModelParams) -> TransientGenerator:
    """Assemble the banded transient generator for the given parameters.

    Args:
        p: model parameters.

    Returns:
        TransientGenerator over states 1..n.
    """
    i = np.arange(1, p.n + 1, dtype=float)
    births = p.lam * i * (p.n - i) / p.n
    deaths = p.gamma * i
    return TransientGenerator(
        n=p.n,
        lower=deaths[1:],
        diag=-(births + deaths),
        upper=births[:-1],
    )
