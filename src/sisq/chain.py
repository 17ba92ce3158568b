"""SIS birth-death chain on {0, 1, ..., n}: parameters and rates.

State i counts the infectives in a closed population of n hosts.  New
infections arrive at rate lambda*i*(n-i)/n, recoveries at rate gamma*i,
and state 0 (disease extinct) is absorbing.  rates(p) is the one place
these formulas are stated: two O(n) lists that every downstream module
reads, the generator over the transient states {1, ..., n} being the
tridiagonal band they define.  Dense matrices are only ever materialized
by the spectral module, whose only limit is that it refuses one where
stationary_distribution(p) has a zero entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "check_state",
    "rates",
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


def rates(p: ModelParams) -> tuple[list, list]:
    """Birth and death rates of states 0..n, as lists of Python floats.

    births[i] = lambda*i*(n-i)/n and deaths[i] = gamma*i.  The birth rate
    vanishes at both ends: no infectives at i = 0, no susceptibles left at
    i = n.  The transient generator over states 1..n is tridiagonal, with
    births[1:n] above the diagonal, deaths[2:] below it and
    -(births[1:] + deaths[1:]) on it; its rows sum to -gamma on state 1,
    whose recovery leaks into the absorbing state, and to 0 elsewhere.
    """
    n = p.n
    return ([p.lam * i * (n - i) / n for i in range(n + 1)],
            [p.gamma * i for i in range(n + 1)])
