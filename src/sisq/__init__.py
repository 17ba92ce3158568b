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
exposes everything as a command-line tool.  Public names are imported
from these submodules; the package root carries only ``__version__``.
"""

__version__ = "0.1.0"
