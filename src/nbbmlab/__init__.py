"""Particle-selection simulator and free-boundary PDE laboratory.

Modules: measures (empirical measures and 1-D Wasserstein costs), waves
(travelling-wave profiles), nbbm (the event-driven particle system),
stationary (long-run estimation), fbpde (the free-boundary solver and its
comparison calculus), coupling (two-system couplings), killedbm (killed
Brownian motion), cli (command-line front end).
"""

from . import coupling, fbpde, killedbm, measures, nbbm, stationary, waves

__all__ = ["cli", "coupling", "fbpde", "killedbm", "measures", "nbbm",
           "stationary", "waves"]
__version__ = "0.1.0"
