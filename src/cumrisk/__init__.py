"""Cumulative cancer-risk engine built on a two-state absorbing chain.

Estimates per-age-group transition probabilities from incidence tables,
propagates OFF/RED state vectors, computes the classical cumulative
rate/risk pair, answers conditional-risk and cohort-comparison queries, and
cross-checks everything against a seeded Monte Carlo population simulator,
`cumrisk.simulate`, the one module that imports numpy, and only for runs
over its budget of bulb-steps.
"""

from . import core, io
from .core import *
from .io import *

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *io.__all__]
