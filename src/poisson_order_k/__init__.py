"""Poisson distribution of order k.

Recurrence evaluation of the (unnormalized) probability mass function with
two mutually certifying recurrences, an exact combinatorial oracle over the
defining tuple sum, the rate thresholds and closed-form bounds that delimit
the distribution's shape regimes, and audits of its mode and monotonicity
structure.  The exports are the ``__all__`` lists of ``pmf``, ``oracle``,
``roots`` and ``structure``, in that order; each name is listed only there.
"""

from . import oracle, pmf, roots, structure
from .oracle import *
from .pmf import *
from .roots import *
from .structure import *

__version__ = "0.1.0"

__all__ = pmf.__all__ + oracle.__all__ + roots.__all__ + structure.__all__
