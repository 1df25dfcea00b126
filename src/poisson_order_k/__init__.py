"""Poisson distribution of order k.

Recurrence evaluation of the (unnormalized) probability mass function with
two mutually certifying recurrences, an exact combinatorial oracle over the
defining tuple sum, the rate thresholds and closed-form bounds that delimit
the distribution's shape regimes, and audits of its mode and monotonicity
structure.  The public names are the ``__all__`` lists of ``pmf``,
``oracle``, ``roots`` and ``structure``; each is imported from its own
module, e.g. ``from poisson_order_k.pmf import build_table``.  Importing the
package loads none of its modules.
"""

__version__ = "0.1.0"
