"""Poisson distribution of order k.

Recurrence evaluation of the (unnormalized) probability mass function with
two mutually certifying recurrences, an exact combinatorial oracle over the
defining tuple sum, the rate thresholds and closed-form bounds that delimit
the distribution's shape regimes, and audits of its mode and monotonicity
structure.  The exports are the ``__all__`` lists of ``pmf``, ``oracle``,
``roots`` and ``structure``, in that order; each name is listed only there.
They load on first use (PEP 562), so importing the package loads none of its
modules, and a name is looked up in ``oracle`` last: only it loads fractions.
"""

import importlib

__version__ = "0.1.0"

_LOOKUP = ("pmf", "roots", "structure", "oracle")


def __getattr__(name: str):
    # `from poisson_order_k import cli` asks here before importing the module;
    # a submodule missing here would be looked up in every module first
    if name in (*_LOOKUP, "checks", "cli", "output"):
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        order = ("pmf", "oracle", "roots", "structure")
        value = [export for m in order for export in __getattr__(m).__all__]
    else:
        owner = next((m for m in map(__getattr__, _LOOKUP) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
