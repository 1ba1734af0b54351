"""Exact counting of 3-core partitions, pairs, and triples.

Four independent routes to the same integers: Euler-product series
expansion, folded Lambert sums, closed-form divisor/factorization
formulas, and brute-force hook-length enumeration -- plus a harness that
verifies the arithmetic identity and congruence families tying them
together.

``__all__`` is the three closed-form counters and ``factorize`` with its
result type, all from ``core3.arith``; every other name is read at its
module, ``core3.<module>.<name>``.  ``import core3`` loads none of the
modules: each name of ``__all__``, and each submodule (``core3.lambert``,
...), is imported on its first use (PEP 562), so a command pays only for
the modules it runs.
"""

__version__ = "0.1.0"

__all__ = ["Factorization", "core_count", "factorize", "pair_count", "triple_count"]
_SUBMODULES = ("arith", "cli", "identities", "lambert", "partitions", "routes", "series")


def __getattr__(name):
    if name in __all__:
        return getattr(__getattr__("arith"), name)
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once for each
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
