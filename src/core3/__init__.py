"""Exact counting of 3-core partitions, pairs, and triples.

Four independent routes to the same integers: Euler-product series
expansion, folded Lambert sums, closed-form divisor/factorization
formulas, and brute-force hook-length enumeration -- plus a harness that
verifies the arithmetic identity and congruence families tying them
together.

``import core3`` loads none of the modules: each name of ``__all__``, and
each submodule (``core3.lambert``, ...), is imported on its first use
(PEP 562), so a command pays only for the modules it runs.
"""

__version__ = "0.1.0"

# each public name -> its home module, imported when the name is first read
_HOMES = {
    **dict.fromkeys(("Factorization", "core_count", "factorize", "pair_count", "sigma",
                     "triple_count", "weighted_divisor_sum_prime_power"), "arith"),
    **dict.fromkeys(("IdentityReport", "check_A3_relations", "check_A3_residue_families",
                     "check_B3_relations", "check_B3_residue_families", "check_a3_even_power",
                     "check_b3_power_families", "check_baruah_nath", "check_lin",
                     "check_xia_congruences", "check_xia_conjecture", "cross_validate"),
                    "identities"),
    "pair_fold_cross_term": "lambert",
    "brute_tuple_table": "partitions",
    **dict.fromkeys(("TruncatedSeries", "core_tuple_series", "div", "euler_product",
                     "from_coeffs", "jacobi_cube", "monomial", "mul", "one", "pentagonal",
                     "square_kernel_check", "verify_q_split"), "series"),
}
_SUBMODULES = ("arith", "cli", "identities", "lambert", "partitions", "routes", "series")

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        return getattr(__getattr__(_HOMES[name]), name)
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once for each
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
