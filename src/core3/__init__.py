"""Exact counting of 3-core partitions, pairs, and triples.

Four independent routes to the same integers: Euler-product series
expansion, folded Lambert sums, closed-form divisor/factorization
formulas, and brute-force hook-length enumeration -- plus a harness that
verifies the arithmetic identity and congruence families tying them
together.
"""

__version__ = "0.1.0"

from .arith import (
    Factorization,
    core_count,
    factorize,
    pair_count,
    sigma,
    triple_count,
    weighted_divisor_sum_prime_power,
)
from .identities import (
    IdentityReport,
    check_A3_relations,
    check_A3_residue_families,
    check_B3_relations,
    check_B3_residue_families,
    check_a3_even_power,
    check_b3_power_families,
    check_baruah_nath,
    check_lin,
    check_xia_congruences,
    check_xia_conjecture,
    cross_validate,
)
from .lambert import pair_fold_cross_term
from .partitions import brute_tuple_table
from .series import (
    TruncatedSeries,
    core_tuple_series,
    div,
    euler_product,
    from_coeffs,
    jacobi_cube,
    monomial,
    mul,
    one,
    pentagonal,
    square_kernel_check,
    verify_q_split,
)

__all__ = [
    "Factorization",
    "IdentityReport",
    "TruncatedSeries",
    "brute_tuple_table",
    "check_A3_relations",
    "check_A3_residue_families",
    "check_B3_relations",
    "check_B3_residue_families",
    "check_a3_even_power",
    "check_b3_power_families",
    "check_baruah_nath",
    "check_lin",
    "check_xia_congruences",
    "check_xia_conjecture",
    "core_count",
    "core_tuple_series",
    "cross_validate",
    "div",
    "euler_product",
    "factorize",
    "from_coeffs",
    "jacobi_cube",
    "monomial",
    "mul",
    "one",
    "pair_count",
    "pair_fold_cross_term",
    "pentagonal",
    "sigma",
    "square_kernel_check",
    "triple_count",
    "verify_q_split",
    "weighted_divisor_sum_prime_power",
]
