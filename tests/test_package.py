"""The package surface: ``__all__`` is the closed-form counters and
``factorize`` with its result type, every other name is read at its module,
``import core3`` loads no submodule, and each public name and submodule is
imported on first use."""

import importlib
import subprocess
import sys

import pytest

import core3

# each public name, by the module that defines it
HOMES = {"arith": ("Factorization", "core_count", "factorize", "pair_count", "triple_count")}
# names the package no longer re-exports, by the module each is read at
DROPPED = {
    "arith": ("sigma", "weighted_divisor_sum_prime_power"),
    "identities": ("IdentityReport", "check_A3_relations", "check_A3_residue_families",
                   "check_B3_relations", "check_B3_residue_families", "check_a3_even_power",
                   "check_b3_power_families", "check_baruah_nath", "check_lin",
                   "check_xia_congruences", "check_xia_conjecture", "cross_validate"),
    "lambert": ("pair_fold_cross_term",),
    "partitions": ("brute_tuple_table",),
    "series": ("TruncatedSeries", "core_tuple_series", "div", "euler_product", "from_coeffs",
               "jacobi_cube", "monomial", "mul", "one", "pentagonal", "square_kernel_check",
               "verify_q_split"),
}
SUBMODULES = ("arith", "cli", "identities", "lambert", "partitions", "routes", "series")


def test_all_lists_every_public_name_once():
    assert core3.__all__ == sorted(name for names in HOMES.values() for name in names)


def test_each_name_is_the_object_of_its_home_module():
    assert [(home, name) for home, names in HOMES.items() for name in names
            if getattr(core3, name) is not getattr(importlib.import_module(f"core3.{home}"),
                                                   name)] == []


def test_each_dropped_name_is_read_at_its_home_module():
    dropped = [(home, name) for home, names in DROPPED.items() for name in names]
    assert len(dropped) == 28
    assert [(home, name) for home, name in dropped
            if hasattr(core3, name) or not hasattr(getattr(core3, home), name)] == []


def test_a_dropped_name_is_not_importable_from_the_package():
    with pytest.raises(ImportError, match="cannot import name 'check_lin'"):
        exec("from core3 import check_lin", {})


def test_each_submodule_is_an_attribute():
    assert [name for name in SUBMODULES
            if getattr(core3, name) is not importlib.import_module(f"core3.{name}")] == []


def test_dir_covers_all_and_the_submodules():
    assert set(dir(core3)) >= {*core3.__all__, *SUBMODULES, "__version__"}


def test_star_import_binds_all():
    namespace = {}
    exec("from core3 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(core3.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'core3' has no attribute 'nope'$"):
        core3.nope  # noqa: B018
    assert not hasattr(core3, "nope")
    with pytest.raises(ImportError):
        exec("from core3 import nope", {})


# in a fresh interpreter: the bare import loads no submodule, and a submodule
# is then one attribute away, as for the benchmark's Lambert oracle
_FRESH = """
import sys
import core3
print(sorted(name for name in sys.modules if name.partition(".")[0] == "core3"))
print(core3.lambert.tuple_series(2, 50).coeffs[-1])
"""


def _fresh(code: str) -> list[str]:
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_a_bare_import_loads_no_submodule():
    loaded, last = _fresh(_FRESH)
    assert loaded == "['core3']"
    assert int(last) == core3.pair_count(49)


def test_a_counter_loads_only_arith():
    # the benchmark's setup_s snippet: a counter read off the package
    loaded, value = _fresh("""
import sys
import core3
value = core3.pair_count(0)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "core3"))
print(value)
""")
    assert loaded == "['core3', 'core3.arith']"
    assert value == "1"
