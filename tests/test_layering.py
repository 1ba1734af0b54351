"""Oracle independence: a route that checks another never imports it.

The series and Lambert routes stay off the closed forms in ``arith`` (and
off ``routes``, ``identities`` and ``cli``, which reach ``arith``);
brute-force enumeration stays off all three counting routes.  Above them,
the route registry ``routes`` is the one module that dispatches to the
routes, and it imports neither ``identities`` nor ``cli``: ``identities``
reads it without importing ``cli``, and ``cli`` reaches the routes only
through it.  ``arith`` and ``series`` import no other core3 module.  No
module but ``arith`` reads an underscore name of ``arith``: how a side falls
on a kind's progression is ``arith``'s to decide.  ``lambert``, the oracle
of the series route, reads nothing of ``series`` but the container
``TruncatedSeries``: none of the engine's arithmetic.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "core3"

FORBIDDEN = {
    "series": {"arith", "routes", "identities", "cli"},
    "lambert": {"arith", "routes", "identities", "cli"},
    "partitions": {"arith", "series", "lambert", "routes"},
}

LAYERS = {
    "identities": {"cli"},
    "cli": {"series", "lambert", "partitions"},
    "routes": {"identities", "cli"},
    "arith": {path.stem for path in SRC.glob("*.py")} - {"arith"},
    "series": {path.stem for path in SRC.glob("*.py")} - {"series"},
}


def core3_imports(module: str) -> set[str]:
    """Names of the core3 modules that ``module`` imports, in any form."""
    names = set()
    source = SRC / f"{module}.py"
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("core3."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None and not (
                    node.module == "core3" or node.module.startswith("core3.")):
                continue
            path = (node.module or "").removeprefix("core3").lstrip(".")
            if path:
                names.add(path.split(".")[0])
            else:  # from . import x / from core3 import x
                names.update(a.name for a in node.names)
    return names


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_oracle_routes_stay_independent(module):
    assert not core3_imports(module) & FORBIDDEN[module]


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_registry_layers(module):
    assert not core3_imports(module) & LAYERS[module]


def test_import_scan_sees_every_form(tmp_path, monkeypatch):
    sample = ("import core3.arith\nfrom . import identities\nfrom .cli import main\n"
              "from core3 import lambert\nfrom core3.series import mul\nimport os\n")
    (tmp_path / "sample.py").write_text(sample)
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert core3_imports("sample") == {"arith", "identities", "cli", "lambert", "series"}


def names_read(module: str, target: str) -> list[tuple[int, str]]:
    """(line, name) for each name of the core3 module ``target`` that
    ``module`` reads, as ``target.x``, ``core3.target.x`` or
    ``from .target import x``."""
    reads = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Attribute):
            if ast.unparse(node.value).split(".")[-1] == target:
                reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == target:
            reads += [(node.lineno, a.name) for a in node.names]
    return sorted(reads)


def arith_private_reads(module: str) -> list[tuple[int, str]]:
    """(line, name) for each underscore name of ``arith`` that ``module`` reads."""
    return [(line, name) for line, name in names_read(module, "arith") if name.startswith("_")]


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")
                                          if path.stem != "arith"))
def test_no_module_reads_a_private_name_of_arith(module):
    assert arith_private_reads(module) == []


def test_private_read_scan_sees_every_form(tmp_path, monkeypatch):
    sample = ("from . import arith\nfrom .arith import _form, gcd\n"
              "from core3.arith import _side\nimport core3.arith\n"
              "a = arith._PROGRESSIONS[kind]\nb = core3.arith._WINDOW\n"
              "c = arith.divisible_terms\nd = other._x\n")
    (tmp_path / "sample.py").write_text(sample)
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert arith_private_reads("sample") == [(2, "_form"), (3, "_side"),
                                             (5, "_PROGRESSIONS"), (6, "_WINDOW")]


def test_lambert_reads_only_the_series_container():
    assert {name for _, name in names_read("lambert", "series")} <= {"TruncatedSeries"}


def test_identities_reads_every_count_through_progression_counts():
    # no sweep evaluates a count point by point: sigma and the counters stay unread
    assert ({name for _, name in names_read("identities", "arith")}
            <= {"progression_counts", "divisible_terms", "is_prime"})


def test_series_read_scan_sees_every_form(tmp_path, monkeypatch):
    sample = ("from .series import TruncatedSeries, mul\nfrom . import series\n"
              "import core3.series\nfrom core3.series import div\n"
              "a = series.one(3)\nb = core3.series.monomial\nc = other.pentagonal\n")
    (tmp_path / "sample.py").write_text(sample)
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert names_read("sample", "series") == [(1, "TruncatedSeries"), (1, "mul"), (4, "div"),
                                              (5, "one"), (6, "monomial")]
