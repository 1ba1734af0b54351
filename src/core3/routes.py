"""The registry of counting routes: how each method gets a count of each kind.

``cli`` and ``identities`` read it.  It looks functions up when called,
never at import, so rebinding a module attribute (as a tracer does) reaches
every caller.
"""

from itertools import chain
from typing import NamedTuple

from . import arith, lambert, partitions, series

KINDS = ("a3", "A3", "B3")
METHODS = ("formula", "series", "lambert", "brute")
TUPLE_SIZE = {"a3": 1, "A3": 2, "B3": 3}

DEFAULT_ORDER = 2000
DEFAULT_BRUTE_CAP = 40
# the largest brute-force cap a front end accepts; the pruned walk to 60
# takes about 0.3 ms
MAX_BRUTE_CAP = partitions.DEFAULT_CAP
# the most terms the series route computes, whatever --order allows: its time
# grows as N^1.5.  On a 2-core Xeon, in process, the a3/A3/B3 series tables
# take 1.0/2.0/2.7 s and peak at 18/24/23 MB of RSS at N = 10^5, and
# 2.8/6.3/9.0 s and 22/34/34 MB at 2*10^5 (medians of 3; runs vary by 20%).  cross_validate(10^5) needs 10^5
# terms; the Lambert route computes the same tables window by window.
MAX_SERIES_ORDER = 200_000


class UsageError(ValueError):
    pass


class _Budgets(NamedTuple):
    order: int = DEFAULT_ORDER
    brute_cap: int = DEFAULT_BRUTE_CAP


class Config(_Budgets):
    """Run-wide budgets: the series order and the brute-force cap.  Building
    one is the only range check of either, for the CLI and every library
    caller alike, so each is refused in the command line's words."""

    __slots__ = ()

    def __new__(cls, order: int = DEFAULT_ORDER, brute_cap: int = DEFAULT_BRUTE_CAP):
        if order < 1:
            raise UsageError("--order must be >= 1")
        if brute_cap < 0:
            raise UsageError(f"--brute-cap must be an integer >= 0, got {brute_cap}")
        if brute_cap > MAX_BRUTE_CAP:
            raise UsageError(f"--brute-cap must be at most {MAX_BRUTE_CAP}, got {brute_cap}")
        return super().__new__(cls, order, brute_cap)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: keep the ceiling there too
        return cls(*iterable)


def _check_route(kind: str, method: str) -> None:
    """Refuse a kind or method the registry does not know."""
    if kind not in TUPLE_SIZE:
        raise UsageError(f"unknown kind {kind!r}; known kinds: {', '.join(KINDS)}")
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}; known methods: {', '.join(METHODS)}")


def _check_budget(method: str, top: int, what: str, cfg: Config) -> None:
    """Refuse a request whose largest n, ``top``, is past the method's budget."""
    if method == "series" and top >= MAX_SERIES_ORDER:
        raise UsageError(
            f"{what} exceeds the series route's ceiling of {MAX_SERIES_ORDER} terms; "
            "--method lambert streams the same table")
    if method in ("series", "lambert") and top >= cfg.order:
        raise UsageError(
            f"{what} exceeds the series order budget {cfg.order}; raise --order")
    if method == "brute" and top > cfg.brute_cap:
        hint = ("raise --brute-cap" if cfg.brute_cap < MAX_BRUTE_CAP
                else f"--brute-cap is at most {MAX_BRUTE_CAP}")
        raise UsageError(f"{what} exceeds the brute-force cap {cfg.brute_cap}; {hint}")


def table_windows(kind: str, method: str, n_max: int, cfg: Config = Config()):
    """The counts of ``kind`` for 0 <= n < n_max by ``method``, as an iterator
    of sequences whose concatenation is the table.  The formula and Lambert
    routes yield one window at a time, each computed when it is asked for;
    series and brute, whose arithmetic needs the whole table, yield it as
    one sequence.  A request is refused here, before the first window."""
    _check_route(kind, method)
    if n_max < 0:
        raise UsageError("--nmax must be >= 0")
    if n_max == 0:
        return iter(())
    _check_budget(method, n_max - 1, f"--nmax {n_max}", cfg)
    k = TUPLE_SIZE[kind]
    if method == "formula":
        return arith.count_windows(kind, n_max)
    if method == "series":
        return iter((series.core_tuple_series(3, k, n_max).coeffs,))
    if method == "lambert":
        return lambert.tuple_windows(k, n_max)
    # brute, the one method left
    return iter((partitions.brute_tuple_table(n_max, 3, k, cap=cfg.brute_cap),))


def table_values(kind: str, method: str, n_max: int, cfg: Config = Config()) -> list[int]:
    """The counts of ``kind`` for 0 <= n < n_max by ``method``: the windows of
    ``table_windows`` joined."""
    return list(chain.from_iterable(table_windows(kind, method, n_max, cfg)))


def point_value(kind: str, method: str, n: int, cfg: Config = Config()) -> int:
    """The count of ``kind`` at n by ``method``; every route but the closed
    form answers from the last window of its table up to n."""
    _check_route(kind, method)
    if n < 0:
        raise UsageError("n must be >= 0")
    if method == "formula":
        return getattr(arith, arith.COUNTERS[kind])(n)
    _check_budget(method, n, f"n={n}", cfg)
    # n is the last entry of the table, so only its last window is kept
    for values in table_windows(kind, method, n + 1, cfg):
        pass
    return values[-1]
