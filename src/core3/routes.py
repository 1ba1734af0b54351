"""The registry of counting routes: how each method gets a count of each kind.

``cli`` and ``identities`` read it.  It looks functions up when called,
never at import, so rebinding a module attribute (as a tracer does) reaches
every caller.  Each route has one bound of its own: MAX_TABLE_TERMS for the
streamed formula and Lambert routes, MAX_SERIES_ORDER for series, the cap for brute.
"""

from collections import namedtuple
from itertools import chain

from . import arith, partitions

KINDS = ("a3", "A3", "B3")
METHODS = ("formula", "series", "lambert", "brute")
TUPLE_SIZE = {"a3": 1, "A3": 2, "B3": 3}

DEFAULT_BRUTE_CAP = 40  # below the cap of 60: perfbench pins cross-validate's 1323 at 40
# the largest brute-force cap a front end accepts; the pruned walk to 60
# takes about 0.3 ms
MAX_BRUTE_CAP = partitions.DEFAULT_CAP
# the most terms the series route computes, and its default order: its time
# grows as N^1.5.  On a 2-core Xeon, in process, the a3/A3/B3 series tables
# take 1.0/2.0/2.7 s and peak at 18/24/23 MB of RSS at N = 10^5, and
# 2.8/6.3/9.0 s and 22/34/34 MB at 2*10^5 (medians of 3; runs vary by 20%).
# The Lambert route streams the same tables, window by window, to 10^10.
MAX_SERIES_ORDER = 200_000
# the most terms any table reads, a Lambert point query's too; a formula point
# query has none.  Before its first row a formula table sieves by every prime
# up to sqrt(3N), and a Lambert table builds about 2*sqrt(N/3) progressions.
# End to end on a 2-core Xeon (`compute A3 6`: 13.9 MB), the a3/A3/B3 tables
# reach their first row at N = 10^10 in 0.2/0.2/0.2 s at 21/22/19 MB of RSS by
# formula and 0.5/0.2/0.5 s at 62/41/75 MB by Lambert; at 10^11 the Lambert
# ones take 1.5/0.7/2.0 s at 168/99/205 MB.  The largest power of ten within
# 64 MB of a point query on both routes.
MAX_TABLE_TERMS = 10**10


class UsageError(ValueError):
    pass


_Budgets = namedtuple("_Budgets", ("order", "brute_cap"))


class Config(_Budgets):
    """Run-wide budgets: the series order, which defaults to the series ceiling and can
    only lower it, and the brute-force cap.  Building one is the only range check of
    either, for the CLI and every library caller alike, in the command line's words."""

    __slots__ = ()

    def __new__(cls, order: int = MAX_SERIES_ORDER, brute_cap: int = DEFAULT_BRUTE_CAP):
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
    """Refuse a request whose largest n, ``top``, is past MAX_TABLE_TERMS or
    the method's own bound."""
    if top >= MAX_TABLE_TERMS:
        raise UsageError(f"{what} exceeds the table ceiling of {MAX_TABLE_TERMS} terms")
    if method == "series" and top >= MAX_SERIES_ORDER:
        raise UsageError(
            f"{what} exceeds the series route's ceiling of {MAX_SERIES_ORDER} terms; "
            "--method lambert streams the same table")
    if method == "series" and top >= cfg.order:
        raise UsageError(
            f"{what} exceeds the series order budget {cfg.order}; raise --order")
    if method == "brute" and top > cfg.brute_cap:
        hint = ("raise --brute-cap" if cfg.brute_cap < MAX_BRUTE_CAP
                else f"--brute-cap is at most {MAX_BRUTE_CAP}")
        raise UsageError(f"{what} exceeds the brute-force cap {cfg.brute_cap}; {hint}")


def table_window(kind: str, method: str, n_max: int) -> int:
    """The rows of each window of ``table_windows`` for a request it accepts,
    the last window fewer: the whole table for series and brute, 0 for an
    empty table."""
    if method == "formula":
        return arith.side_window(1)
    if method == "lambert" and n_max:
        from . import lambert
        return lambert.tuple_window(TUPLE_SIZE[kind], n_max)
    return n_max


def table_windows(kind: str, method: str, n_max: int, cfg: Config = Config(),
                  share: int = 0, shares: int = 1):
    """The counts of ``kind`` for 0 <= n < n_max by ``method``, as an iterator
    of sequences whose concatenation is the table.  The formula and Lambert
    routes yield one window at a time, each computed when it is asked for;
    series and brute, whose arithmetic needs the whole table, yield it as
    one sequence.  Of the formula and Lambert windows 0, 1, 2, ... only
    share, share + shares, share + 2*shares, ... are computed and yielded;
    the one window of series and brute is share 0's.  A request is refused
    here, before the first window."""
    _check_route(kind, method)
    if n_max < 0:
        raise UsageError("--nmax must be >= 0")
    if n_max == 0:
        return iter(())
    _check_budget(method, n_max - 1, f"--nmax {n_max}", cfg)
    k = TUPLE_SIZE[kind]
    if method == "formula":
        return arith.count_windows(kind, n_max, share, shares)
    # imported here, so that a formula query does not load either engine
    if method == "series":
        from . import series
        return iter((series.core_tuple_series(3, k, n_max).coeffs,))
    if method == "lambert":
        from . import lambert
        return lambert.tuple_windows(k, n_max, share, shares)
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
    # n is the last entry of the table: its window alone is computed, the
    # windows before it passed over
    last = n // table_window(kind, method, n + 1)
    [values] = table_windows(kind, method, n + 1, cfg, last, last + 1)
    return values[-1]
