"""Brute-force ground truth: partition enumeration and hook-length tests.

Nothing here knows about generating functions or divisor formulas; counts
come straight from the definition (a partition is 3-core when no hook
length of its Young diagram is divisible by 3), which makes this module
the independent oracle for everything else.

The counts come from one iterative walk over every partition of every
m <= n, its parts generated in ascending order a_0 <= ... <= a_{L-1}.  The
beta-set of such a partition is {a_i + i}, so appending a part x at index L
adds the one element x + L: the walk carries the beta-set as an int bitmask,
extended by one OR per part, and tests every node, the whole set each time,
with the James-Kerber criterion of ``is_t_core``.  Nothing is pruned,
though no extension of a non-core is a core: the walk visits and tests all
sum(p(m), m <= n) partitions.  On a 2-core Xeon a walk to n = 40 takes
about 0.05 s, to 50 about 0.3 s and to 60, ``DEFAULT_CAP`` and the largest
cap the command line accepts, about 3 s.
``enumerate_partitions``, ``Partition``, ``hook_lengths`` and ``is_t_core``
state the definition literally and are the walk's test oracle.
"""

from dataclasses import dataclass

DEFAULT_CAP = 60

# t -> [number of t-cores of m for 0 <= m <= n], from the largest walk so far
_LANES: dict[int, list[int]] = {}


class CapExceededError(ValueError):
    """Raised when a brute-force request exceeds the enumeration cap."""


@dataclass(frozen=True)
class Partition:
    """A nonincreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for part in self.parts:
            if part < 1:
                raise ValueError(f"parts must be positive, got {part}")
            if prev is not None and part > prev:
                raise ValueError("parts must be nonincreasing")
            prev = part

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        return Partition(tuple(_conjugate_parts(self.parts)))


def _conjugate_parts(parts: tuple[int, ...]) -> list[int]:
    if not parts:
        return []
    return [sum(1 for row in parts if row > j) for j in range(parts[0])]


def _check_cap(n: int, cap: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds brute-force cap {cap}")


def enumerate_partitions(n: int, cap: int = DEFAULT_CAP):
    """Yield every partition of n exactly once (the empty partition for n=0)."""
    _check_cap(n, cap)
    return (Partition(parts) for parts in _parts(n, n))


def _parts(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _parts(n - first, first):
            yield (first,) + rest


def hook_lengths(partition: Partition) -> list[int]:
    """Hook length (arm + leg + 1) of every cell of the Young diagram.

    This is the definition that ``is_t_core`` decides by other means, and
    the oracle the tests compare it against.
    """
    parts = partition.parts
    conj = _conjugate_parts(parts)
    hooks = []
    for i, row in enumerate(parts):
        for j in range(row):
            hooks.append(row - j + conj[j] - i - 1)
    return hooks


def is_t_core(partition: Partition, t: int) -> bool:
    """True when no hook length of the diagram is divisible by t.

    Decided on the beta-set: beta = {parts[i] + L - 1 - i} (L parts) holds
    the hook lengths of the first column, and the partition is a t-core
    exactly when h - t is in beta for every h in beta with h >= t
    (James-Kerber, section 2.7).
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    last = len(partition.parts) - 1
    beta = {part + last - i for i, part in enumerate(partition.parts)}
    return all(h < t or h - t in beta for h in beta)


def _walk(n: int, t: int) -> list[int]:
    """The number of t-cores of every m <= n, from one visit to each partition."""
    counts = [0] * (n + 1)
    counts[0] = 1  # the empty partition, whose beta-set is empty
    # a node is (least next part, number of parts, weight, beta-set bitmask)
    stack = [(1, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        low, length, total, beta = pop()
        for x in range(low, n - total + 1):
            child = beta | 1 << (x + length)
            # t-core: every bead h >= t has h - t in the set as well
            if not (child >> t) & ~child:
                counts[total + x] += 1
            if total + 2 * x <= n:  # room left for a further part >= x
                push((x, length + 1, total + x, child))
    return counts


def _core_lane(n: int, t: int) -> list[int]:
    """The cached t-core counts, walked afresh only for a larger n."""
    lane = _LANES.get(t)
    if lane is None or len(lane) <= n:
        lane = _LANES[t] = _walk(n, t)
    return lane


def brute_tuple_count(n: int, t: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """Number of ordered k-tuples of t-core partitions with total weight n.

    Tuples are ordered, so the count is the k-fold convolution of the
    single-partition counts over compositions of n; k = 1 counts the
    t-cores of n themselves.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if t < 2:
        raise ValueError("t must be >= 2")
    _check_cap(n, cap)
    base = _core_lane(n, t)
    counts = base
    for _ in range(k - 1):
        counts = [sum(base[i] * counts[m - i] for i in range(m + 1)) for m in range(n + 1)]
    return counts[n]
