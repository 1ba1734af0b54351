"""Test oracles: the definitions the library's counting routes are checked
against, stated literally and called by no library code.

* ``weighted_divisor_sum`` and ``divisor_count_mod3`` sum over the divisors
  of n, where ``core3.arith`` takes product rules over prime powers.
* ``Partition``, ``enumerate_partitions``, ``hook_lengths`` and
  ``is_t_core`` state the t-core definition on partition objects, and
  ``unpruned_walk`` is the bitmask walk of ``core3.partitions`` without its
  pruning: it visits and tests every partition of every m <= n.
* ``long_division`` divides power series one coefficient at a time, a
  Python loop over every divisor term, where ``core3.series.div`` gathers
  the divisor's terms in runs.
* ``failures_per_k_r`` sweeps relations with one engine call per (k, r),
  yielding failures in (relation, k, r, n) order as they are found, where
  ``core3.identities`` reads several k of one residue in one call and
  splits each window back.
"""

from dataclasses import dataclass
from itertools import islice

from core3 import arith, identities
from core3.arith import factorize
from core3.partitions import DEFAULT_CAP, CapExceededError


def divisor_count_mod3(n: int, r: int) -> int:
    """Number of divisors of n congruent to r mod 3 (r must be 1 or 2).

    The paper's d_{r,3}(n), counted over the residues of the divisors rather
    than by core_count's product rule, so it is that rule's test oracle.
    """
    if r not in (1, 2):
        raise ValueError(f"residue must be 1 or 2, got {r}")
    counts = [0, 1, 0]  # counts[s] = divisors built so far with residue s
    for p, a in factorize(n).factors:
        step = p % 3
        new = [0, 0, 0]
        pm = 1
        for _ in range(a + 1):
            for s in range(3):
                if counts[s]:
                    new[(s * pm) % 3] += counts[s]
            pm = (pm * step) % 3
        counts = new
    return counts[r]


def weighted_divisor_sum(n: int) -> int:
    """f(n) = sum over d | n of chi(d) * (n/d)^2, chi = +1, -1, 0 on d = 1, 2, 0 mod 3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            q = n // d
            total += _chi3(d) * q * q
            if q != d:
                total += _chi3(q) * d * d
        d += 1
    return total


def _chi3(d: int) -> int:
    r = d % 3
    if r == 1:
        return 1
    if r == 2:
        return -1
    return 0


def long_division(numerator, divisor) -> tuple[int, ...]:
    """Coefficients of numerator / divisor as power series, to their common
    length, by long division:

        c[k] = (a[k] - sum over 0 < j <= k of b[j] * c[k-j]) / b[0],

    the divisor's constant term b[0] being +1 or -1.
    """
    if len(numerator) != len(divisor):
        raise ValueError("numerator and divisor differ in length")
    lead = divisor[0]
    if lead not in (1, -1):
        raise ValueError(f"divisor constant term must be +1 or -1, got {lead}")
    tail = [(j, c) for j, c in enumerate(divisor) if j > 0 and c]
    out = [0] * len(numerator)
    for k in range(len(numerator)):
        acc = numerator[k]
        for j, c in tail:
            if j > k:
                break
            acc -= c * out[k - j]
        out[k] = acc if lead == 1 else -acc
    return tuple(out)


def failures_per_k_r(n_max: int, *relations) -> tuple[list, int]:
    """The failures a sweep of the relations to n_max keeps, and the number it
    drops: every (k, r) of each relation in ``Relation.sides`` order is read
    by its own call of ``arith.progression_counts``, and its failing n are
    taken in order, the first ``identities.MAX_FAILURES`` of all of them kept."""

    def failing():
        for rel in relations:
            for k, r, sides in rel.sides():
                skipped = rel.skipped(r, n_max)
                index = {key: v for key, v in (("k", k), ("r", r)) if v is not None}
                labels = {**(rel.labels or {}), **index}
                lo = 0
                for lhs, *terms in arith.progression_counts(
                        rel.kind, [(step, offset) for _, step, offset in sides], n_max + 1,
                        identities._SIDE_WINDOW):
                    for i, value in enumerate(lhs):
                        rhs = sum(c * values[i] for (c, _, _), values in zip(sides[1:], terms))
                        if rel.modulus is not None:
                            value, rhs = value % rel.modulus, rhs % rel.modulus
                        if value != rhs and lo + i not in skipped:
                            yield identities.Failure({**labels, "n": lo + i}, value, rhs)
                    lo += len(lhs)

    found = failing()
    return list(islice(found, identities.MAX_FAILURES)), sum(1 for _ in found)


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


def enumerate_partitions(n: int, cap: int = DEFAULT_CAP):
    """Yield every partition of n exactly once (the empty partition for n=0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds brute-force cap {cap}")
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

    This is the definition that ``is_t_core`` decides by other means.
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


def unpruned_walk(n: int, t: int) -> list[int]:
    """The number of t-cores of every m <= n, from one visit to each partition:
    ``core3.partitions._walk`` with every child pushed, core or not."""
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
