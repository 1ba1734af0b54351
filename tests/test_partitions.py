import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from core3 import partitions
from core3.partitions import CapExceededError, brute_tuple_table
from oracles import Partition, enumerate_partitions, hook_lengths, is_t_core, unpruned_walk


@st.composite
def partitions_up_to(draw, max_weight=18):
    n = draw(st.integers(0, max_weight))
    parts = []
    remaining = n
    while remaining:
        bound = min(parts[-1], remaining) if parts else remaining
        part = draw(st.integers(1, bound))
        parts.append(part)
        remaining -= part
    return Partition(tuple(parts))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 1)).weight == 4
    assert Partition(()).weight == 0


def test_conjugate():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition(()).conjugate() == Partition(())


def test_enumerate_counts():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert sum(1 for _ in enumerate_partitions(4)) == 5
    assert sum(1 for _ in enumerate_partitions(6)) == 11


def test_enumerate_yields_each_once():
    seen = list(enumerate_partitions(7))
    assert len(seen) == len(set(seen))
    assert all(p.weight == 7 for p in seen)


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_partitions(61)
    with pytest.raises(CapExceededError):
        enumerate_partitions(10, cap=9)
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_hook_lengths():
    assert hook_lengths(Partition((1,))) == [1]
    assert sorted(hook_lengths(Partition((2, 1)))) == [1, 1, 3]
    assert sorted(hook_lengths(Partition((3, 2, 1)))) == [1, 1, 1, 3, 3, 5]


@given(partitions_up_to())
def test_hook_count_equals_weight(partition):
    assert len(hook_lengths(partition)) == partition.weight


def test_is_t_core_spot_cases():
    assert is_t_core(Partition(()), 3)
    assert not is_t_core(Partition((2, 1)), 3)
    assert is_t_core(Partition((3, 1)), 3)
    assert sorted(hook_lengths(Partition((3, 1)))) == [1, 1, 2, 4]


@given(partitions_up_to(), st.integers(2, 5))
def test_t_core_conjugation_symmetry(partition, t):
    # the hook multiset is invariant under transposing the diagram
    assert is_t_core(partition, t) == is_t_core(partition.conjugate(), t)


def test_is_t_core_matches_the_hook_definition():
    # every partition of n <= 25: the beta-set test against the literal hooks
    for n in range(26):
        for partition in enumerate_partitions(n):
            hooks = hook_lengths(partition)
            for t in range(2, 7):
                assert is_t_core(partition, t) == all(h % t for h in hooks), (partition, t)


def test_walk_matches_the_enumeration_oracle():
    # every partition of n <= 25: the walk's bitmask test against is_t_core on
    # Partition objects and against the literal hooks
    lanes = {t: partitions._walk(25, t) for t in range(2, 7)}
    tables = {t: brute_tuple_table(26, t, 1) for t in lanes}
    for n in range(26):
        found = list(enumerate_partitions(n))
        hooks = [hook_lengths(p) for p in found]
        for t, lane in lanes.items():
            by_beta = sum(is_t_core(p, t) for p in found)
            by_hooks = sum(all(h % t for h in cell_hooks) for cell_hooks in hooks)
            assert lane[n] == by_beta == by_hooks == tables[t][n], (n, t)


def test_walk_visits_every_partition_once():
    # no hook of a partition of m exceeds m, so for t > m every partition is a
    # t-core and the count is p(m)
    for m in range(26):
        assert brute_tuple_table(m + 1, max(2, m + 1), 1)[m] == sum(
            1 for _ in enumerate_partitions(m))
    assert brute_tuple_table(41, 41, 1)[40] == 37338
    assert brute_tuple_table(51, 51, 1)[50] == 204226


def test_deleting_the_largest_part_keeps_every_other_hook():
    # the lemma the walk prunes by, on every partition of n <= 25: the hooks
    # of the smaller partition are a sub-multiset of the larger one's, so no
    # extension of a non-core is a core
    for n in range(1, 26):
        for partition in enumerate_partitions(n):
            smaller = Partition(partition.parts[1:])
            assert not Counter(hook_lengths(smaller)) - Counter(hook_lengths(partition)), partition


def test_pruned_walk_matches_the_unpruned_walk():
    # the walk to every n <= 45 at t = 2..6 against one unpruned walk per t
    for t in range(2, 7):
        oracle = unpruned_walk(45, t)
        for n in range(46):
            assert partitions._walk(n, t) == oracle[:n + 1], (n, t)


def test_pruned_walk_matches_the_unpruned_walk_at_the_ceiling():
    started = time.perf_counter()
    pruned = partitions._walk(60, 3)
    # about 0.3 ms on a 2-core Xeon; the unpruned walk takes about 1.7 s
    assert time.perf_counter() - started < 0.1
    assert pruned == unpruned_walk(60, 3)


def test_brute_core_count():
    assert brute_tuple_table(3, 3, 1)[2] == 2
    assert brute_tuple_table(4, 3, 1)[3] == 0
    assert brute_tuple_table(4, 2, 1)[3] == 1


def test_brute_tuple_count():
    assert brute_tuple_table(2, 3, 3)[1] == 3
    assert brute_tuple_table(3, 3, 3)[2] == 9
    assert brute_tuple_table(6, 3, 2)[5] == 6
    assert brute_tuple_table(0, 3, 3) == []


def test_brute_tuple_count_is_ordered_convolution():
    base = brute_tuple_table(7, 3, 1)
    pairs = brute_tuple_table(7, 3, 2)
    for n in range(7):
        expected = sum(base[i] * base[n - i] for i in range(n + 1))
        assert pairs[n] == expected


def test_brute_validation():
    with pytest.raises(CapExceededError):
        brute_tuple_table(101, 3, 1)
    with pytest.raises(CapExceededError):
        brute_tuple_table(62, 3, 1)
    with pytest.raises(ValueError):
        brute_tuple_table(6, 3, 4)
    with pytest.raises(ValueError):
        brute_tuple_table(6, 1, 1)
    with pytest.raises(ValueError):
        brute_tuple_table(-1, 3, 1)
