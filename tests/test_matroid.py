"""Matroid families: axioms, independence oracles, deletion views."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_interdiction.matroid import (
    Matroid,
    explicit,
    graphic,
    partition,
    uniform,
    verify_axioms,
)


def brute_rank(mat: Matroid, subset) -> int:
    subset = list(subset)
    for size in range(len(subset), -1, -1):
        for cand in combinations(subset, size):
            if mat.is_independent(cand):
                return size
    return 0


def check_axioms(mat: Matroid):
    """Hereditary + exchange, brute-forced over all subsets."""
    ground = list(mat.available)
    assert len(ground) <= 12, "axiom check is exponential, keep it small"
    independent = [
        frozenset(s)
        for size in range(len(ground) + 1)
        for s in combinations(ground, size)
        if mat.is_independent(s)
    ]
    assert frozenset() in independent
    indep = set(independent)
    for s in independent:
        for e in s:
            assert s - {e} in indep, f"hereditary fails at {s} - {e}"
    for s in independent:
        for t in independent:
            if len(s) < len(t):
                assert any(s | {e} in indep for e in t - s), f"exchange fails: {s} vs {t}"


def test_uniform_axioms_and_rank():
    mat = uniform(6, 3)
    check_axioms(mat)
    assert mat.rank() == 3
    assert mat.is_independent({0, 1, 2})
    assert not mat.is_independent({0, 1, 2, 3})


def test_graphic_cycle_detection():
    # triangle plus a pendant edge
    mat = graphic(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    check_axioms(mat)
    assert mat.rank() == 3
    assert mat.is_independent({0, 1, 3})
    assert not mat.is_independent({0, 1, 2})


def test_graphic_self_loop_is_dependent():
    mat = graphic(3, [(0, 0), (0, 1)])
    assert not mat.is_independent({0})
    assert mat.is_independent({1})
    assert mat.rank() == 1


def test_graphic_parallel_edges():
    mat = graphic(2, [(0, 1), (0, 1), (0, 1)])
    check_axioms(mat)
    assert mat.rank() == 1
    for e, f in combinations(range(3), 2):
        assert not mat.is_independent({e, f})


def test_partition_capacities():
    mat = partition([0, 0, 0, 1, 1, 2], [2, 1, 1])
    check_axioms(mat)
    assert mat.rank() == 4
    assert mat.is_independent({0, 1, 3, 5})
    assert not mat.is_independent({0, 1, 2})
    assert not mat.is_independent({3, 4})


def test_explicit_from_bases():
    mat = explicit(4, [{0, 1}, {0, 2}, {1, 2}])
    check_axioms(mat)
    assert mat.rank() == 2
    assert mat.is_independent({3}) is False  # 3 is in no basis
    assert mat.is_independent({0, 1})
    assert not mat.is_independent({0, 3})


def test_explicit_rejects_large_ground():
    with pytest.raises(ValueError):
        explicit(17, [set(range(17))])


def test_deletion_view_restricts_and_raises():
    mat = uniform(5, 2)
    d = mat.delete({1, 3})
    assert d.available == (0, 2, 4)
    assert d.rank() == 2
    with pytest.raises(ValueError):
        d.is_independent({1})
    # chained deletion accumulates
    dd = d.delete({0})
    assert dd.available == (2, 4)


def test_deletion_shares_oracle_counter():
    mat = uniform(5, 2)
    base = mat.oracle_calls
    d = mat.delete({0})
    d.is_independent({1})
    d.is_independent({1, 2})
    assert mat.oracle_calls == base + 2


def test_with_fresh_counter_detaches():
    mat = uniform(5, 2)
    fresh = mat.with_fresh_counter()
    fresh.is_independent({0})
    assert mat.oracle_calls == 0
    assert fresh.oracle_calls == 1


def test_graphic_deletion_bridges():
    # path 0-1-2; deleting the middle edge drops the rank
    mat = graphic(3, [(0, 1), (1, 2)])
    assert mat.rank() == 2
    assert mat.delete({0}).rank() == 1


def test_rank_stop_at():
    mat = uniform(5, 3).with_fresh_counter()
    assert mat.rank(stop_at=0) == 0
    assert mat.oracle_calls == 0
    assert mat.rank(stop_at=2) == 2
    assert mat.oracle_calls == 2
    full = uniform(5, 3).with_fresh_counter()
    assert full.rank() == 3
    assert mat.with_fresh_counter().rank(stop_at=4) == full.rank() == 3
    # a graphic loop is skipped, and stopping never undercounts the rank
    loopy = graphic(3, [(0, 0), (0, 1), (1, 2), (0, 2)])
    assert [loopy.rank(stop_at=s) for s in range(5)] == [0, 1, 2, 2, 2]


def test_verify_axioms_accepts_families():
    verify_axioms(uniform(5, 2))
    verify_axioms(graphic(4, [(0, 1), (1, 2), (2, 0), (0, 3)]))
    verify_axioms(partition([0, 0, 1, 1], [1, 2]))


def test_verify_axioms_rejects_large_ground():
    with pytest.raises(ValueError):
        verify_axioms(uniform(20, 3))


def test_verify_axioms_catches_a_non_matroid():
    # {0,1} and {2} as the only maximal sets: exchange fails
    broken = explicit(3, [{0, 1}])

    class Liar:
        kind = "liar"
        ground_size = 3

        def independent(self, s):
            return s <= {0, 1} or s == {2}

    with pytest.raises(AssertionError):
        verify_axioms(Matroid(Liar()))
    verify_axioms(broken)  # a genuine matroid passes


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=8,
        ).map(lambda edges: (n, edges))
    )
)
def test_graphic_independence_matches_rank_oracle(data):
    n, edges = data
    mat = graphic(n, edges)
    for size in range(min(4, len(edges)) + 1):
        for s in combinations(range(len(edges)), size):
            got = mat.is_independent(s)
            # acyclic iff the brute-force rank of the subset is its size
            assert got == (brute_rank(mat, s) == len(s))


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    caps=st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
def test_partition_matches_counting(blocks, caps):
    mat = partition(blocks, caps)
    for size in range(min(4, len(blocks)) + 1):
        for s in combinations(range(len(blocks)), size):
            by_count = all(
                sum(1 for e in s if blocks[e] == b) <= caps[b] for b in range(3)
            )
            assert mat.is_independent(s) == by_count
