"""Matroid families: axioms, independence oracles, deletion views."""

import tracemalloc
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_interdiction.matroid import (
    EXPLICIT_MAX_GROUND,
    Matroid,
    _OneShot,
    explicit,
    graphic,
    partition,
    uniform,
)


def brute_rank(mat: Matroid, subset) -> int:
    subset = list(subset)
    for size in range(len(subset), -1, -1):
        for cand in combinations(subset, size):
            if mat.is_independent(cand):
                return size
    return 0


def verify_axioms(matroid: Matroid) -> None:
    """Check the matroid axioms by full enumeration; raises on violation.

    Only feasible for small ground sets (2^m subsets are enumerated).
    """
    m = matroid.ground_size
    if m > EXPLICIT_MAX_GROUND:
        raise ValueError(f"axiom check enumerates 2^m subsets; m={m} is too large")
    elems = matroid.available
    independent: set[frozenset[int]] = set()
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            if matroid.is_independent(combo):
                independent.add(frozenset(combo))
    if frozenset() not in independent:
        raise AssertionError("empty set must be independent")
    for s in independent:
        for e in s:
            if s - {e} not in independent:
                raise AssertionError(f"hereditary axiom fails at {sorted(s)} minus {e}")
    for a in independent:
        for b in independent:
            if len(b) < len(a):
                if not any(b | {x} in independent for x in a - b):
                    raise AssertionError(
                        f"exchange axiom fails for {sorted(a)} and {sorted(b)}"
                    )


def test_uniform_axioms_and_rank():
    mat = uniform(6, 3)
    verify_axioms(mat)
    assert mat.rank() == 3
    assert mat.is_independent({0, 1, 2})
    assert not mat.is_independent({0, 1, 2, 3})


def test_graphic_cycle_detection():
    # triangle plus a pendant edge
    mat = graphic(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    verify_axioms(mat)
    assert mat.rank() == 3
    assert mat.is_independent({0, 1, 3})
    assert not mat.is_independent({0, 1, 2})
    # a 200-vertex path builds a 199-link union-find chain, so finding
    # the closing edge's cycle needs the full path-halving loop
    n = 200
    mat = graphic(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    path = range(n - 1)
    assert mat.is_independent(path)
    assert not mat.is_independent([*path, n - 1])


def test_graphic_self_loop_is_dependent():
    mat = graphic(3, [(0, 0), (0, 1)])
    assert not mat.is_independent({0})
    assert mat.is_independent({1})
    assert mat.rank() == 1


def test_graphic_parallel_edges():
    mat = graphic(2, [(0, 1), (0, 1), (0, 1)])
    verify_axioms(mat)
    assert mat.rank() == 1
    for e, f in combinations(range(3), 2):
        assert not mat.is_independent({e, f})


def test_partition_capacities():
    mat = partition([0, 0, 0, 1, 1, 2], [2, 1, 1])
    verify_axioms(mat)
    assert mat.rank() == 4
    assert mat.is_independent({0, 1, 3, 5})
    assert not mat.is_independent({0, 1, 2})
    assert not mat.is_independent({3, 4})


def test_explicit_from_bases():
    mat = explicit(4, [{0, 1}, {0, 2}, {1, 2}])
    verify_axioms(mat)
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
    # the greedy scan charges 0, then refuses the deleted 1 before its charge
    counted = d.with_fresh_counter()
    with pytest.raises(ValueError, match=r"deleted elements \[1\]"):
        counted.greedy([0, 1, 2])
    assert counted.oracle_calls == 1
    # chained deletion accumulates
    dd = d.delete({0})
    assert dd.available == (2, 4)
    for bad in ({5}, {-1}, {0, 7}):
        with pytest.raises(ValueError, match="outside the ground set"):
            d.delete(bad)


def test_exchange_search_refuses_deleted_elements():
    # a 4-cycle 0-1-2-3 and the chord (0, 2)
    d = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).delete({2})
    with pytest.raises(ValueError, match=r"deleted elements \[2\]"):
        d.exchanges({0, 1, 2})
    state = d.exchanges({0, 1, 3})  # built uncounted
    assert d.oracle_calls == 0
    # the chord rejoins 0 and 1 after edge 0 leaves; the deleted 2 is never tried
    assert d.replacement(state, 0, [4, 2]) == 4
    calls = d.oracle_calls
    with pytest.raises(ValueError, match=r"deleted elements \[2\]"):
        d.replacement(state, 3, [2, 4])
    assert d.oracle_calls == calls == 1


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


def test_graphic_query_is_sized_by_touched_vertices():
    # isolated vertices cost nothing: 4 edges on 3 touched vertices out of 10^6
    hub, mid, far = 0, 500_000, 999_999
    big = graphic(10**6, [(hub, far), (far, mid), (hub, mid), (mid, far)])
    small = graphic(3, [(0, 2), (2, 1), (0, 1), (1, 2)])
    full = frozenset(range(4))
    tracemalloc.start()
    try:
        big.is_independent(full)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    for size in range(5):
        for s in combinations(range(4), size):
            assert big.is_independent(s) == small.is_independent(s), s


def test_uniform_holds_nothing_per_element():
    # the family stores no block id per element: 10^4 ids would take 80 KB,
    # so this fails before a billion of them are built
    tracemalloc.start()
    try:
        uniform(10**4, 1)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
    # a billion elements, every answer from k
    mat, last = uniform(10**9, 1), 10**9 - 1
    assert mat.is_independent({last}) and not mat.is_independent({0, last})
    assert mat.greedy([last, 7, 0]) == {last}
    assert mat.oracle_calls == 5
    state = mat.exchanges({7})
    assert state.fits(7, last) and mat.replacement(state, 7, [last]) == last


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


def reference_greedy(mat: Matroid, order, room):
    """The greedy scan written out: one one-shot query per element tried.

    An element already chosen is tried again at the cost of one call
    and changes nothing; the scan stops once it holds room elements.
    """
    chosen: list[int] = []
    for e in order:
        if len(chosen) == room:
            break
        if mat.is_independent([*chosen, e]) and e not in chosen:
            chosen.append(e)
    return frozenset(chosen)


def _graphic_st():
    # loops and parallel edges included
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=9
        ).map(lambda edges: graphic(n, edges))
    )


def _partition_st():
    return st.lists(st.integers(0, 2), min_size=1, max_size=9).flatmap(
        lambda blocks: st.lists(st.integers(0, 3), min_size=3, max_size=3).map(
            lambda caps: partition(blocks, caps)
        )
    )


def _uniform_st():
    return st.integers(1, 9).flatmap(lambda m: st.integers(0, m).map(lambda k: uniform(m, k)))


def _bases_of(mat: Matroid):
    m = mat.ground_size
    independent = [s for r in range(m + 1) for s in combinations(range(m), r) if mat.is_independent(s)]
    k = max(map(len, independent))
    return explicit(m, [s for s in independent if len(s) == k])


def _explicit_st():
    # the basis list of a small graphic or partition matroid
    return st.one_of(_graphic_st(), _partition_st()).filter(lambda mat: mat.ground_size <= 7).map(_bases_of)


ANY_FAMILY = st.one_of(_graphic_st(), _partition_st(), _uniform_st(), _explicit_st())


@settings(max_examples=200, deadline=None)
@given(ANY_FAMILY, st.data())
def test_scan_agrees_with_the_one_shot_query(mat, data):
    # random insertion orders of new ids; a repeated id is Matroid.greedy's
    # no-op, covered by test_greedy_matches_the_reference_scan
    family = mat._family
    order = data.draw(st.permutations(range(mat.ground_size)))
    scan = family.scan()
    chosen: set[int] = set()
    # a copy saved part way answers for the set held then, whatever the
    # scan it was copied from takes afterwards
    saved_at = data.draw(st.integers(0, len(order)), label="saved at")
    for i, e in enumerate(order):
        if i == saved_at:
            saved, held = scan.copy(), set(chosen)
        fits = family.independent(frozenset(chosen | {e}))
        assert scan.add(e) == fits
        if fits:
            chosen.add(e)
    if saved_at < len(order):
        for e in order[saved_at:]:
            fits = family.independent(frozenset(held | {e}))
            assert saved.add(e) == fits
            if fits:
                held.add(e)


@settings(max_examples=300, deadline=None)
@given(ANY_FAMILY, st.data())
def test_exchange_state_agrees_with_the_one_shot_query(mat, data):
    # every x in the basis and every c outside it; the basis is a maximal
    # independent set, any independent set or any set at all
    family = mat._family
    m = mat.ground_size
    basis = frozenset(data.draw(st.sets(st.integers(0, m - 1), min_size=1), label="basis"))
    shape = data.draw(st.sampled_from(["maximal", "independent", "any"]), label="shape")
    if shape == "maximal":
        basis = mat.greedy(data.draw(st.permutations(range(m)), label="order"))
    elif shape == "independent":
        basis = mat.greedy(sorted(basis))
    state = family.exchanges(basis)
    independent = family.independent(basis)
    # the one-shot fallback serves explicit families and dependent bases only
    assert isinstance(state, _OneShot) == (family.kind == "explicit" or not independent)
    for x in basis:
        for c in set(range(m)) - basis:
            assert state.fits(x, c) == family.independent(basis - {x} | {c}), (sorted(basis), x, c)


@settings(max_examples=200, deadline=None)
@given(ANY_FAMILY, st.data())
def test_greedy_matches_the_reference_scan(mat, data):
    m = mat.ground_size
    deleted = data.draw(st.sets(st.integers(0, m - 1), max_size=m - 1), label="deleted")
    view = mat.delete(deleted)
    order = data.draw(st.permutations(view.available), label="order")
    order = order[: data.draw(st.integers(0, len(order)), label="prefix")]
    if order and data.draw(st.booleans(), label="repeat"):
        # an id tried a second time: a counted no-op that spends no room
        i = data.draw(st.integers(0, len(order) - 1), label="repeated")
        j = data.draw(st.integers(i + 1, len(order)), label="again at")
        order.insert(j, order[i])
    room = data.draw(st.none() | st.integers(0, m + 1), label="room")
    a, b = view.with_fresh_counter(), view.with_fresh_counter()
    got = a.greedy(order) if room is None else frozenset(islice(a.grow(a.scan(), order), room))
    assert got == reference_greedy(b, order, room)
    assert a.oracle_calls == b.oracle_calls
