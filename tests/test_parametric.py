"""Parametric weights, sweeps, and replacement machinery."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_interdiction import parametric
from matroid_interdiction.envelope import NEG_INF, POS_INF, interior_point
from matroid_interdiction.matroid import graphic, partition, uniform
from matroid_interdiction.parametric import (
    EqualityPoint,
    Interval,
    MatroidInstance,
    all_equality_points,
    basis_line,
    crossing_cells,
    equality_point,
    exchange,
    greedy_min_basis,
    interdicted_basis_via_replacement,
    most_vital_element,
    parametric_sweep,
    pw,
    rat,
    replacement_element,
    weight_at,
    weight_order,
)

F = Fraction

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def small_weights(n):
    return st.lists(
        st.tuples(rationals, rationals).map(lambda ab: pw(*ab)),
        min_size=n,
        max_size=n,
    )


# ---------------------------------------------------------------------------
# scalars


def test_rat_conversions():
    assert rat(3) == F(3)
    assert rat("3/7") == F(3, 7)
    assert rat("0.25") == F(1, 4)
    assert rat(F(2, 5)) == F(2, 5)


def test_rat_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.1)


def test_weight_at_is_exact():
    w = pw("1/3", "-2/7")
    assert weight_at(w, F(21)) == F(1, 3) - 6


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(F(2), F(1))
    with pytest.raises(TypeError):
        Interval(0.5, F(1))
    Interval(NEG_INF, POS_INF)


# ---------------------------------------------------------------------------
# equality points


def test_equality_point_known_crossing():
    ev = equality_point(0, 1, pw(0, 1), pw(4, -1))
    assert ev.lam == F(2)
    assert (ev.leaving, ev.entering) == (0, 1)  # 0 grows faster, cheaper before
    # the pair order does not matter
    assert equality_point(1, 0, pw(4, -1), pw(0, 1)) == ev


def test_equality_point_parallel_and_self():
    assert equality_point(0, 1, pw(0, 2), pw(5, 2)) is None
    with pytest.raises(ValueError):
        equality_point(2, 2, pw(0, 1), pw(0, 1))


@settings(max_examples=200, deadline=None)
@given(a0=rationals, b0=rationals, a1=rationals, b1=rationals, t=st.fractions(min_value="1/7", max_value=3, max_denominator=7))
def test_equality_point_orders_the_pair(a0, b0, a1, b1, t):
    w0, w1 = pw(a0, b0), pw(a1, b1)
    ev = equality_point(0, 1, w0, w1)
    if ev is None:
        assert b0 == b1
        return
    wl, we = (w0, w1) if ev.leaving == 0 else (w1, w0)
    assert weight_at(wl, ev.lam) == weight_at(we, ev.lam)
    assert weight_at(wl, ev.lam - t) < weight_at(we, ev.lam - t)
    assert weight_at(wl, ev.lam + t) > weight_at(we, ev.lam + t)


def test_all_equality_points_strictly_inside_and_sorted():
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    # crossings: (0,1) at 2, (0,2) at 2, (1,2) at 2 -- all coincide
    events = all_equality_points(weights, Interval(F(0), F(5)))
    assert events == sorted(events)
    assert all(F(0) < ev.lam < F(5) for ev in events)
    assert len(events) == 3
    # an endpoint crossing is dropped
    assert all_equality_points(weights, Interval(F(2), F(5))) == []


def test_all_equality_points_respects_element_subset():
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    events = all_equality_points(weights, Interval(F(0), F(5)), elements=[0, 2])
    assert len(events) == 1
    assert {events[0].leaving, events[0].entering} == {0, 2}


# ---------------------------------------------------------------------------
# greedy and replacements


def brute_min_basis_weight(mat, weights, lam):
    elems = mat.available
    k = mat.with_fresh_counter().rank()
    best = None
    for cand in combinations(elems, k):
        if mat.is_independent(cand):
            v = sum(weight_at(weights[e], lam) for e in cand)
            if best is None or v < best:
                best = v
    return best


def test_greedy_min_basis_known_tie():
    mat = uniform(3, 1)
    weights = [pw(5, 0)] * 3
    assert greedy_min_basis(mat, weights, F(0)) == frozenset({0})


def test_weight_order_breaks_ties_by_id():
    mat = uniform(3, 2)
    weights = [pw(1, 0), pw(0, 1), pw(1, 0)]
    assert weight_order(mat, weights, F(1)) == [0, 1, 2]


@settings(max_examples=80, deadline=None)
@given(weights=small_weights(6), lam=rationals)
def test_greedy_matches_brute_minimum(weights, lam):
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    basis = greedy_min_basis(mat, weights, lam)
    assert mat.is_independent(basis) and len(basis) == 3
    got = sum(weight_at(weights[e], lam) for e in basis)
    assert got == brute_min_basis_weight(mat, weights, lam)


def test_replacement_element_picks_cheapest_then_smallest_id():
    mat = uniform(4, 2)
    weights = [pw(0, 0), pw(1, 0), pw(5, 0), pw(5, 0)]
    basis = frozenset({0, 1})
    assert replacement_element(mat, weights, basis, 0, F(0)) == 2  # tie 2 vs 3 by id
    assert replacement_element(mat, weights, basis, 0, F(0), among=[3]) == 3


def test_replacement_element_none_on_bridge():
    mat = graphic(3, [(0, 1), (1, 2)])
    weights = [pw(0, 0), pw(1, 0)]
    basis = frozenset({0, 1})
    assert replacement_element(mat, weights, basis, 1, F(0)) is None


@settings(max_examples=80, deadline=None)
@given(weights=small_weights(6), lam=rationals)
def test_replacement_equals_scratch_recompute(weights, lam):
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    basis = greedy_min_basis(mat, weights, lam)
    for e in sorted(basis):
        r = replacement_element(mat, weights, basis, e, lam)
        scratch = greedy_min_basis(mat.delete({e}), weights, lam)
        assert r is not None
        assert scratch == basis - {e} | {r}


def test_most_vital_prefers_missing_replacement():
    # edge 1 bridges to vertex 2; deleting it kills the rank
    mat = graphic(3, [(0, 1), (1, 2), (0, 1)])
    weights = [pw(0, 0), pw(1, 0), pw(5, 0)]
    basis = greedy_min_basis(mat, weights, F(0))
    assert basis == frozenset({0, 1})
    assert most_vital_element(mat, weights, basis, F(0)) == 1


def test_most_vital_tie_takes_smaller_id():
    mat = uniform(4, 2)
    weights = [pw(0, 0), pw(0, 0), pw(9, 0), pw(9, 0)]
    basis = greedy_min_basis(mat, weights, F(0))
    assert most_vital_element(mat, weights, basis, F(0)) == 0


@settings(max_examples=60, deadline=None)
@given(weights=small_weights(7), lam=rationals, data=st.data())
def test_interdicted_basis_order_independent(weights, lam, data):
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (0, 3)])
    basis = greedy_min_basis(mat, weights, lam)
    fset = tuple(data.draw(st.sets(st.sampled_from(range(7)), min_size=1, max_size=3)))
    outcomes = {
        interdicted_basis_via_replacement(mat, weights, basis, fset, lam, order=p)
        for p in permutations(fset)
    }
    assert len(outcomes) == 1
    got = outcomes.pop()
    scratch = greedy_min_basis(mat.delete(fset), weights, lam)
    if got is None:
        assert len(scratch) < len(basis)
    else:
        assert got == scratch


# ---------------------------------------------------------------------------
# the per-lam order memo

K4 = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]


def fresh_order(weights, lam, elements):
    return sorted(elements, key=lambda e: (weight_at(weights[e], lam), e))


@settings(max_examples=60, deadline=None)
@given(weights=small_weights(6), lam=rationals, drop=st.sampled_from(range(6)))
def test_memoized_tuple_matches_list(weights, lam, drop):
    mat = graphic(4, K4)
    as_tuple, as_list = tuple(weights), list(weights)
    for view in (mat, mat.delete({drop})):
        order = weight_order(view, as_tuple, lam)
        assert order == weight_order(view, as_list, lam)
        assert order == fresh_order(weights, lam, view.available)
        basis = greedy_min_basis(view, as_tuple, lam)
        assert basis == greedy_min_basis(view, as_list, lam)
        for e in sorted(basis):
            for among in (None, [r for r in range(6) if r != drop]):
                assert replacement_element(view, as_tuple, basis, e, lam, among) == (
                    replacement_element(view, as_list, basis, e, lam, among)
                )


def test_mutated_weights_list_is_not_served_stale():
    mat = uniform(4, 2)
    weights = [pw(0, 0), pw(1, 0), pw(2, 0), pw(3, 0)]
    assert weight_order(mat, weights, F(0)) == [0, 1, 2, 3]
    assert greedy_min_basis(mat, weights, F(0)) == frozenset({0, 1})
    weights[0], weights[3] = pw(9, 0), pw(-1, 0)
    assert weight_order(mat, weights, F(0)) == [3, 1, 2, 0]
    assert greedy_min_basis(mat, weights, F(0)) == frozenset({3, 1})
    assert replacement_element(mat, weights, frozenset({3, 1}), 3, F(0)) == 2


def test_alternating_weight_tuples_keep_their_own_orders():
    mat = uniform(4, 2)
    up = tuple(pw(i, 0) for i in range(4))
    down = tuple(pw(-i, 0) for i in range(4))
    for _ in range(3):
        assert weight_order(mat, up, F(1)) == [0, 1, 2, 3]
        assert weight_order(mat, down, F(1)) == [3, 2, 1, 0]
        assert replacement_element(mat, up, frozenset({0, 1}), 0, F(1)) == 2
        assert replacement_element(mat, down, frozenset({3, 2}), 3, F(1)) == 1
    # short-lived tuples built in turn: a freed tuple's id may be reused,
    # which must never serve the previous tuple's order
    for shift in range(20):
        weights = tuple(pw((i + shift) % 4, 0) for i in range(4))
        assert weight_order(mat, weights, F(0)) == fresh_order(weights, F(0), range(4))


def test_order_memo_stays_within_its_cap():
    mat = uniform(5, 2)
    weights = tuple(pw(i, (-1) ** i * i) for i in range(5))
    cap = parametric._ORDER_MEMO_CAP
    for j in range(3 * cap):
        lam = F(j - cap, 7)
        assert weight_order(mat, weights, lam) == fresh_order(weights, lam, range(5))
        held, _columns, entries = parametric._order_memo
        assert held is weights and 1 <= len(entries) <= cap


def test_weight_order_rejects_a_wrong_weight_count():
    # the memo sorts every index of the weights, so extra weights would
    # otherwise leak ids outside the ground set into the order
    for weights in ((pw(0, 0),) * 4, (pw(0, 0),) * 6):
        with pytest.raises(ValueError, match="expected 5 weights"):
            weight_order(uniform(5, 2), weights, F(0))


# ---------------------------------------------------------------------------
# the sweep


def test_exchange_trades_only_an_independent_lone_swap():
    # triangle 0-1-2 plus a pendant edge 3 and its parallel copy 4
    mat = graphic(4, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 3)]).with_fresh_counter()
    basis = frozenset({0, 1, 3})
    # 1 leaves for 2: still a spanning tree, one oracle call
    assert exchange(mat, basis, EqualityPoint(F(0), 1, 2)) == {0, 2, 3}
    assert mat.oracle_calls == 1
    # 3 leaves for its parallel copy 4: independent too
    assert exchange(mat, basis, EqualityPoint(F(0), 3, 4)) == {0, 1, 4}
    # 0 leaves for 4: {1, 3, 4} closes the cycle 3-4, so the basis stays
    assert exchange(mat, basis, EqualityPoint(F(0), 0, 4)) is basis
    assert mat.oracle_calls == 3
    # e outside the basis or f inside it: no test at all
    assert exchange(mat, basis, EqualityPoint(F(0), 2, 4)) is basis
    assert exchange(mat, basis, EqualityPoint(F(0), 0, 1)) is basis
    assert mat.oracle_calls == 3


def test_equality_points_sort_in_sweep_order():
    events = [EqualityPoint(F(1), 2, 0), EqualityPoint(F(-1), 3, 1), EqualityPoint(F(1), 0, 4)]
    assert sorted(events) == [events[1], events[2], events[0]]


def own_cells(mat, weights, interval):
    return crossing_cells(interval, all_equality_points(weights, interval, mat.available))


def check_sweep(mat, weights, interval):
    sweep = parametric_sweep(mat, weights, own_cells(mat, weights, interval))
    pieces = sweep.pieces
    assert pieces[0].lo == interval.lo and pieces[-1].hi == interval.hi
    for a, b in zip(pieces, pieces[1:]):
        assert a.hi == b.lo
    slopes = []
    for piece in pieces:
        probe = interior_point(piece.lo, piece.hi)
        assert greedy_min_basis(mat, weights, probe) == piece.label
        assert basis_line(weights, piece.label) == piece.line
        slopes.append(piece.line.slope)
    assert slopes == sorted(slopes, reverse=True), "min-basis value must be concave"
    return sweep


@settings(max_examples=60, deadline=None)
@given(weights=small_weights(6))
def test_sweep_cells_match_greedy_everywhere(weights):
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    check_sweep(mat, weights, Interval(F(-4), F(4)))


def test_sweep_unbounded_interval():
    mat = uniform(3, 2)
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    sweep = check_sweep(mat, weights, Interval(NEG_INF, POS_INF))
    assert len(sweep.pieces) >= 2


def test_sweep_point_interval():
    mat = uniform(3, 2)
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    sweep = parametric_sweep(mat, weights, own_cells(mat, weights, Interval(F(2), F(2))))
    assert len(sweep.pieces) == 1
    assert sweep.pieces[0].label == greedy_min_basis(mat, weights, F(2))


small_ints = st.tuples(st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def arrangement_cases(draw):
    """A small matroid, integer weights (so crossings coincide), an
    interval of every shape, and a deletion of up to 3 elements."""
    kind = draw(st.sampled_from(["graphic", "partition", "uniform"]))
    if kind == "graphic":
        n = draw(st.integers(2, 4))
        vertex = st.integers(0, n - 1)
        mat = graphic(n, draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7)))
    elif kind == "partition":
        blocks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=7))
        mat = partition(blocks, draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))
    else:
        m = draw(st.integers(1, 7))
        mat = uniform(m, draw(st.integers(0, m)))
    m = mat.ground_size
    weights = tuple(pw(a, b) for a, b in draw(st.lists(small_ints, min_size=m, max_size=m)))
    lo, width = draw(st.integers(-3, 3)), draw(st.integers(0, 4))
    interval = draw(
        st.sampled_from(
            [
                Interval(F(lo), F(lo)),
                Interval(F(lo), F(lo + width)),
                Interval(NEG_INF, F(lo)),
                Interval(F(lo), POS_INF),
                Interval(NEG_INF, POS_INF),
            ]
        )
    )
    deleted = draw(st.sets(st.integers(0, m - 1), max_size=min(3, m)))
    return mat, weights, interval, deleted


@settings(max_examples=300, deadline=None)
@given(case=arrangement_cases())
def test_sweep_over_the_full_arrangement_matches_its_own(case):
    # a deleted view swept over its ground set's cells gives the pieces
    # and oracle calls of a sweep over its own cells
    mat, weights, interval, deleted = case
    full = own_cells(mat, weights, interval)
    view = mat.delete(deleted)
    shared_view, own_view = view.with_fresh_counter(), view.with_fresh_counter()
    shared = parametric_sweep(shared_view, weights, full)
    own = parametric_sweep(own_view, weights, own_cells(view, weights, interval))
    assert shared.pieces == own.pieces
    assert shared_view.oracle_calls == own_view.oracle_calls
    for lo, hi, probe, crossings in full:
        assert probe == lo if lo == hi else lo < probe < hi
        assert all(ev.lam == lo for ev in crossings)


def test_sweep_cell_at():
    mat = uniform(3, 2)
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    sweep = parametric_sweep(mat, weights, own_cells(mat, weights, Interval(F(0), F(5))))
    assert sweep.piece_at(F(5)) == sweep.pieces[-1]
    with pytest.raises(ValueError):
        sweep.piece_at(F(6))


# ---------------------------------------------------------------------------
# instances


def test_instance_validation():
    mat = uniform(4, 2)
    weights = tuple(pw(i, 0) for i in range(4))
    inst = MatroidInstance(mat, weights, 2, Interval(F(0), F(1)))
    assert inst.rank == 2 and inst.ground_size == 4
    with pytest.raises(ValueError):
        MatroidInstance(mat, weights[:3], 2, Interval(F(0), F(1)))
    with pytest.raises(ValueError):
        MatroidInstance(mat, weights, 0, Interval(F(0), F(1)))
    with pytest.raises(ValueError):
        MatroidInstance(mat, weights, 5, Interval(F(0), F(1)))
