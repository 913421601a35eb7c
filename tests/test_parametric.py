"""Parametric weights, sweeps, and replacement machinery."""

from fractions import Fraction
from itertools import combinations, islice, permutations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matroid_interdiction import parametric
from matroid_interdiction.cli import generate_random, instance_from_dict
from matroid_interdiction.envelope import NEG_INF, POS_INF, Line, interior_point
from matroid_interdiction.interdiction import ALGORITHMS, solve
from matroid_interdiction.matroid import graphic, partition, uniform
from matroid_interdiction.parametric import (
    EqualityPoint,
    Interval,
    MatroidInstance,
    ParametricWeight,
    all_equality_points,
    crossing_cells,
    exchange,
    greedy_min_basis,
    parametric_sweep,
    pw,
    rat,
    weight_at,
    weight_columns,
)
from lemmas import (
    equality_point,
    insertion_swaps,
    interdicted_basis_via_replacement,
    most_vital_element,
    probe_at,
    replacement,
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
    with pytest.raises(ValueError, match="exponent notation"):
        rat("2.5E-1")


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
    columns = weight_columns(uniform(3, 1), weights)
    # crossings: (0,1) at 2, (0,2) at 2, (1,2) at 2 -- all coincide
    events = all_equality_points(columns, Interval(F(0), F(5)), range(3))
    assert events == sorted(events)
    assert all(F(0) < ev.lam < F(5) for ev in events)
    assert len(events) == 3
    # an endpoint crossing is dropped
    assert all_equality_points(columns, Interval(F(2), F(5)), range(3)) == []


def test_all_equality_points_respects_element_subset():
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    columns = weight_columns(uniform(3, 1), weights)
    events = all_equality_points(columns, Interval(F(0), F(5)), elements=[0, 2])
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
    assert greedy_min_basis(mat, probe_at(mat, weights, F(0))) == frozenset({0})


@settings(max_examples=80, deadline=None)
@given(weights=small_weights(6), lam=rationals)
def test_greedy_matches_brute_minimum(weights, lam):
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    basis = greedy_min_basis(mat, probe_at(mat, weights, lam))
    assert mat.is_independent(basis) and len(basis) == 3
    got = sum(weight_at(weights[e], lam) for e in basis)
    assert got == brute_min_basis_weight(mat, weights, lam)


def test_replacement_element_picks_cheapest_then_smallest_id():
    mat = uniform(4, 2)
    probe = probe_at(mat, [pw(0, 0), pw(1, 0), pw(5, 0), pw(5, 0)], F(0))
    basis = frozenset({0, 1})
    assert replacement(mat, probe, basis, 0) == 2  # tie 2 vs 3 by id
    assert replacement(mat, probe, basis, 0, among=[3]) == 3
    with pytest.raises(ValueError, match="element 2 is not in the basis"):
        replacement(mat, probe, basis, 2)


def test_replacement_element_none_on_bridge():
    mat = graphic(3, [(0, 1), (1, 2)])
    weights = [pw(0, 0), pw(1, 0)]
    basis = frozenset({0, 1})
    assert replacement(mat, probe_at(mat, weights, F(0)), basis, 1) is None


@settings(max_examples=80, deadline=None)
@given(weights=small_weights(6), lam=rationals)
def test_replacement_equals_scratch_recompute(weights, lam):
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    probe = probe_at(mat, weights, lam)
    basis = greedy_min_basis(mat, probe)
    for e in sorted(basis):
        r = replacement(mat, probe, basis, e)
        scratch = greedy_min_basis(mat.delete({e}), probe)
        assert r is not None
        assert scratch == basis - {e} | {r}


def test_most_vital_prefers_missing_replacement():
    # edge 1 bridges to vertex 2; deleting it kills the rank
    mat = graphic(3, [(0, 1), (1, 2), (0, 1)])
    weights = [pw(0, 0), pw(1, 0), pw(5, 0)]
    basis = greedy_min_basis(mat, probe_at(mat, weights, F(0)))
    assert basis == frozenset({0, 1})
    assert most_vital_element(mat, weights, basis, F(0)) == 1


def test_most_vital_tie_takes_smaller_id():
    mat = uniform(4, 2)
    weights = [pw(0, 0), pw(0, 0), pw(9, 0), pw(9, 0)]
    basis = greedy_min_basis(mat, probe_at(mat, weights, F(0)))
    assert most_vital_element(mat, weights, basis, F(0)) == 0


@settings(max_examples=60, deadline=None)
@given(weights=small_weights(7), lam=rationals, data=st.data())
def test_interdicted_basis_order_independent(weights, lam, data):
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (0, 3)])
    probe = probe_at(mat, weights, lam)
    basis = greedy_min_basis(mat, probe)
    fset = tuple(data.draw(st.sets(st.sampled_from(range(7)), min_size=1, max_size=3)))
    outcomes = {
        interdicted_basis_via_replacement(mat, weights, basis, fset, lam, order=p)
        for p in permutations(fset)
    }
    assert len(outcomes) == 1
    got = outcomes.pop()
    scratch = greedy_min_basis(mat.delete(fset), probe)
    if got is None:
        assert len(scratch) < len(basis)
    else:
        assert got == scratch


# ---------------------------------------------------------------------------
# the probe's weight order

K4 = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]


def fresh_order(weights, lam, elements):
    return sorted(elements, key=lambda e: (weight_at(weights[e], lam), e))


def test_weight_order_breaks_ties_by_id():
    mat = uniform(3, 2)
    weights = [pw(1, 0), pw(0, 1), pw(1, 0)]
    assert probe_at(mat, weights, F(1)).order == (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(weights=small_weights(6), lam=rationals, drop=st.sampled_from(range(6)))
def test_probe_order_matches_a_fresh_sort(weights, lam, drop):
    # one probe serves every deleted view of its ground set
    mat = graphic(4, K4)
    probe = probe_at(mat, weights, lam)
    assert list(probe.order) == fresh_order(weights, lam, range(6))
    for view in (mat, mat.delete({drop})):
        want = view.greedy(fresh_order(weights, lam, view.available))
        assert greedy_min_basis(view, probe) == want


def test_mutated_weights_list_is_not_served_stale():
    # a probe holds the columns of the weights it was built from, so an
    # edit of the list shows in the next probe and never in an earlier one
    mat = uniform(4, 2)
    weights = [pw(0, 0), pw(1, 0), pw(2, 0), pw(3, 0)]
    before = probe_at(mat, weights, F(0))
    assert greedy_min_basis(mat, before) == frozenset({0, 1})
    weights[0], weights[3] = pw(9, 0), pw(-1, 0)
    after = probe_at(mat, weights, F(0))
    assert after.order == (3, 1, 2, 0)
    assert greedy_min_basis(mat, after) == frozenset({3, 1})
    assert replacement(mat, after, frozenset({3, 1}), 3) == 2
    assert before.order == (0, 1, 2, 3)


def test_weight_order_rejects_a_wrong_weight_count():
    # a probe sorts every index of the weights, so extra weights would
    # otherwise leak ids outside the ground set into the order
    for weights in ((pw(0, 0),) * 4, (pw(0, 0),) * 6):
        with pytest.raises(ValueError, match="expected 5 weights"):
            probe_at(uniform(5, 2), weights, F(0))


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
    columns = weight_columns(mat, weights)
    return crossing_cells(interval, all_equality_points(columns, interval, mat.available), columns)


def sweep_of(view, cells, k):
    """The sweep of one view on its own: parametric_sweep's single-view case."""
    (sweep,) = parametric_sweep(view, cells, k).values()
    return sweep


def basis_at(sweep, lam):
    """The basis of the first piece covering lam."""
    return next(p.basis for p in sweep if p.lo <= lam <= p.hi)


def check_tiling(pieces, interval):
    """The pieces cover the interval end to end, none of zero length but
    on a point interval, and neighbours hold different bases."""
    assert pieces[0].lo == interval.lo and pieces[-1].hi == interval.hi
    for a, b in zip(pieces, pieces[1:]):
        assert a.hi == b.lo
        assert a.basis != b.basis
    assert all(p.lo < p.hi for p in pieces) or interval.lo == interval.hi


def check_sweep(mat, weights, interval):
    pieces = sweep_of(mat, own_cells(mat, weights, interval), mat.rank())
    d = weight_columns(mat, weights)[0]
    check_tiling(pieces, interval)
    slopes = []
    for piece in pieces:
        probe = probe_at(mat, weights, interior_point(piece.lo, piece.hi))
        assert greedy_min_basis(mat, probe) == piece.basis
        line = Line.from_ints(d, *piece.line)
        assert line == (sum(weights[e].b for e in piece.basis), sum(weights[e].a for e in piece.basis))
        slopes.append(line.slope)
    assert slopes == sorted(slopes, reverse=True), "min-basis value must be concave"
    return pieces


@settings(max_examples=60, deadline=None)
@given(weights=small_weights(6))
def test_sweep_cells_match_greedy_everywhere(weights):
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    check_sweep(mat, weights, Interval(F(-4), F(4)))


def test_sweep_unbounded_interval():
    mat = uniform(3, 2)
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    sweep = check_sweep(mat, weights, Interval(NEG_INF, POS_INF))
    assert len(sweep) >= 2


def test_sweep_point_interval():
    mat = uniform(3, 2)
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    sweep = sweep_of(mat, own_cells(mat, weights, Interval(F(2), F(2))), mat.rank())
    assert len(sweep) == 1
    assert sweep[0].basis == greedy_min_basis(mat, probe_at(mat, weights, F(2)))


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
    k = view.rank()  # the view's own rank: a view of lower rank than k is a kill
    shared = sweep_of(shared_view, full, k)
    own = sweep_of(own_view, own_cells(view, weights, interval), k)
    assert shared == own
    assert shared_view.oracle_calls == own_view.oracle_calls
    for lo, hi, probe, crossings in full:
        assert probe.lam == lo if lo == hi else lo < probe.lam < hi
        assert all(ev.lam == lo for ev in crossings)


def test_coincident_crossings_come_as_a_chain_of_adjacent_swaps():
    # lines through (0, 0) with slopes 0, 2, 1: sorted by ids, the group
    # would swap 1 and 0 first, which are not neighbours left of 0
    mat = uniform(3, 1)
    weights = [pw(0, 0), pw(0, 2), pw(0, 1)]
    interval = Interval(F(-1), F(1))
    events = all_equality_points(weight_columns(mat, weights), interval, mat.available)
    assert events == [(0, 1, 0), (0, 1, 2), (0, 2, 0)]
    (_, _, before, _), (_, _, after, crossings) = own_cells(mat, weights, interval)
    assert (before.order, after.order) == ((1, 2, 0), (0, 2, 1))
    assert crossings == ((0, 1, 2), (0, 1, 0), (0, 2, 0))


@st.composite
def pencil_cases(draw):
    """arrangement_cases with some weight lines redrawn through one
    point, so that many crossings share a lam, next to identical and
    parallel lines and the loops of the graphic and partition draws."""
    mat, weights, interval, deleted = draw(arrangement_cases())
    x0, y0 = draw(st.integers(-2, 2)), draw(st.integers(-3, 3))
    through = draw(st.sets(st.sampled_from(range(len(weights)))))
    weights = tuple(pw(y0 - x0 * w.b, w.b) if e in through else w for e, w in enumerate(weights))
    return mat, weights, interval, deleted


@settings(max_examples=300, deadline=None)
@given(case=pencil_cases(), copies=st.booleans())
def test_crossing_cells_group_exactly_the_events_of_one_lam(case, copies):
    # all_equality_points' events share one lam object per group; events
    # built elsewhere hold equal lams in distinct objects.  Either way a
    # cell starts at each distinct lam, its crossings are the pairs that
    # cross there, and its probe lies strictly inside it
    mat, weights, interval, _deleted = case
    columns = weight_columns(mat, weights)
    events = all_equality_points(columns, interval, mat.available)
    if copies:
        events = [EqualityPoint(F(ev.lam.numerator, ev.lam.denominator), ev.leaving, ev.entering) for ev in events]
    cells = crossing_cells(interval, events, columns)
    lams = sorted({ev.lam for ev in events})
    assert [(lo, hi) for lo, hi, _probe, _crossings in cells] == list(zip([interval.lo, *lams], [*lams, interval.hi]))
    for lo, hi, probe, crossings in cells:
        assert lo < probe.lam < hi or lo == probe.lam == hi
        assert all(ev.lam == lo for ev in crossings)
        assert {ev[1:] for ev in crossings} == {ev[1:] for ev in events if ev.lam == lo}


@settings(max_examples=300, deadline=None)
@given(case=pencil_cases())
@example(case=(uniform(3, 1), (pw(0, 0), pw(0, 2), pw(0, 1)), Interval(F(-1), F(1)), set()))
def test_crossing_cells_chain_each_group_as_an_insertion_sort(case):
    # brute's exchange tests follow the chain swap by swap, so its
    # oracle calls depend on the exact chain, not only on its being
    # valid: each group comes in the order in which an insertion sort of
    # its elements swaps them, on the full ground set and on a view
    mat, weights, interval, deleted = case
    for view in (mat, mat.delete(deleted)):
        columns = weight_columns(view, weights)
        events = all_equality_points(columns, interval, view.available)
        for lo, _hi, _probe, crossings in crossing_cells(interval, events, columns)[1:]:
            assert crossings == insertion_swaps(lo, [ev for ev in events if ev.lam == lo], columns)


def replay(order, crossings, elements):
    """order restricted to elements, then the crossings between two of
    them applied as swaps, each of two neighbours, leaving one first."""
    order = [e for e in order if e in elements]
    for ev in crossings:
        if ev.leaving in elements and ev.entering in elements:
            i = order.index(ev.leaving)
            assert order[i + 1] == ev.entering, (order, ev)
            order[i : i + 2] = [ev.entering, ev.leaving]
    return order


@settings(max_examples=300, deadline=None)
@given(case=pencil_cases())
def test_sweep_replays_coincident_crossings_as_adjacent_swaps(case):
    mat, weights, interval, deleted = case
    full = own_cells(mat, weights, interval)
    view = mat.delete(deleted)
    available = set(view.available)
    own = {lo: crossings for lo, _hi, _probe, crossings in own_cells(view, weights, interval)[1:]}
    # the ceiling: one greedy in the first cell, then one test per live
    # swap, lone or in a coincident group
    ceiling = len(available)
    for (_, _, before, _), (lo, _, after, crossings) in zip(full, full[1:]):
        for elements in (set(mat.available), available):
            assert replay(before.order, crossings, elements) == [e for e in after.order if e in elements]
        live = tuple(ev for ev in crossings if ev.leaving in available and ev.entering in available)
        assert live == own.get(lo, ())
        ceiling += len(live)
    counted = view.with_fresh_counter()
    sweep = sweep_of(counted, full, view.rank())  # its own rank, so that no deletion kills it
    assert counted.oracle_calls <= ceiling
    for _lo, _hi, probe, _crossings in full:
        assert basis_at(sweep, probe.lam) == greedy_min_basis(view.with_fresh_counter(), probe)


def test_sweep_replays_a_group_outnumbering_the_elements():
    # 8 loops and an 8-cycle, all 16 weight lines through (0, 0), the
    # cycle edges steeper: one group of 120 crossings, more than the 16
    # elements, which every deletion set replays swap by swap
    cycle = graphic(8, [(i, i) for i in range(8)] + [(i, (i + 1) % 8) for i in range(8)])
    weights = tuple(pw(0, e) for e in range(16))
    inst = MatroidInstance(cycle, weights, 1, Interval(F(-1), F(1)))
    assert len(own_cells(cycle, weights, inst.interval)[1][3]) == 120
    # no deletion kills the rank, 7.  Left of 0 the cycle edges come
    # first, from 15 down: the full matroid's basis takes 15..9 in 7
    # calls, the 9 sets that miss it take it free, and a set deleting
    # edge e of 9..15 takes B0's answers before e and tries the e - 8
    # edges after it, 1 + 2 + ... + 7 = 28 calls in all.  Those 9 sets
    # hold B0, the 7 others one basis each: 8 distinct bases.  At 0 a
    # swap e -> f costs a basis one test when e is in it and f is neither
    # in it nor deleted by every set holding it.  The swaps onto edges
    # 14..9 find f in each basis or deleted; 15 -> 8 trades 15 for 8 in
    # B0, where (8,) stays and the 8 loop-deleting sets join (15,) on
    # B0 - 15 + 8, and the later swaps onto 8 find it in the basis or
    # deleted by all.  Then each loop passes all 8 edges, and each of the
    # 8 bases fails one test per edge it holds: 8 * 8 * 7 tests
    assert solve(inst, "brute").oracle_calls == 7 + sum(range(1, 8)) + 1 + 8 * 8 * 7


def test_sets_that_never_part_share_one_sweep():
    # the pencil above: the 8 loop-deleting sets keep one basis through
    # every swap at 0, so they stay one group and share one sweep,
    # although their basis moves there.  Equal sweeps need not share
    # one: groups that split can meet again, as in uniform(4, 1) with
    # weights pw(0, e), where (1,) and (2,) part at 0 and end on one basis
    cycle = graphic(8, [(i, i) for i in range(8)] + [(i, (i + 1) % 8) for i in range(8)])
    cells = own_cells(cycle, tuple(pw(0, e) for e in range(16)), Interval(F(-1), F(1)))
    walk = parametric_sweep(cycle, cells, 7, list(combinations(range(16), 1)))
    loops = [walk[(j,)] for j in range(8)]
    assert len(loops[0]) == 2 and all(sweep is loops[0] for sweep in loops)


@st.composite
def walk_cases(draw):
    """arrangement_cases or pencil_cases, with a budget of 1 to 3."""
    mat, weights, interval, _deleted = draw(arrangement_cases() | pencil_cases())
    return mat, weights, interval, draw(st.integers(1, min(3, mat.ground_size)))


@settings(max_examples=300, deadline=None)
@given(case=walk_cases())
@example(case=(graphic(4, [(0, 1), (0, 1), (1, 2), (2, 3)]), tuple(pw(e, 1 - e) for e in range(4)), Interval(F(-2), F(2)), 1))
@example(case=(uniform(4, 1), tuple(pw(0, e) for e in range(4)), Interval(F(-1), F(1)), 1))
@example(case=(graphic(3, [(0, 1), (1, 2), (0, 0)]), (pw(0, 0),) * 3, Interval(F(0), F(0)), 1))
def test_one_walk_sweeps_every_deletion_set_as_it_would_alone(case):
    # the walk gives every set the pieces of its sweep alone, over its own
    # cells, and ends at the first set that kills the rank (in the first
    # example, (2,), a bridge); it costs at most the sweeps alone and the
    # full matroid's first basis.  Each set's pieces tile the interval,
    # one per basis: in the second example, a pencil, two swaps at 0
    # move every set's basis, and the set still gets one piece there.  In
    # the third, (0,) kills and (1,) would too: a walk that went on past
    # the first killer would ask 5 queries against the 4 allowed
    mat, weights, interval, ell = case
    cells = own_cells(mat, weights, interval)
    k = mat.rank()
    sets = list(combinations(mat.available, ell))
    walker, first = mat.with_fresh_counter(), mat.with_fresh_counter()
    walk = parametric_sweep(walker, cells, k, sets)
    frozenset(islice(first.grow(first.scan(), cells[0][2].order), k))
    alone_calls = first.oracle_calls
    alone = {}
    for fs in sets:
        view = mat.delete(fs).with_fresh_counter()
        alone[fs] = sweep_of(view, own_cells(view, weights, interval), k)
        alone_calls += view.oracle_calls
        if alone[fs] is None:
            assert walk == {fs: None}
            break
    else:
        assert walk == alone and list(walk) == sets
        for fs, sweep in walk.items():
            check_tiling(sweep, interval)
            for _lo, _hi, probe, _crossings in cells:
                assert basis_at(sweep, probe.lam) == greedy_min_basis(mat.delete(fs), probe)
    assert walker.oracle_calls <= alone_calls


PINNED_PARTITION = instance_from_dict(generate_random("partition", 12, 3, 2, 5))


@settings(max_examples=300, deadline=None)
@given(case=walk_cases())
@example(case=(PINNED_PARTITION.matroid, PINNED_PARTITION.weights, PINNED_PARTITION.interval, PINNED_PARTITION.ell))
def test_the_walk_tests_each_basis_once_per_swap(case):
    # sets that part and later meet on one basis share its entry, so a
    # swap reaches the oracle at most once per basis: no (basis, lam,
    # leaving, entering) test repeats within one walk.  The example is
    # the pinned partition spec, whose sets meet again after parting
    mat, weights, interval, ell = case
    tests = []

    def spy(matroid, basis, ev):
        if ev.leaving in basis and ev.entering not in basis:  # the cases exchange() tests
            tests.append((basis, ev))
        return exchange(matroid, basis, ev)

    with patch.object(parametric, "exchange", spy):
        parametric_sweep(mat, own_cells(mat, weights, interval), mat.rank(), list(combinations(mat.available, ell)))
    assert len(set(tests)) == len(tests)


@st.composite
def first_cell_cases(draw):
    """A view of arrangement_cases' or pencil_cases' matroid that deletes
    their drawn elements, the cells of its ground set, a k up to its
    rank, and deletion sets of its available elements: every ell-subset
    for an ell of 1 to 3, or distinct sets of mixed sizes in any order."""
    mat, weights, interval, deleted = draw(arrangement_cases() | pencil_cases())
    view = mat.delete(deleted)
    available = view.available
    if draw(st.booleans()):
        sets = list(combinations(available, draw(st.integers(1, 3))))
    elif available:
        deletion = st.lists(st.sampled_from(available), unique=True, max_size=3).map(tuple)
        sets = draw(st.lists(deletion, unique_by=frozenset, min_size=1, max_size=8))
    else:
        sets = [()]
    return view, own_cells(mat, weights, interval), draw(st.integers(0, view.rank())), sets


def greedy_queries(order, fs, basis, k):
    """The (deletions before p, p) pairs of the greedy along order
    without fs that took basis: one per position it tried."""
    taken = 0
    for p, e in enumerate(order):
        if taken == k:
            return
        if e not in fs:
            yield frozenset(order[:p]).intersection(fs), p
            taken += e in basis


@settings(max_examples=300, deadline=None)
@given(case=first_cell_cases())
@example(case=(uniform(5, 3).delete([4]), own_cells(uniform(5, 3), tuple(pw(e, 0) for e in range(5)), Interval(F(0), F(1))), 3, [(2,), (0, 1), (), (3, 0)]))
def test_first_cell_walk_gives_each_set_its_own_greedy_basis(case):
    # the walk over the first cell alone: each set gets the greedy basis
    # of its own deleted view, stopped at k, and the walk ends at the
    # first set short of k.  It asks each (deletions before a position,
    # position) pair at most once, so no more than the pairs of B0's scan
    # and of the sets' own greedies up to that set, and so no more calls
    # than those greedies and B0's scan make
    view, cells, k, sets = case
    lo, hi, probe, _crossings = cells[0]
    order = [e for e in probe.order if e not in view.deleted]
    walker, first = view.with_fresh_counter(), view.with_fresh_counter()
    walk = parametric_sweep(walker, cells[:1], k, sets)
    b0 = frozenset(islice(first.grow(first.scan(), order), k))
    calls, pairs = first.oracle_calls, set(greedy_queries(order, (), b0, k))
    expected = {}
    for fs in sets:
        alone = view.delete(fs).with_fresh_counter()
        basis = frozenset(islice(alone.grow(alone.scan(), [e for e in order if e not in fs]), k))
        calls += alone.oracle_calls
        pairs.update(greedy_queries(order, fs, basis, k))
        if len(basis) < k:
            assert walk == {fs: None}
            break
        expected[fs] = basis
    else:
        assert list(walk) == sets
        assert all(sweep == ((lo, hi, sweep[0].line, expected[fs]),) for fs, sweep in walk.items())
    assert walker.oracle_calls <= len(pairs) <= calls


def test_sweep_cell_at():
    mat = uniform(3, 2)
    weights = [pw(0, 1), pw(4, -1), pw(2, 0)]
    sweep = sweep_of(mat, own_cells(mat, weights, Interval(F(0), F(5))), mat.rank())
    assert basis_at(sweep, F(5)) == sweep[-1].basis
    with pytest.raises(StopIteration):
        basis_at(sweep, F(6))


# ---------------------------------------------------------------------------
# the replacement search against one-shot queries


def reference_replacement(matroid, weights, basis, e, lam, among=None):
    """The replacement search written out: one one-shot query per candidate."""
    pool = matroid.available if among is None else among
    rest = set(basis) - {e}
    for r in sorted((r for r in pool if r not in basis), key=lambda r: (weight_at(weights[r], lam), r)):
        if matroid.is_independent(rest | {r}):
            return r
    return None


@settings(max_examples=300, deadline=None)
@given(case=arrangement_cases(), lam=rationals, data=st.data())
def test_replacement_element_matches_the_reference_search(case, lam, data):
    # same element, same oracle calls, same refusal: on greedy bases and
    # on arbitrary (possibly dependent) ones, with and without among=,
    # whose pool may hold deleted elements
    mat, weights, _interval, deleted = case
    view = mat.delete(deleted)
    if not view.available:
        return
    probe = probe_at(mat, weights, lam)
    if data.draw(st.booleans(), label="greedy basis"):
        basis = greedy_min_basis(view.with_fresh_counter(), probe)
    else:
        basis = frozenset(data.draw(st.sets(st.sampled_from(view.available), min_size=1), label="basis"))
    if not basis:
        return
    e = data.draw(st.sampled_from(sorted(basis)), label="e")
    among = data.draw(st.none() | st.sets(st.integers(0, mat.ground_size - 1)), label="among")
    fast, slow = view.with_fresh_counter(), view.with_fresh_counter()
    try:
        want = reference_replacement(slow, weights, basis, e, lam, among)
    except ValueError:
        with pytest.raises(ValueError, match="deleted"):
            replacement(fast, probe, basis, e, among)
    else:
        assert replacement(fast, probe, basis, e, among) == want
    assert fast.oracle_calls == slow.oracle_calls


def test_replacement_element_charges_every_candidate_of_a_dependent_basis():
    # basis - {3} = {0, 1, 2} is a triangle, so no candidate completes it
    mat = graphic(3, [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2), (0, 2)])
    weights = [pw(i, 0) for i in range(6)]
    counted = mat.with_fresh_counter()
    assert replacement(counted, probe_at(counted, weights, F(0)), frozenset({0, 1, 2, 3}), 3) is None
    assert counted.oracle_calls == 2  # candidates 4 and 5


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
    # ell counts the available elements, not the ground set
    with pytest.raises(ValueError, match=r"ell=2 outside 1\.\.1"):
        MatroidInstance(uniform(3, 1).delete([0, 1]), weights[:3], 2, Interval(F(0), F(1)))
    assert MatroidInstance(uniform(3, 1).delete([0, 1]), weights[:3], 1, Interval(F(0), F(1))).rank == 1
    # int components become Fractions: int / int would make a float
    # crossing, which no solver can order exactly
    raw = (ParametricWeight(0, 1), ParametricWeight(1, -1), ParametricWeight(2, 0))
    interval = Interval(F(-2), F(2))
    inst = MatroidInstance(uniform(3, 1), raw, 1, interval)
    twin = MatroidInstance(uniform(3, 1), tuple(pw(a, b) for a, b in raw), 1, interval)
    assert inst.weights == twin.weights
    assert all(type(x) is Fraction for w in inst.weights for x in w)
    for algorithm in ALGORITHMS:
        assert solve(inst, algorithm).envelope == solve(twin, algorithm).envelope
    with pytest.raises(TypeError, match="inexact float"):
        MatroidInstance(uniform(3, 1), (ParametricWeight(0.5, 1), *raw[1:]), 1, interval)


def test_instance_takes_plain_pairs_as_weights():
    raw = ((0, 1), [1, -1], ("2", "1/2"))
    inst = MatroidInstance(uniform(3, 1), raw, 1, Interval(F(-2), F(2)))
    assert inst.weights == (pw(0, 1), pw(1, -1), pw(2, F(1, 2)))
    assert all(type(w) is ParametricWeight for w in inst.weights)


@pytest.mark.parametrize("bad", [(1, 2, 3), (1,), 5, "12", None])
def test_instance_rejects_a_weight_that_is_not_a_pair(bad):
    weights = (pw(0, 1), bad, pw(2, 0))
    with pytest.raises(TypeError, match=r"weight 1 must be an \(a, b\) pair"):
        MatroidInstance(uniform(3, 1), weights, 1, Interval(F(0), F(1)))


@pytest.mark.parametrize("ell", [True, False, 1.0, F(1), "1"])
def test_instance_rejects_a_budget_that_is_not_an_int(ell):
    weights = tuple(pw(i, 0) for i in range(3))
    with pytest.raises(TypeError, match="budget ell must be an int"):
        MatroidInstance(uniform(3, 1), weights, ell, Interval(F(0), F(1)))
