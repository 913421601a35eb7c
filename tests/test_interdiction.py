"""Solver internals: layered bases, updates, the candidate tree, caps."""

import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matroid_interdiction import interdiction, parametric
from matroid_interdiction.cli import generate_random, instance_from_dict
from matroid_interdiction.envelope import (
    NEG_INF,
    POS_INF,
    Line,
    Piece,
    PiecewiseLinearFunction,
    concatenate,
    envelope_of_lines,
    interior_point,
    upper_envelope,
)
from matroid_interdiction.interdiction import (
    ALGORITHMS,
    EnumerationCapExceeded,
    SegmentLabel,
    candidate_tree,
    changepoint_bound,
    layered_bases,
    solve,
    solve_brute,
    update_interdicted_set,
    update_u,
)
from matroid_interdiction.matroid import Matroid, explicit, graphic, partition, uniform
from matroid_interdiction.oracle import verify_solution
from matroid_interdiction.parametric import (
    EqualityPoint,
    Interval,
    MatroidInstance,
    all_equality_points,
    basis_line,
    crossing_cells,
    greedy_min_basis,
    parametric_sweep,
    pw,
    weight_columns,
)
from lemmas import changepoint_bound_secondary, probe_at, value_line
from test_parametric import arrangement_cases

F = Fraction


def uniform_instance(m, k, ell, weights=None, lo=-3, hi=3):
    ws = weights or [pw(i, (-1) ** i) for i in range(m)]
    return MatroidInstance(uniform(m, k), tuple(ws), ell, Interval(F(lo), F(hi)))


# ---------------------------------------------------------------------------
# bounds


def test_changepoint_bound_values():
    assert changepoint_bound(2, 1, 1) == 1
    assert changepoint_bound(10, 4, 2) == 720
    assert changepoint_bound_secondary(10, 4, 2) == 720
    assert changepoint_bound(36, 5, 3) == comb(36, 2) * comb(6, 2) * 5
    # rank 0: the candidate tree is empty, so is the bound
    assert [changepoint_bound(10, 0, ell) for ell in (1, 2, 3)] == [0, 0, 0]


# ---------------------------------------------------------------------------
# layered bases


def test_layered_bases_structure():
    mat = uniform(6, 2)
    weights = [pw(i, 0) for i in range(6)]
    lb = layered_bases(mat, probe_at(mat, weights, F(0)), depth=3)
    assert lb.layers == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
    assert lb.union == frozenset(range(6))
    assert [len(layer) for layer in lb.layers] == [2, 2, 2]
    assert lb.layer_of(3) == 1 and lb.layer_of(9) is None


def test_layered_bases_each_layer_is_greedy_of_remainder():
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    weights = [pw(i % 4, (-1) ** i) for i in range(6)]
    probe = probe_at(mat, weights, F(1, 2))
    lb = layered_bases(mat, probe, depth=2)
    deleted = frozenset()
    for layer in lb.layers:
        assert layer == greedy_min_basis(mat.delete(deleted), probe)
        deleted |= layer


def test_layered_bases_truncation():
    mat = uniform(3, 2)
    weights = [pw(i, 0) for i in range(3)]
    lb = layered_bases(mat, probe_at(mat, weights, F(0)), depth=3)
    assert lb.layers == (frozenset({0, 1}), frozenset({2}), frozenset())
    assert [len(layer) for layer in lb.layers] == [2, 1, 0]


def test_layered_bases_depth_validation():
    with pytest.raises(ValueError):
        mat = uniform(2, 1)
        layered_bases(mat, probe_at(mat, [pw(0, 0)] * 2, F(0)), depth=0)


# ---------------------------------------------------------------------------
# incremental updates, deterministic cases


def test_update_u_ignores_outside_element():
    mat = uniform(6, 2)
    weights = [pw(i, 0) for i in range(6)]
    lb = layered_bases(mat, probe_at(mat, weights, F(0)), depth=2)  # {0,1}, {2,3}
    ev = EqualityPoint(F(1), 5, 4)  # neither is in the union
    assert update_u(mat, lb, ev, probe_at(mat, weights, F(2)), {}) is lb


def test_update_u_ignores_already_preferred():
    mat = uniform(6, 2)
    weights = [pw(i, 0) for i in range(6)]
    lb = layered_bases(mat, probe_at(mat, weights, F(0)), depth=2)
    ev = EqualityPoint(F(1), 3, 0)  # f sits in an earlier layer than e
    assert update_u(mat, lb, ev, probe_at(mat, weights, F(2)), {}) is lb


def test_update_u_last_layer_absorbs_outsider():
    mat = uniform(6, 2)
    weights = [pw(0, 0), pw(1, 0), pw(2, 0), pw(3, 1), pw(4, 0), pw(5, 0)]
    lb = layered_bases(mat, probe_at(mat, weights, F(0)), depth=2)  # {0,1}, {2,3}
    ev = EqualityPoint(F(1), 3, 4)  # 3 leaves the last layer for outsider 4
    new = update_u(mat, lb, ev, probe_at(mat, weights, F(2)), {})
    assert new.layers == (frozenset({0, 1}), frozenset({2, 4}))


def test_update_u_inner_layer_swap_refused():
    # edges 0, 2, 3 are parallel; the crossing outsider 2 cannot replace
    # 1 in layer 0 because {0, 2} closes a cycle, so nothing changes
    mat = graphic(3, [(0, 1), (1, 2), (0, 1), (0, 1), (1, 2)])
    weights = [pw(0, 0), pw(2, 1), pw(3, -1), pw(1, 0), pw(10, 0)]
    lb = layered_bases(mat, probe_at(mat, weights, F(1, 4)), depth=2)
    assert lb.layers == (frozenset({0, 1}), frozenset({3, 4}))
    ev = EqualityPoint(F(1, 2), 1, 2)
    assert update_u(mat, lb, ev, probe_at(mat, weights, F(5, 4)), {}) is lb


def test_update_u_adjacent_layers_trade():
    mat = uniform(6, 2)
    weights = [pw(0, 0), pw(1, 1), pw(2, 0), pw(3, 0), pw(4, 0), pw(5, 0)]
    lb = layered_bases(mat, probe_at(mat, weights, F(0)), depth=2)  # {0,1}, {2,3}
    ev = EqualityPoint(F(1), 1, 2)  # 1 (layer 0) crosses 2 (layer 1)
    new = update_u(mat, lb, ev, probe_at(mat, weights, F(2)), {})
    assert new.layers == (frozenset({0, 2}), frozenset({1, 3}))
    assert new.union == lb.union


def test_update_u_adjacent_crossing_ripples_through_deeper_layers():
    # after 2 replaces 1 in layer 0, layer 1 sees 1 return and 2 leave;
    # 1 makes the parallel survivor 4 redundant and frees 3, so layer 1
    # is rebuilt wholesale and even the union changes
    mat = graphic(3, [(1, 2), (0, 2), (0, 1), (0, 1), (1, 2)])
    weights = [pw(1, 0), pw(10, 1), pw(12, -1), pw(14, 0), pw(15, 0)]
    lb = layered_bases(mat, probe_at(mat, weights, F(1, 2)), depth=2)
    assert lb.layers == (frozenset({0, 1}), frozenset({2, 4}))
    ev = EqualityPoint(F(1), 1, 2)
    new = update_u(mat, lb, ev, probe_at(mat, weights, F(2)), {})
    assert new.layers == layered_bases(mat, probe_at(mat, weights, F(2)), depth=2).layers
    assert new.layers == (frozenset({0, 2}), frozenset({1, 3}))
    assert new.union != lb.union


@st.composite
def truncated_layer_cases(draw):
    """(matroid, weights, depth) whose layers run out of rank before depth.

    A uniform matroid with fewer than depth * k elements, a partition
    matroid with low capacities, or a sparse graph: a spanning tree and
    at most two more edges on four or five vertices.
    """
    depth = draw(st.integers(2, 3))
    family = draw(st.sampled_from(["uniform", "partition", "graphic"]))
    if family == "uniform":
        k = draw(st.integers(1, 3))
        mat = uniform(draw(st.integers(k, depth * k - 1)), k)
    elif family == "partition":
        capacities = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
        block = st.integers(0, len(capacities) - 1)
        mat = partition(draw(st.lists(block, min_size=3, max_size=7)), capacities)
    else:
        n = draw(st.integers(4, 5))
        tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        vertex = st.integers(0, n - 1)
        mat = graphic(n, tree + draw(st.lists(st.tuples(vertex, vertex), max_size=2)))
    m = mat.ground_size
    lines = st.tuples(st.integers(-20, 20), st.integers(-5, 5))
    weights = [pw(a, b) for a, b in draw(st.lists(lines, min_size=m, max_size=m))]
    return mat, weights, depth


@settings(max_examples=300, deadline=None)
@given(truncated_layer_cases())
@example((uniform(3, 2), [pw(0, 1), pw(1, 0), pw(2, 0)], 3))
def test_update_u_on_truncated_layers_equals_a_scratch_rebuild(case):
    # a lone crossing moves one greedy basis by at most e <-> f, whatever
    # the sizes of the layers below it, so the repair is exact and never
    # dearer than the rebuild
    mat, weights, depth = case
    interval = Interval(NEG_INF, POS_INF)
    columns = weight_columns(mat, weights)
    cells = crossing_cells(interval, all_equality_points(columns, interval, mat.available), columns)
    lb = layered_bases(mat, cells[0][2], depth=depth)
    truncated = 0
    for _lo, _hi, probe, crossings in cells[1:]:
        scratch_view = mat.with_fresh_counter()
        scratch = layered_bases(scratch_view, probe, depth=depth)
        if len(crossings) == 1 and len(lb.layers[-1]) < len(lb.layers[0]):
            view = mat.with_fresh_counter()
            assert update_u(view, lb, crossings[0], probe, {}).layers == scratch.layers
            assert view.oracle_calls <= scratch_view.oracle_calls
            truncated += 1
        lb = scratch
    assume(truncated)


def test_update_interdicted_set_rename_follows_deletion():
    mat = uniform(5, 2)
    F_del = frozenset({3})
    basis = frozenset({0, 1})
    ev = EqualityPoint(F(1), 3, 4)  # the union {0, 1, 2, 3} renames 3 to 4
    new_f, new_b = update_interdicted_set(mat, F_del, basis, ev, renamed=True, swaps={})
    assert new_f == frozenset({4})
    assert new_b == basis  # f was not serving as the replacement


def test_update_interdicted_set_rename_swaps_back_replacement():
    mat = uniform(5, 2)
    F_del = frozenset({0})
    basis = frozenset({1, 4})  # 4 replaced the deleted 0
    ev = EqualityPoint(F(1), 0, 4)  # the union {0, 1, 2, 3} renames 0 to 4
    new_f, new_b = update_interdicted_set(mat, F_del, basis, ev, renamed=True, swaps={})
    assert new_f == frozenset({4})
    assert new_b == frozenset({1, 0})


def test_update_interdicted_set_plain_swap():
    mat = uniform(5, 2)
    F_del = frozenset({4})
    basis = frozenset({0, 1})
    ev = EqualityPoint(F(1), 1, 2)  # both inside the union {0, 1, 2, 3}
    new_f, new_b = update_interdicted_set(mat, F_del, basis, ev, renamed=False, swaps={})
    assert new_f == F_del
    assert new_b == frozenset({0, 2})


def test_update_interdicted_set_respects_deleted_entering():
    mat = uniform(5, 2)
    F_del = frozenset({2})
    basis = frozenset({0, 1})
    ev = EqualityPoint(F(1), 1, 2)  # entering element is deleted in this view
    new_f, new_b = update_interdicted_set(mat, F_del, basis, ev, renamed=False, swaps={})
    assert (new_f, new_b) == (F_del, basis)


# ---------------------------------------------------------------------------
# candidate tree


def test_candidate_tree_count_and_bases():
    mat = uniform(8, 3)
    weights = [pw(i, (-1) ** i) for i in range(8)]
    ell = 2
    probe = probe_at(mat, weights, F(1, 3))
    cands = candidate_tree(mat, probe, ell, {})
    k = 3
    assert len(cands) == k * comb(k + ell - 2, ell - 1)
    for fset, basis in cands:
        assert len(fset) == ell
        assert basis == greedy_min_basis(mat.delete(fset), probe)


def test_candidate_tree_contains_optimum_per_cell():
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    weights = [pw(i % 3, (i % 2) - 1) for i in range(6)]
    inst = MatroidInstance(mat, tuple(weights), 2, Interval(F(-2), F(2)))
    brute = solve_brute(inst)
    events = all_equality_points(weight_columns(mat, weights), inst.interval, mat.available)
    lams = sorted({ev.lam for ev in events})
    for lo, hi in zip([inst.interval.lo, *lams], [*lams, inst.interval.hi]):
        probe = probe_at(mat, weights, interior_point(lo, hi))
        best = max(
            value_line(probe.columns, basis).value_at(probe.lam)
            for _f, basis in candidate_tree(mat, probe, 2, {})
        )
        assert best == brute.envelope.evaluate(probe.lam)


def test_candidate_tree_flags_killing_sets():
    mat = uniform(4, 2)
    weights = [pw(i, 0) for i in range(4)]
    cands = candidate_tree(mat, probe_at(mat, weights, F(0)), 3, {})
    assert any(basis is None for _f, basis in cands)


# ---------------------------------------------------------------------------
# infinite and degenerate instances


def test_all_solvers_agree_on_infinite_instance():
    inst = uniform_instance(5, 3, 3)
    # brute: 3 for the full matroid's first basis, which (0, 1, 2) meets,
    # then 2 for the greedy of the two elements that deletion leaves; uset
    # and tree pay those 5 too, for the same walk over the first cell,
    # once their own cells report the kill
    calls = {"brute": 5, "uset": 14, "tree": 21}
    for name in ALGORITHMS:
        sol = solve(inst, name)
        assert sol.value_at(F(0)) == POS_INF
        assert sol.changepoints == ()
        assert sol.envelope.pieces[0].label == SegmentLabel((0, 1, 2), ())
        assert sol.algorithm == name
        assert sol.oracle_calls == calls[name]


def test_bridge_deletion_is_infinite():
    # path 0-1-2: either edge is a bridge
    path = MatroidInstance(
        graphic(3, [(0, 1), (1, 2)]), (pw(0, 0), pw(1, 0)), 1, Interval(F(0), F(1))
    )
    # edge 1 = (2, 3) is a bridge
    pendant = MatroidInstance(
        graphic(4, [(0, 1), (2, 3), (1, 2), (0, 2), (0, 1)]),
        (pw(0, 1), pw(1, -1), pw(2, 0), pw(3, 1), pw(-1, 2)),
        1,
        Interval(F(-3), F(3)),
    )
    # uset and tree pay brute's calls again for the same first-cell walk
    cases = [
        # brute: 2 for the full matroid's first basis, 1 for the greedy of (0,)
        (path, (0,), {"brute": 3, "uset": 6, "tree": 5}),
        # brute: 5 for the full matroid's first basis {1, 3, 4}, which (0,)
        # misses, so it takes that basis free; (1,) takes B0's answers before
        # its bridge, the last element of the order, and is short of the rank
        (pendant, (1,), {"brute": 5, "uset": 14, "tree": 17}),
    ]
    for inst, f_star, calls in cases:
        for name in ALGORITHMS:
            sol = solve(inst, name)
            assert sol.value_at(F(1, 2)) == POS_INF
            assert sol.envelope.pieces[0].label == SegmentLabel(f_star, ())
            assert sol.oracle_calls == calls[name], name


def test_zero_rank_instance_constant_zero(monkeypatch):
    mat = graphic(1, [(0, 0), (0, 0)])  # two self-loops
    inst = MatroidInstance(mat, (pw(3, 1), pw(4, 1)), 1, Interval(F(0), F(2)))
    assert inst.rank == 0
    # no solver enumerates a deletion set at rank 0, so none meets the cap
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "0")
    for name in ALGORITHMS:
        sol = solve(inst, name)
        assert sol.value_at(F(1)) == 0
        assert sol.envelope.pieces[0].line == Line(F(0), F(0))
        assert sol.envelope.pieces[0].label == SegmentLabel((0,), ())
        assert sol.oracle_calls == 0
    # the tree's level loop walks an empty layer 0 and finds no candidate
    assert candidate_tree(mat, probe_at(mat, inst.weights, F(1)), inst.ell, {}) == []


def test_tie_heavy_instance_agrees_across_algorithms():
    # every weight identical: everything ties everywhere
    inst = uniform_instance(4, 2, 1, weights=[pw(1, 0)] * 4)
    sols = [solve(inst, name) for name in ALGORITHMS]
    for sol in sols:
        assert len(sol.envelope.pieces) == 1
        assert sol.envelope.pieces[0].line == Line(F(0), F(2))
    labels = {sol.envelope.pieces[0].label for sol in sols}
    assert labels == {SegmentLabel((0,), (1, 2))}


TIE_REPRODUCER = {
    "matroid": {"type": "uniform", "m": 3, "k": 1},
    "weights": [{"a": "-2", "b": "0"}, {"a": "-1", "b": "-1"}, {"a": "-1", "b": "-1"}],
    "ell": 1,
    "interval": {"lo": "-2", "hi": "2"},
}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: uset and tree see only deletion sets inside the "
    "layered-bases union and split at lam=1 with F=(1,), where brute keeps F=(0,)",
)
@pytest.mark.parametrize("name", ["uset", "tree"])
def test_tied_maximizers_meet_one_tie_rule(name):
    inst = instance_from_dict(TIE_REPRODUCER)
    sol = solve(inst, name)
    assert sol.envelope.pieces == solve_brute(inst).envelope.pieces
    assert verify_solution(inst, sol).ok


@st.composite
def degenerate_instances(draw):
    """Small instances with loops, parallel edges, extreme ranks and all interval kinds."""
    family = draw(st.sampled_from(["graphic", "uniform", "partition"]))
    if family == "graphic":
        n = draw(st.integers(1, 4))
        vertex = st.integers(0, n - 1)
        mat = graphic(n, draw(st.lists(st.tuples(vertex, vertex), min_size=3, max_size=8)))
    elif family == "uniform":
        m = draw(st.integers(2, 7))
        mat = uniform(m, draw(st.integers(0, m)))
    else:
        capacities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
        block = st.integers(0, len(capacities) - 1)
        mat = partition(draw(st.lists(block, min_size=3, max_size=7)), capacities)
    m = mat.ground_size
    slopes = st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), min_size=m, max_size=m)
    weights = tuple(pw(a, b) for a, b in draw(slopes))
    ell = draw(st.integers(1, min(m, 2)) | st.integers(1, m))  # mostly small, so few kills
    lo = F(draw(st.integers(-3, 3)))
    hi = lo + draw(st.integers(1, 6))
    # bounded, point, two half-lines and the full line
    lo, hi = draw(st.sampled_from([(lo, hi), (lo, lo), (NEG_INF, hi), (lo, POS_INF), (NEG_INF, POS_INF)]))
    return MatroidInstance(mat, weights, ell, Interval(lo, hi))


@settings(max_examples=600, deadline=None)
@given(degenerate_instances())
def test_solvers_agree_in_value_on_degenerate_inputs(inst):
    # values only: labels and splits may differ between tied maximizers
    # until one tie rule is met (test_tied_maximizers_meet_one_tie_rule)
    envs = [solve(inst, name).envelope for name in ALGORITHMS]
    points = set()
    for env in envs:
        for p in env.pieces:
            points |= {lam for lam in (p.lo, p.hi) if lam not in (NEG_INF, POS_INF)}
            points.add(interior_point(p.lo, p.hi))
    for lam in points:
        assert len({env.evaluate(lam) for env in envs}) == 1, lam


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_uniform_is_the_one_block_partition(data):
    m = data.draw(st.integers(1, 8), label="m")
    k = data.draw(st.integers(0, m), label="k")
    u, p = uniform(m, k), partition([0] * m, [k])
    subset = frozenset(data.draw(st.sets(st.integers(0, m - 1)), label="subset"))
    assert u.is_independent(subset) == p.is_independent(subset)
    order = data.draw(st.permutations(range(m)), label="order")
    assert u.greedy(order) == p.greedy(order)
    # subset may be dependent: then both fall back to one-shot tests
    for basis in (subset, u.greedy(order)):
        ux, px = u.exchanges(basis), p.exchanges(basis)
        for x in basis:
            assert [ux.fits(x, c) for c in range(m)] == [px.fits(x, c) for c in range(m)]
    ends = st.tuples(st.integers(-3, 3), st.integers(-2, 2))
    weights = tuple(pw(a, b) for a, b in data.draw(st.lists(ends, min_size=m, max_size=m), label="weights"))
    ell = data.draw(st.integers(1, min(m, 3)), label="ell")
    for name in ALGORITHMS:
        a, b = (solve(MatroidInstance(mat, weights, ell, Interval(F(-3), F(3))), name) for mat in (u, p))
        assert (a.segments, a.oracle_calls) == (b.segments, b.oracle_calls), name


# the shared cell loop without runs: one envelope_of_lines per cell
CELL_BASES = {"uset": interdiction._uset_cells, "tree": interdiction._tree_cells}


def per_cell_reference(inst, name):
    """(pieces, oracle calls) of one envelope per crossing cell, concatenated."""
    mat = inst.matroid.with_fresh_counter()
    cells = interdiction._arrangement(mat, inst) if inst.rank else []
    envs = []
    for (lo, hi, probe, _crossings), bases in zip(cells, CELL_BASES[name](mat, inst, cells)):
        if bases is None:  # a rank kill: the witness from brute's first-cell walk
            (killer,) = parametric_sweep(mat, cells[:1], inst.rank, combinations(mat.available, inst.ell))
            flat = interdiction._flat_solution(mat, inst, name, killer)
            return flat.envelope.pieces, flat.oracle_calls
        labels = [SegmentLabel(tuple(sorted(F)), tuple(sorted(B))) for F, B in bases.items()]
        entries = [(basis_line(probe.columns, l.basis), l) for l in labels]
        envs.append(envelope_of_lines(entries, probe.columns[0], lo, hi))
    if not envs:  # rank 0
        flat = interdiction._flat_solution(mat, inst, name)
        return flat.envelope.pieces, flat.oracle_calls
    return concatenate(envs).pieces, mat.oracle_calls


@settings(max_examples=300, deadline=None)
@given(degenerate_instances())
def test_one_envelope_per_run_gives_the_per_cell_segments(inst):
    for name in CELL_BASES:
        sol = solve(inst, name)
        assert (sol.envelope.pieces, sol.oracle_calls) == per_cell_reference(inst, name), name


# ---------------------------------------------------------------------------
# caps and the solution wrapper


def test_enumeration_cap_raises(monkeypatch):
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "100")
    inst = uniform_instance(10, 2, 3)  # C(10,3) = 120 subsets
    with pytest.raises(EnumerationCapExceeded) as exc:
        solve_brute(inst)
    assert exc.value.subsets == 120 and exc.value.cap == 100


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "10")
    inst = uniform_instance(10, 2, 3)
    with pytest.raises(EnumerationCapExceeded):
        solve_brute(inst)
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "100000")
    solve_brute(inst)
    for raw in ("abc", "-5", "1.5"):
        monkeypatch.setenv("INTERDICTION_ENUM_CAP", raw)
        with pytest.raises(ValueError, match="non-negative integer"):
            solve_brute(inst)


def witness_search_instance():
    # the only small cut is the last ell edges, so the lex-first killing
    # set is the last of the C(30, 3) = 4060 subsets
    mat = graphic(3, [(0, 1)] * 27 + [(1, 2)] * 3)
    weights = tuple(pw(i % 5, (-1) ** i) for i in range(30))
    return MatroidInstance(mat, weights, 3, Interval(F(-2), F(2)))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_solver_refuses_the_witness_search_above_the_cap(monkeypatch, name):
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "1000")
    with pytest.raises(EnumerationCapExceeded) as exc:
        solve(witness_search_instance(), name)
    assert (exc.value.subsets, exc.value.cap) == (4060, 1000)


def test_witness_search_under_the_default_cap():
    # most of the 4060 sets miss the full matroid's first basis and take it
    # without a query, and the rest share the runs forked at their first
    # deleted elements, so the walk costs 111 calls, not a rank scan each
    inst = witness_search_instance()
    for name, calls in (("brute", 111), ("uset", 735), ("tree", 316)):
        sol = solve(inst, name)
        assert sol.f_star_at(F(0)) == (27, 28, 29)
        assert sol.oracle_calls == calls


def test_uset_tracked_family_respects_the_cap(monkeypatch):
    inst = uniform_instance(10, 4, 2)  # union of 2 layers: C(8, 2) = 28 tracked sets
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "27")
    with pytest.raises(EnumerationCapExceeded) as exc:
        solve(inst, "uset")
    assert exc.value.subsets == 28
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "28")
    assert solve(inst, "uset").segments == solve(inst, "tree").segments


def test_tree_refuses_a_candidate_tree_above_the_cap(monkeypatch):
    inst = uniform_instance(10, 4, 2)  # 4 * C(4, 1) = 16 candidates per tree
    expected = solve(inst, "tree").segments
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "15")
    with pytest.raises(EnumerationCapExceeded) as exc:
        solve(inst, "tree")
    assert (exc.value.subsets, exc.value.cap) == (16, 15)
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "16")
    assert solve(inst, "tree").segments == expected


def test_solve_rejects_unknown_algorithm():
    inst = uniform_instance(4, 2, 1)
    with pytest.raises(ValueError):
        solve(inst, "newton")


def test_list_weights_are_stored_as_a_tuple():
    weights = [pw(i % 3, (-1) ** i) for i in range(6)]
    listed = MatroidInstance(uniform(6, 3), weights, 2, Interval(F(-2), F(2)))
    tupled = MatroidInstance(uniform(6, 3), tuple(weights), 2, Interval(F(-2), F(2)))
    assert listed.weights == tupled.weights and isinstance(listed.weights, tuple)
    for name in ALGORITHMS:
        a, b = solve(listed, name), solve(tupled, name)
        assert (a.segments, a.oracle_calls) == (b.segments, b.oracle_calls), name


def test_solution_accessors_and_counter_isolation():
    inst = uniform_instance(6, 2, 2)
    sol = solve(inst, "uset")
    assert sol.oracle_calls > 0
    assert inst.matroid.oracle_calls == 0, "solving must not touch the instance's counter"
    assert sol.segments == sol.envelope.pieces
    lam = F(1, 7)
    piece = sol.envelope.piece_at(lam)
    assert sol.value_at(lam) == piece.line.value_at(lam)
    assert sol.f_star_at(lam) == piece.label.f_star


# Oracle calls are the paper's cost measure.  These exact counts pin it per
# solver and family, so a change that alters how many independence tests a
# solver makes fails here instead of passing unnoticed.
ORACLE_CALL_PINS = [
    (("graphic", 15, 5, 2, 4), {"brute": 107, "uset": 1182, "tree": 558}),
    (("partition", 12, 3, 2, 5), {"brute": 134, "uset": 1001, "tree": 2964}),
    (("uniform", 10, 4, 2, 7), {"brute": 126, "uset": 848, "tree": 1554}),
    (("graphic", 15, 5, 2, 1), {"brute": 63, "uset": 600, "tree": 735}),
]
PINNED_SPECS = [spec for spec, _ in ORACLE_CALL_PINS]
# test ids: a spec's family, with the seed for a family pinned twice
PIN_IDS = ["graphic", "partition", "uniform", "graphic-s1"]


@pytest.mark.parametrize("spec,expected", ORACLE_CALL_PINS, ids=PIN_IDS)
def test_oracle_calls_are_pinned(spec, expected):
    inst = instance_from_dict(generate_random(*spec))
    got = {name: solve(inst, name).oracle_calls for name in expected}
    assert got == expected


# Per pinned spec: crossing cells, then the runs of equal {F: basis} maps
# that uset and tree hand the cell loop.
ENVELOPE_RUN_PINS = [
    (6, {"uset": 1, "tree": 1}),
    (52, {"uset": 17, "tree": 17}),
    (37, {"uset": 23, "tree": 13}),
    (9, {"uset": 3, "tree": 3}),
]


@pytest.mark.parametrize("spec,pin", zip(PINNED_SPECS, ENVELOPE_RUN_PINS), ids=PIN_IDS)
def test_one_envelope_per_run_of_equal_maps(monkeypatch, spec, pin):
    inst = instance_from_dict(generate_random(*spec))
    cells, expected = pin
    envelope = interdiction.envelope_of_lines
    for name, cell_bases in CELL_BASES.items():
        mat = inst.matroid.with_fresh_counter()
        maps = list(cell_bases(mat, inst, interdiction._arrangement(mat, inst)))
        runs = 1 + sum(a != b for a, b in zip(maps, maps[1:]))
        calls = []
        monkeypatch.setattr(interdiction, "envelope_of_lines", lambda *a: calls.append(a) or envelope(*a))
        solve(inst, name)
        monkeypatch.undo()
        assert (len(maps), len(calls)) == (cells, runs) == (cells, expected[name]), name


@pytest.mark.parametrize("spec", PINNED_SPECS, ids=PIN_IDS)
def test_each_cell_is_sorted_at_most_once_per_solve(monkeypatch, spec):
    # tree grows a candidate tree in every cell; brute and uset sort only
    # the cells where they need a greedy basis; nothing outlives a solve
    sorted_at = []
    sort = parametric._sort_ground
    monkeypatch.setattr(parametric, "_sort_ground", lambda columns, lam: sorted_at.append(lam) or sort(columns, lam))
    inst = instance_from_dict(generate_random(*spec))
    events = all_equality_points(weight_columns(inst.matroid, inst.weights), inst.interval, inst.matroid.available)
    cells = len({ev.lam for ev in events}) + 1
    for name in ALGORITHMS:
        sorts = []
        for _ in range(2):
            sorted_at.clear()
            solve(inst, name)
            assert len(set(sorted_at)) == len(sorted_at), name
            sorts.append(len(sorted_at))
        assert sorts[0] == cells if name == "tree" else sorts[0] <= cells, (name, sorts[0], cells)
        assert sorts[1] == sorts[0], name


@st.composite
def brute_cases(draw):
    """arrangement_cases' matroid, integer weights and interval, so
    crossings coincide and lines are equal, with a budget of 1 to 3."""
    mat, weights, interval, _deleted = draw(arrangement_cases())
    ell = draw(st.integers(1, min(3, mat.ground_size)))
    return MatroidInstance(mat, weights, ell, interval)


def enveloped_sweeps(inst):
    """upper_envelope of all C(m, ell) sweeps, labelled, without merging
    equal ones; the flat solution's on rank 0 or a rank kill."""
    mat, k = inst.matroid.with_fresh_counter(), inst.rank
    if k == 0:
        return interdiction._flat_solution(mat, inst, "brute").envelope
    cells = interdiction._arrangement(mat, inst)
    funcs = []
    d = cells[0][2].columns[0]
    for fs in combinations(mat.available, inst.ell):
        sweep = parametric_sweep(mat.delete(fs), cells, k)[()]
        if sweep is None:
            return interdiction._flat_solution(mat, inst, "brute", killer=fs).envelope
        pieces = tuple(
            Piece(p.lo, p.hi, Line.from_ints(d, *p.line), SegmentLabel(fs, tuple(sorted(p.basis)))) for p in sweep
        )
        funcs.append(PiecewiseLinearFunction(sweep[0].lo, sweep[-1].hi, pieces))
    return upper_envelope(funcs)


@settings(max_examples=300, deadline=None)
@given(brute_cases())
def test_brute_equals_the_envelope_of_every_sweep(inst):
    # brute hands _undominated one sweep per part, its first set's
    assert solve_brute(inst).envelope == enveloped_sweeps(inst)


# Per pinned spec: the deletion sets, the parts among them (the sets that
# share one sweep), and the undominated ones that brute hands upper_envelope.
BRUTE_ENVELOPE_PINS = [(105, 15, 3), (66, 41, 7), (45, 45, 4), (105, 17, 3)]


@pytest.mark.parametrize("spec,pin", zip(PINNED_SPECS, BRUTE_ENVELOPE_PINS), ids=PIN_IDS)
def test_brute_merges_only_undominated_sweeps(monkeypatch, spec, pin):
    inst = instance_from_dict(generate_random(*spec))
    envelope, undominated = interdiction.upper_envelope, interdiction._undominated
    distinct, inputs = [], []
    monkeypatch.setattr(interdiction, "_undominated", lambda sweeps: distinct.append(len(sweeps)) or undominated(sweeps))
    monkeypatch.setattr(interdiction, "upper_envelope", lambda fs: inputs.append(len(fs)) or envelope(fs))
    solve_brute(inst)
    assert (comb(inst.ground_size, inst.ell), distinct, inputs) == (pin[0], [pin[1]], [pin[2]])


@settings(max_examples=300, deadline=None)
@given(brute_cases())
def test_every_labelling_sweep_survives_the_dominance_filter(inst):
    # the filter may drop only sweeps that label no piece of the envelope
    # over all C(m, ell) sweeps; flat solutions never reach it
    merged = []
    envelope = interdiction.upper_envelope
    with patch.object(interdiction, "upper_envelope", lambda fs: merged.extend(fs) or envelope(fs)):
        solve_brute(inst)
    labels = {piece.label.f_star for piece in enveloped_sweeps(inst).pieces}
    if merged:
        assert labels <= {f.pieces[0].label.f_star for f in merged}


@pytest.mark.parametrize(
    "weights,interval,line",
    [
        # at lam = 0 the sets (0,) and (1,) both leave a basis of value 3,
        # on the lines 3 - lam and 3 + lam: the smaller set must win
        ((pw(1, 1), pw(1, -1), pw(2, 0), pw(5, 0)), Interval(F(0), F(0)), Line(F(-1), F(3))),
        # equal slopes cross nothing, so the grid is -inf and +inf alone,
        # where the highest of the parallel sweeps is largest at both ends
        (tuple(pw(a, 1) for a in range(4)), Interval(NEG_INF, POS_INF), Line(F(2), F(3))),
        # every set leaves a basis of value 2, and (2,) and (3,) share
        # one: three parts whose sweeps are equal everywhere
        ((pw(1, 0),) * 4, Interval(F(-5), F(5)), Line(F(0), F(2))),
    ],
    ids=["point-tie", "parallel-line", "equal-sweeps"],
)
def test_the_filter_hands_the_envelope_only_the_winner(monkeypatch, weights, interval, line):
    # uniform(4, 2), ell=1: (0,) leaves the basis (1, 2) and wins everywhere
    inst = MatroidInstance(uniform(4, 2), weights, 1, interval)
    merged = []
    envelope = interdiction.upper_envelope
    monkeypatch.setattr(interdiction, "upper_envelope", lambda fs: merged.extend(fs) or envelope(fs))
    (piece,) = solve_brute(inst).segments
    assert [f.pieces[0].label.f_star for f in merged] == [(0,)]
    assert (piece.label, piece.line) == (SegmentLabel((0,), (1, 2)), line)
    monkeypatch.undo()
    assert solve_brute(inst).envelope == enveloped_sweeps(inst)


@settings(max_examples=300, deadline=None)
@given(brute_cases())
@example(instance_from_dict(generate_random("uniform", 10, 4, 2, 7)))
def test_uset_tests_each_tracked_basis_once_per_crossing(inst):
    # tracked sets that share a basis share its exchange test at a lone
    # crossing, and a tracked basis equal to e's layer reuses update_u's
    # test of that layer: no (basis, crossing) test repeats within one
    # solve.  The example is the pinned uniform spec, whose sets share bases
    tests = []

    def spy(matroid, basis, ev):
        if sys._getframe(1).f_code.co_name in ("update_u", "update_interdicted_set"):
            if ev.leaving in basis and ev.entering not in basis:  # the cases exchange() tests
                tests.append((basis, ev))
        return parametric.exchange(matroid, basis, ev)

    with patch.object(interdiction, "exchange", spy):
        solve(inst, "uset")
    assert len(set(tests)) == len(tests)


def test_uset_grows_only_the_sets_new_to_a_reshaped_union(monkeypatch):
    # the pinned graphic spec with seed 1 has lone crossings that reshape
    # the union, neither a no-op nor a rename of e to f.  There the sets
    # still inside keep their carried bases and one greedy runs per set
    # new to the union; _uset_cells calls layered_bases only in the first
    # cell and at coincident crossings.  Every cell's family is the
    # greedy basis of every ell-subset of the scratch union
    inst = instance_from_dict(generate_random("graphic", 15, 5, 2, 1))
    mat, ref, ell = inst.matroid.with_fresh_counter(), inst.matroid.with_fresh_counter(), inst.ell
    cells = interdiction._arrangement(mat, inst)
    greedy, layered = interdiction.greedy_min_basis, interdiction.layered_bases
    grown, rebuilt = [], []

    def spy_greedy(matroid, probe):
        if sys._getframe(1).f_code.co_name == "_track_family":
            grown.append(matroid.deleted)
        return greedy(matroid, probe)

    def spy_layered(matroid, probe, *, depth):
        if sys._getframe(1).f_code.co_name == "_uset_cells":
            rebuilt.append(probe)
        return layered(matroid, probe, depth=depth)

    monkeypatch.setattr(interdiction, "greedy_min_basis", spy_greedy)
    monkeypatch.setattr(interdiction, "layered_bases", spy_layered)
    union, reshapes = None, []
    for i, ((_lo, _hi, probe, crossings), tracked) in enumerate(zip(cells, interdiction._uset_cells(mat, inst, cells))):
        before, union = union, layered(ref, probe, depth=ell).union
        family = {frozenset(F) for F in combinations(sorted(union), ell)}
        assert tracked == {F: greedy(ref.delete(F), probe) for F in family}, i
        if len(crossings) != 1:
            assert (rebuilt, len(grown), set(grown)) == ([probe], len(family), family), i
        else:
            (ev,) = crossings
            assert rebuilt == [], i
            if union != before and union != before - {ev.leaving} | {ev.entering}:
                reshapes.append(i)
                new = {F for F in family if not F <= before}
                assert (len(grown), set(grown)) == (len(new), new), i
            else:
                assert grown == [], i
        grown.clear()
        rebuilt.clear()
    assert reshapes == [1, 4]


# explicit(7, every 3-subset but {0, 1, 2}), ell=2 on the whole line: no
# two deletions kill the rank, and its exchange states are one-shot ones,
# which the tree carries from cell to cell
SEVEN = MatroidInstance(
    explicit(7, [b for b in combinations(range(7), 3) if b != (0, 1, 2)]),
    tuple(pw(a, b) for a, b in [(3, 2), (-1, -3), (4, 1), (1, 0), (-5, 5), (9, -2), (2, -1)]),
    2,
    Interval(NEG_INF, POS_INF),
)


@settings(max_examples=100, deadline=None)
@given(brute_cases())
@example(SEVEN)
def test_candidate_tree_with_carried_states_equals_a_fresh_one(inst):
    # exchange states depend on their layer alone: a tree given the last
    # cell's makes the candidates and oracle calls of one built from nothing,
    # and the dict carried on holds exactly the layers that tree searched
    mat = inst.matroid
    carried_states: dict = {}
    for _lo, _hi, probe, _crossings in interdiction._arrangement(mat, inst):
        carried, fresh, fresh_states = mat.with_fresh_counter(), mat.with_fresh_counter(), {}
        assert candidate_tree(carried, probe, inst.ell, carried_states) == candidate_tree(
            fresh, probe, inst.ell, fresh_states
        )
        assert carried.oracle_calls == fresh.oracle_calls
        assert carried_states.keys() == fresh_states.keys()


@settings(max_examples=100, deadline=None)
@given(brute_cases())
@example(SEVEN)
def test_tree_builds_a_layer_state_once_per_run_of_cells_searching_it(inst):
    # a layer's exchange state is built in the first cell of each run of
    # consecutive cells whose trees search it, and in no other
    cell, built, searched = [-1], [], set()
    tree, search, exchanges = candidate_tree, interdiction.replacement_element, Matroid.exchanges

    def per_cell(*args):
        cell[0] += 1
        return tree(*args)

    def searching(matroid, basis, *args):
        searched.add((cell[0], basis))
        return search(matroid, basis, *args)

    def building(self, basis):
        built.append((cell[0], frozenset(basis)))
        return exchanges(self, basis)

    with (
        patch.object(interdiction, "candidate_tree", per_cell),
        patch.object(interdiction, "replacement_element", searching),
        patch.object(Matroid, "exchanges", building),
    ):
        solve(inst, "tree")
    assert len(set(built)) == len(built)
    assert set(built) == {(c, layer) for c, layer in searched if (c - 1, layer) not in searched}


def test_brute_equals_direct_enumeration_small():
    inst = uniform_instance(5, 2, 2)
    sol = solve_brute(inst)
    for lam in (F(-3), F(-1), F(0), F(1, 2), F(3)):
        best = None
        for fs in combinations(range(5), 2):
            probe = probe_at(inst.matroid, inst.weights, lam)
            basis = greedy_min_basis(inst.matroid.with_fresh_counter().delete(fs), probe)
            v = value_line(probe.columns, basis).value_at(lam)
            best = v if best is None else max(best, v)
        assert sol.value_at(lam) == best


def test_layered_bases_union_confines_winners():
    # every winning deletion set reported by brute lies inside the union
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    weights = [pw((i * 3) % 5, ((-1) ** i) * (i % 3)) for i in range(6)]
    inst = MatroidInstance(mat, tuple(weights), 2, Interval(F(-3), F(3)))
    sol = solve_brute(inst)
    for piece in sol.envelope.pieces:
        probe = interior_point(piece.lo, piece.hi)
        union = layered_bases(mat, probe_at(mat, weights, probe), depth=inst.ell).union
        assert set(piece.label.f_star) <= set(union)
