"""Solver internals: layered bases, updates, the candidate tree, caps."""

from fractions import Fraction
from math import comb

import pytest

from matroid_interdiction.cli import generate_random, instance_from_dict
from matroid_interdiction.envelope import POS_INF, Line, interior_point
from matroid_interdiction.interdiction import (
    ALGORITHMS,
    EnumerationCapExceeded,
    LayeredBases,
    SegmentLabel,
    candidate_tree,
    canonical_infinite_label,
    changepoint_bound,
    changepoint_bound_secondary,
    layered_bases,
    solve,
    solve_brute,
    update_interdicted_set,
    update_u,
)
from matroid_interdiction.matroid import graphic, uniform
from matroid_interdiction.oracle import verify_solution
from matroid_interdiction.parametric import (
    EqualityPoint,
    Interval,
    MatroidInstance,
    all_equality_points,
    basis_line,
    greedy_min_basis,
    pw,
)

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
    lb = layered_bases(mat, weights, F(0), 3)
    assert lb.layers == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
    assert lb.union == frozenset(range(6))
    assert not lb.truncated
    assert lb.layer_of(3) == 1 and lb.layer_of(9) is None
    assert lb.depth == 3


def test_layered_bases_each_layer_is_greedy_of_remainder():
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    weights = [pw(i % 4, (-1) ** i) for i in range(6)]
    lam = F(1, 2)
    lb = layered_bases(mat, weights, lam, 2)
    deleted = frozenset()
    for layer in lb.layers:
        assert layer == greedy_min_basis(mat.delete(deleted) if deleted else mat, weights, lam)
        deleted |= layer


def test_layered_bases_truncation():
    mat = uniform(3, 2)
    weights = [pw(i, 0) for i in range(3)]
    lb = layered_bases(mat, weights, F(0), 3)
    assert lb.layers == (frozenset({0, 1}), frozenset({2}), frozenset())
    assert lb.truncated


def test_layered_bases_depth_validation():
    with pytest.raises(ValueError):
        layered_bases(uniform(2, 1), [pw(0, 0)] * 2, F(0), 0)


# ---------------------------------------------------------------------------
# incremental updates, deterministic cases


def test_update_u_ignores_outside_element():
    mat = uniform(6, 2)
    weights = [pw(i, 0) for i in range(6)]
    lb = layered_bases(mat, weights, F(0), 2)  # {0,1}, {2,3}
    ev = EqualityPoint(F(1), 5, 4)  # neither is in the union
    assert update_u(mat, weights, lb, ev, F(2)) is lb


def test_update_u_ignores_already_preferred():
    mat = uniform(6, 2)
    weights = [pw(i, 0) for i in range(6)]
    lb = layered_bases(mat, weights, F(0), 2)
    ev = EqualityPoint(F(1), 3, 0)  # f sits in an earlier layer than e
    assert update_u(mat, weights, lb, ev, F(2)) is lb


def test_update_u_last_layer_absorbs_outsider():
    mat = uniform(6, 2)
    weights = [pw(0, 0), pw(1, 0), pw(2, 0), pw(3, 1), pw(4, 0), pw(5, 0)]
    lb = layered_bases(mat, weights, F(0), 2)  # {0,1}, {2,3}
    ev = EqualityPoint(F(1), 3, 4)  # 3 leaves the last layer for outsider 4
    new = update_u(mat, weights, lb, ev, F(2))
    assert new.layers == (frozenset({0, 1}), frozenset({2, 4}))


def test_update_u_inner_layer_swap_refused():
    # edges 0, 2, 3 are parallel; the crossing outsider 2 cannot replace
    # 1 in layer 0 because {0, 2} closes a cycle, so nothing changes
    mat = graphic(3, [(0, 1), (1, 2), (0, 1), (0, 1), (1, 2)])
    weights = [pw(0, 0), pw(2, 1), pw(3, -1), pw(1, 0), pw(10, 0)]
    lb = layered_bases(mat, weights, F(1, 4), 2)
    assert lb.layers == (frozenset({0, 1}), frozenset({3, 4}))
    ev = EqualityPoint(F(1, 2), 1, 2)
    assert update_u(mat, weights, lb, ev, F(5, 4)) is lb


def test_update_u_adjacent_layers_trade():
    mat = uniform(6, 2)
    weights = [pw(0, 0), pw(1, 1), pw(2, 0), pw(3, 0), pw(4, 0), pw(5, 0)]
    lb = layered_bases(mat, weights, F(0), 2)  # {0,1}, {2,3}
    ev = EqualityPoint(F(1), 1, 2)  # 1 (layer 0) crosses 2 (layer 1)
    new = update_u(mat, weights, lb, ev, F(2))
    assert new.layers == (frozenset({0, 2}), frozenset({1, 3}))
    assert new.union == lb.union


def test_update_u_adjacent_crossing_ripples_through_deeper_layers():
    # after 2 replaces 1 in layer 0, layer 1 sees 1 return and 2 leave;
    # 1 makes the parallel survivor 4 redundant and frees 3, so layer 1
    # is rebuilt wholesale and even the union changes
    mat = graphic(3, [(1, 2), (0, 2), (0, 1), (0, 1), (1, 2)])
    weights = [pw(1, 0), pw(10, 1), pw(12, -1), pw(14, 0), pw(15, 0)]
    lb = layered_bases(mat, weights, F(1, 2), 2)
    assert lb.layers == (frozenset({0, 1}), frozenset({2, 4}))
    ev = EqualityPoint(F(1), 1, 2)
    new = update_u(mat, weights, lb, ev, F(2))
    assert new.layers == layered_bases(mat, weights, F(2), 2).layers
    assert new.layers == (frozenset({0, 2}), frozenset({1, 3}))
    assert new.union != lb.union


def test_update_u_truncated_recomputes_from_scratch():
    mat = uniform(3, 2)
    weights = [pw(0, 1), pw(1, 0), pw(2, 0)]
    lb = layered_bases(mat, weights, F(0), 3)
    assert lb.truncated
    ev = EqualityPoint(F(1), 0, 1)
    new = update_u(mat, weights, lb, ev, F(2))
    assert new.layers == layered_bases(mat, weights, F(2), 3).layers


def test_update_interdicted_set_rename_follows_deletion():
    mat = uniform(5, 2)
    F_del = frozenset({3})
    basis = frozenset({0, 1})
    ev = EqualityPoint(F(1), 3, 4)
    u1, u2 = frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4})
    new_f, new_b = update_interdicted_set(mat, F_del, basis, ev, u1, u2)
    assert new_f == frozenset({4})
    assert new_b == basis  # f was not serving as the replacement


def test_update_interdicted_set_rename_swaps_back_replacement():
    mat = uniform(5, 2)
    F_del = frozenset({0})
    basis = frozenset({1, 4})  # 4 replaced the deleted 0
    ev = EqualityPoint(F(1), 0, 4)
    u1, u2 = frozenset({0, 1, 2, 3}), frozenset({1, 2, 3, 4})
    new_f, new_b = update_interdicted_set(mat, F_del, basis, ev, u1, u2)
    assert new_f == frozenset({4})
    assert new_b == frozenset({1, 0})


def test_update_interdicted_set_plain_swap():
    mat = uniform(5, 2)
    F_del = frozenset({4})
    basis = frozenset({0, 1})
    ev = EqualityPoint(F(1), 1, 2)
    u = frozenset({0, 1, 2, 3})
    new_f, new_b = update_interdicted_set(mat, F_del, basis, ev, u, u)
    assert new_f == F_del
    assert new_b == frozenset({0, 2})


def test_update_interdicted_set_respects_deleted_entering():
    mat = uniform(5, 2)
    F_del = frozenset({2})
    basis = frozenset({0, 1})
    ev = EqualityPoint(F(1), 1, 2)  # entering element is deleted in this view
    u = frozenset({0, 1, 2, 3})
    new_f, new_b = update_interdicted_set(mat, F_del, basis, ev, u, u)
    assert (new_f, new_b) == (F_del, basis)


# ---------------------------------------------------------------------------
# candidate tree


def test_candidate_tree_count_and_lines():
    mat = uniform(8, 3)
    weights = [pw(i, (-1) ** i) for i in range(8)]
    ell = 2
    cands = candidate_tree(mat, weights, F(1, 3), ell)
    k = 3
    assert len(cands) == k * comb(k + ell - 2, ell - 1)
    for fset, line, basis in cands:
        assert len(fset) == ell
        assert line == basis_line(weights, basis)
        assert basis == greedy_min_basis(mat.delete(fset), weights, F(1, 3))


def test_candidate_tree_contains_optimum_per_cell():
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    weights = [pw(i % 3, (i % 2) - 1) for i in range(6)]
    inst = MatroidInstance(mat, tuple(weights), 2, Interval(F(-2), F(2)))
    brute = solve_brute(inst)
    events = all_equality_points(weights, inst.interval, mat.available)
    lams = sorted({ev.lam for ev in events})
    for lo, hi in zip([inst.interval.lo, *lams], [*lams, inst.interval.hi]):
        probe = interior_point(lo, hi)
        best = max(
            (line.value_at(probe) for _f, line, _b in candidate_tree(mat, weights, probe, 2)),
        )
        assert best == brute.envelope.evaluate(probe)


def test_candidate_tree_flags_killing_sets():
    mat = uniform(4, 2)
    weights = [pw(i, 0) for i in range(4)]
    cands = candidate_tree(mat, weights, F(0), 3)
    assert any(line is None for _f, line, _b in cands)


# ---------------------------------------------------------------------------
# infinite and degenerate instances


def test_canonical_infinite_label_lex_first():
    assert canonical_infinite_label(uniform(5, 3), 3, 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        canonical_infinite_label(uniform(6, 2), 2, 1)


def test_all_solvers_agree_on_infinite_instance():
    inst = uniform_instance(5, 3, 3)
    calls = {"brute": 2, "uset": 11, "tree": 18}
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
    # edge 1 = (2, 3) is a bridge; the canonical witness search stops
    # scanning as soon as deleting edge 0 still leaves a full rank
    pendant = MatroidInstance(
        graphic(4, [(0, 1), (2, 3), (1, 2), (0, 2), (0, 1)]),
        (pw(0, 1), pw(1, -1), pw(2, 0), pw(3, 1), pw(-1, 2)),
        1,
        Interval(F(-3), F(3)),
    )
    cases = [
        (path, (0,), {"brute": 1, "uset": 4, "tree": 3}),
        (pendant, (1,), {"brute": 14, "uset": 16, "tree": 19}),
    ]
    for inst, f_star, calls in cases:
        for name in ALGORITHMS:
            sol = solve(inst, name)
            assert sol.value_at(F(1, 2)) == POS_INF
            assert sol.envelope.pieces[0].label == SegmentLabel(f_star, ())
            assert sol.oracle_calls == calls[name], name


def test_zero_rank_instance_constant_zero():
    mat = graphic(1, [(0, 0), (0, 0)])  # two self-loops
    inst = MatroidInstance(mat, (pw(3, 1), pw(4, 1)), 1, Interval(F(0), F(2)))
    assert inst.rank == 0
    for name in ALGORITHMS:
        sol = solve(inst, name)
        assert sol.value_at(F(1)) == 0
        assert sol.envelope.pieces[0].line == Line(F(0), F(0))
        assert sol.envelope.pieces[0].label == SegmentLabel((0,), ())
        assert sol.oracle_calls == 0


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
    inst = witness_search_instance()
    for name, calls in (("uset", 103_341), ("tree", 102_922)):
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
    (("graphic", 15, 5, 2, 4), {"brute": 2927, "uset": 1192, "tree": 558}),
    (("partition", 12, 3, 2, 5), {"brute": 2343, "uset": 1031, "tree": 2964}),
    (("uniform", 10, 4, 2, 7), {"brute": 830, "uset": 890, "tree": 1554}),
]


@pytest.mark.parametrize("spec,expected", ORACLE_CALL_PINS, ids=[spec[0] for spec, _ in ORACLE_CALL_PINS])
def test_oracle_calls_are_pinned(spec, expected):
    inst = instance_from_dict(generate_random(*spec))
    got = {name: solve(inst, name).oracle_calls for name in expected}
    assert got == expected


def test_brute_equals_direct_enumeration_small():
    from itertools import combinations

    inst = uniform_instance(5, 2, 2)
    sol = solve_brute(inst)
    for lam in (F(-3), F(-1), F(0), F(1, 2), F(3)):
        best = None
        for fs in combinations(range(5), 2):
            basis = greedy_min_basis(inst.matroid.with_fresh_counter().delete(fs), inst.weights, lam)
            v = basis_line(inst.weights, basis).value_at(lam)
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
        union = layered_bases(mat, weights, probe, inst.ell).union
        assert set(piece.label.f_star) <= set(union)
