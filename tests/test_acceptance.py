"""Acceptance gate: the seven release criteria, one test each.

Each test prints a single PASS line on success; a failure anywhere is a
release blocker. The corpus fixtures live in conftest.py and are shared
with the unit tests.
"""

import time
from fractions import Fraction
from itertools import permutations
from math import comb

from matroid_interdiction.envelope import Line, envelope_of_lines, interior_point
from matroid_interdiction.interdiction import (
    candidate_tree,
    changepoint_bound,
    layered_bases,
    solve,
    update_interdicted_set,
    update_u,
)
from matroid_interdiction.matroid import graphic
from matroid_interdiction.oracle import verify_solution
from matroid_interdiction.parametric import (
    Interval,
    MatroidInstance,
    Probe,
    all_equality_points,
    basis_line,
    crossing_cells,
    greedy_min_basis,
    parametric_sweep,
    pw,
    weight_columns,
)
from matroid_interdiction.cli import generate_random, instance_from_dict
from lemmas import (
    changepoint_bound_secondary,
    int_lines,
    interdicted_basis_via_replacement,
    most_vital_element,
    probe_at,
    replacement,
    value_line,
)

F = Fraction


# ---------------------------------------------------------------------------
# criterion 1: the worked six-vertex example, reproduced exactly

# nine labeled edges a..r on vertices 0..5, ids in label order
EXAMPLE_EDGES = [(5, 2), (3, 4), (0, 1), (4, 0), (5, 3), (0, 5), (2, 3), (0, 3), (1, 2)]
EXAMPLE_WEIGHTS = [(0, 0), (1, 0), (2, 0), (-3, 2), (1, 1), (3, 0), (7, 0), (8, 0), (4, 0)]
A, B_, C, E, F_, G, P, Q, R = range(9)
HEAVY = 10_000


def example_instance(ell=3, lo=2, hi=6):
    """The worked example with three heavy parallels per edge (m = 36)."""
    edges = list(EXAMPLE_EDGES)
    weights = [pw(a, b) for a, b in EXAMPLE_WEIGHTS]
    for u, v in EXAMPLE_EDGES:
        for _ in range(3):
            edges.append((u, v))
            weights.append(pw(HEAVY, 0))
    mat = graphic(6, edges)
    return MatroidInstance(mat, tuple(weights), ell, Interval(F(lo), F(hi)))


def test_criterion_1_worked_example():
    start = time.perf_counter()
    instance = example_instance()
    mat, weights = instance.matroid, instance.weights

    # greedy basis at lam = 3 is {a, b, c, e, g}
    assert greedy_min_basis(mat, probe_at(mat, weights, F(3))) == frozenset({A, B_, C, E, G})

    # replacement chain g -> r -> f -> p, each step in the matroid with
    # the earlier deletions applied; the chain is probed strictly inside
    # the cell (at 7/2) because at the endpoints 2 and 3 the chain's
    # first replacement ties with f and the id order picks f instead
    probe = probe_at(mat, weights, F(7, 2))
    b_star = greedy_min_basis(mat, probe)
    assert b_star == frozenset({A, B_, C, E, G})
    assert replacement(mat, probe, b_star, G) == R
    m1 = mat.delete({G})
    b_g = b_star - {G} | {R}
    assert replacement(m1, probe, b_g, R) == F_
    m2 = m1.delete({R})
    b_gr = b_g - {R} | {F_}
    assert replacement(m2, probe, b_gr, F_) == P

    # y_F for F = {g, r, f} is 7 + 2*lam left of 4; for F = {g, r, e}
    # it is 12 + lam right of 4; both checked at two probes per side
    columns = weight_columns(mat, weights)
    for lam in (F(5, 2), F(7, 2)):
        basis = greedy_min_basis(mat.delete({G, R, F_}), probe_at(mat, weights, lam))
        assert basis == frozenset({A, B_, C, E, P})
        assert value_line(columns, basis) == (F(2), F(7))
    for lam in (F(9, 2), F(5)):
        basis = greedy_min_basis(mat.delete({G, R, E}), probe_at(mat, weights, lam))
        assert basis == frozenset({A, B_, C, F_, Q})
        assert value_line(columns, basis) == (F(1), F(12))
    assert F(7) + 2 * F(4) == 15
    assert F(12) + F(4) == 16

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: worked example reproduced exactly in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: the three algorithms agree pointwise on the whole corpus


def _probe_points(solutions):
    """Changepoints, piece boundaries, and midpoints across all solutions."""
    anchors = set()
    for sol in solutions:
        anchors.add(sol.envelope.lo)
        anchors.add(sol.envelope.hi)
        anchors.update(p.hi for p in sol.envelope.pieces[:-1])
        anchors.update(c.lam for c in sol.changepoints)
    ordered = sorted(anchors)
    points = list(ordered)
    for lo, hi in zip(ordered, ordered[1:]):
        points.append(interior_point(lo, hi))
    return points


def test_criterion_2_cross_algorithm_equivalence(corpus, solved_corpus):
    assert len(corpus) >= 100
    solutions = solved_corpus["solutions"]
    for name, _instance in corpus:
        per = solutions[name]
        sols = [per[a] for a in ("brute", "uset", "tree")]
        for lam in _probe_points(sols):
            values = {sol.algorithm: sol.envelope.evaluate(lam) for sol in sols}
            assert len(set(values.values())) == 1, (name, lam, values)
    total = sum(solved_corpus["elapsed"].values())
    assert total < 300.0
    print(
        f"PASS criterion 2: {len(corpus)} instances, three algorithms pointwise "
        f"equal, solved in {total:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 3: oracle sampling with 50 extra random points per instance


def test_criterion_3_oracle_sampling(corpus, solved_corpus):
    solutions = solved_corpus["solutions"]
    checked = 0
    for name, instance in corpus:
        report = verify_solution(instance, solutions[name]["uset"], extra_samples=50, seed=0)
        assert report.ok, (name, report.failures)
        assert report.samples_checked >= 50
        checked += report.samples_checked
    print(f"PASS criterion 3: oracle verified {checked} sampled points across the corpus")


# ---------------------------------------------------------------------------
# criterion 4: combinatorial bounds on changepoints and candidates


def test_criterion_4_combinatorial_bounds(corpus, solved_corpus):
    solutions = solved_corpus["solutions"]
    max_ratio = 0.0
    for name, instance in corpus:
        m, k, ell = instance.ground_size, instance.rank, instance.ell
        primary = changepoint_bound(m, k, ell)
        secondary = changepoint_bound_secondary(m, k, ell)
        for sol in solutions[name].values():
            count = len(sol.changepoints)
            assert count <= primary, (name, sol.algorithm, count, primary)
            assert count <= secondary, (name, sol.algorithm, count, secondary)
            if primary:
                max_ratio = max(max_ratio, count / primary)

        mat = instance.matroid
        weights, interval = instance.weights, instance.interval
        columns = weight_columns(mat, weights)
        lams = sorted({ev.lam for ev in all_equality_points(columns, interval, mat.available)})
        boundaries = [interval.lo, *lams, interval.hi]
        expected = k * comb(k + ell - 2, ell - 1)
        cap_after = comb(k * ell, ell)
        for lo, hi in zip(boundaries, boundaries[1:]):
            cands = candidate_tree(mat, probe_at(mat, weights, interior_point(lo, hi)), ell, {})
            assert len(cands) == expected, (name, lo, hi, len(cands), expected)
            unique = {}
            for fset, basis in cands:
                unique.setdefault(fset, basis)
            entries = [(basis_line(columns, b), tuple(sorted(fset))) for fset, b in unique.items()]
            env = envelope_of_lines(entries, columns[0], lo, hi)
            non_dominated = {p.label for p in env.pieces}
            assert len(non_dominated) <= cap_after, (name, lo, hi)
    print(
        f"PASS criterion 4: changepoint and candidate bounds hold corpus-wide "
        f"(max changepoints/bound = {max_ratio:.4f})"
    )


# ---------------------------------------------------------------------------
# criterion 5: the lemma suite


def _first_probe(instance):
    mat = instance.matroid
    columns = weight_columns(mat, instance.weights)
    lams = sorted({ev.lam for ev in all_equality_points(columns, instance.interval, mat.available)})
    hi = lams[0] if lams else instance.interval.hi
    return interior_point(instance.interval.lo, hi)


def _check_replacement_lemma(instance, probe):
    mat = instance.matroid
    at = probe_at(mat, instance.weights, probe)
    base = greedy_min_basis(mat, at)
    for e in sorted(base):
        r = replacement(mat, at, base, e)
        scratch = greedy_min_basis(mat.delete({e}), at)
        assert r is not None and scratch == base - {e} | {r}, (e, r, scratch)


def _check_sweep_cells(instance):
    mat, weights, interval = instance.matroid, instance.weights, instance.interval
    columns = weight_columns(mat, weights)
    cells = crossing_cells(interval, all_equality_points(columns, interval, mat.available), columns)
    (sweep,) = parametric_sweep(mat, cells, instance.rank).values()
    for piece in sweep:
        probe = Probe(interior_point(piece.lo, piece.hi), columns)
        assert greedy_min_basis(mat, probe) == piece.basis
        slope, intercept = sum(weights[e].b for e in piece.basis), sum(weights[e].a for e in piece.basis)
        assert Line.from_ints(columns[0], *piece.line) == (slope, intercept)


def _check_most_vital(instance, probe):
    mat, weights = instance.matroid, instance.weights
    at = probe_at(mat, weights, probe)
    base = greedy_min_basis(mat, at)
    k = len(base)

    def deleted_value(x):
        b = greedy_min_basis(mat.delete({x}), at)
        assert len(b) == k
        return value_line(at.columns, b).value_at(probe)

    best = max(deleted_value(x) for x in mat.available)
    vital = most_vital_element(mat, weights, base, probe)
    assert vital in base
    assert deleted_value(vital) == best


def _check_order_independence(instance, probe, f_star):
    mat, weights = instance.matroid, instance.weights
    at = probe_at(mat, weights, probe)
    base = greedy_min_basis(mat, at)
    results = {
        interdicted_basis_via_replacement(mat, weights, base, f_star, probe, order=perm)
        for perm in permutations(f_star)
    }
    assert len(results) == 1
    got = results.pop()
    assert got == greedy_min_basis(mat.delete(f_star), at)


def _check_partition_property(instance, probe, f_star):
    mat = instance.matroid
    at = probe_at(mat, instance.weights, probe)
    remaining = set(f_star)
    deleted: set[int] = set()
    while remaining:
        basis = greedy_min_basis(mat.delete(deleted), at)
        grab = remaining & basis
        assert grab, (f_star, deleted, basis)
        deleted |= grab
        remaining -= grab


def _check_completion_property(instance, solution):
    mat, weights = instance.matroid, instance.weights
    k = instance.rank
    for piece in solution.envelope.pieces:
        mid = interior_point(piece.lo, piece.hi)
        at = probe_at(mat, weights, mid)
        target = solution.envelope.evaluate(mid)
        f_star = set(piece.label.f_star)
        for x in f_star:
            base = f_star - {x}
            best = None
            for e in mat.available:
                if e in base:
                    continue
                b = greedy_min_basis(mat.delete(base | {e}), at)
                assert len(b) == k
                v = value_line(at.columns, b).value_at(mid)
                if best is None or v > best:
                    best = v
            assert best == target, (piece.label.f_star, x, best, target)


def _check_incremental_updates(instance, sample_sets):
    """The one-test updates match scratch recomputation at every lone
    crossing, reshapes of the union included; coincident crossings are
    outside the updates' contract and reset the replayed state instead."""
    mat, weights = instance.matroid, instance.weights
    interval, ell, k = instance.interval, instance.ell, instance.rank
    events = all_equality_points(weight_columns(mat, weights), interval, mat.available)
    if not events:
        return
    lams = sorted({ev.lam for ev in events})
    probe = probe_at(mat, weights, interior_point(interval.lo, lams[0]))
    lb = layered_bases(mat, probe, depth=ell)
    tracked = {fs: greedy_min_basis(mat.delete(fs), probe) for fs in sample_sets}
    idx = 0
    for i, lam in enumerate(lams):
        hi = lams[i + 1] if i + 1 < len(lams) else interval.hi
        next_probe = probe_at(mat, weights, interior_point(lam, hi))
        group = [ev for ev in events[idx:] if ev.lam == lam]
        idx += len(group)
        scratch = layered_bases(mat, next_probe, depth=ell)
        if len(group) == 1:
            (ev,) = group
            swaps: dict = {}  # the crossing's exchange tests, e's layer's first
            new_lb = update_u(mat, lb, ev, next_probe, swaps)
            u1, u2 = lb.union, new_lb.union
            renamed = u2 != u1 and u2 == u1 - {ev.leaving} | {ev.entering}
            tracked = dict(update_interdicted_set(mat, fs, basis, ev, renamed, swaps) for fs, basis in tracked.items())
            lb = new_lb
            assert lb.layers == scratch.layers, (lam, lb.layers, scratch.layers)
            for fs, basis in tracked.items():
                again = greedy_min_basis(mat.delete(fs), next_probe)
                assert basis == again, (lam, fs, basis, again)
        else:
            lb = scratch
            tracked = {fs: greedy_min_basis(mat.delete(fs), next_probe) for fs in tracked}
        assert all(len(b) == k for b in tracked.values())


def test_criterion_5_lemma_suite(corpus, solved_corpus):
    solutions = solved_corpus["solutions"]
    for name, instance in corpus:
        probe = _first_probe(instance)
        uset = solutions[name]["uset"]
        f_stars = [frozenset(p.label.f_star) for p in uset.envelope.pieces]

        _check_replacement_lemma(instance, probe)
        _check_sweep_cells(instance)
        _check_most_vital(instance, probe)
        _check_order_independence(instance, probe, tuple(sorted(f_stars[0])))
        for piece in uset.envelope.pieces:
            _check_partition_property(
                instance, interior_point(piece.lo, piece.hi), piece.label.f_star
            )
        _check_completion_property(instance, uset)
        _check_incremental_updates(instance, f_stars[:12])
    print("PASS criterion 5: lemma suite holds on every corpus instance")


# ---------------------------------------------------------------------------
# criterion 6 lives in test_envelope.py (random families vs pointwise max);
# this gate re-runs a compact version so the file stays self-contained


def test_criterion_6_envelope_oracle():
    import random

    from matroid_interdiction.envelope import Line, classify_changepoints

    rng = random.Random(606)
    sampled = 0
    for _case in range(20):
        lo, hi = F(-8), F(8)
        n = rng.randint(1, 50)
        entries = [
            (
                Line(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-40, 40), rng.randint(1, 3))),
                i,
            )
            for i in range(n)
        ]
        env = envelope_of_lines(*int_lines(entries), lo, hi)
        for _ in range(50):
            lam = lo + (hi - lo) * F(rng.randint(0, 10**6), 10**6)
            expect = max(line.value_at(lam) for line, _label in entries)
            assert env.evaluate(lam) == expect
            sampled += 1
        marks = classify_changepoints(env)
        boundaries = {}
        for left, right in zip(env.pieces, env.pieces[1:]):
            if left.label != right.label:
                boundaries[left.hi] = "interdiction-point"
            elif left.line != right.line:
                boundaries[left.hi] = "breakpoint"
        assert {c.lam: c.kind for c in marks} == boundaries
    assert sampled == 1000
    print(f"PASS criterion 6: envelope equals pointwise max at {sampled} rationals")


# ---------------------------------------------------------------------------
# criterion 7: qualitative oracle-call growth on a fixed-k ladder


def test_criterion_7_growth_report():
    ladder = [8, 10, 12, 14, 16]
    rows = []
    for m in ladder:
        instance = instance_from_dict(generate_random("uniform", m, 3, 2, 7))
        per = {alg: solve(instance, alg) for alg in ("brute", "uset", "tree")}
        for lam in _probe_points(list(per.values())):
            values = {a: s.envelope.evaluate(lam) for a, s in per.items()}
            assert len(set(values.values())) == 1
        rows.append((m, {a: s.oracle_calls for a, s in per.items()}))

    print("PASS criterion 7: oracle-call growth on the fixed-k ladder (reported)")
    print(f"  {'m':>4} {'brute':>10} {'uset':>10} {'tree':>10} {'brute/uset':>12}")
    for m, calls in rows:
        assert all(v > 0 for v in calls.values())
        ratio = calls["brute"] / calls["uset"]
        print(
            f"  {m:>4} {calls['brute']:>10} {calls['uset']:>10} {calls['tree']:>10} {ratio:>12.2f}"
        )
    import math

    for alg in ("brute", "uset"):
        slopes = [
            math.log(rows[i + 1][1][alg] / rows[i][1][alg]) / math.log(ladder[i + 1] / ladder[i])
            for i in range(len(rows) - 1)
        ]
        avg = sum(slopes) / len(slopes)
        print(f"  {alg}: mean log-log slope of oracle calls vs m = {avg:.2f}")
