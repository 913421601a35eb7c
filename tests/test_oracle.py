"""Brute-force oracle and independent solution verification."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_interdiction import TIE_REPRODUCER
from test_kernel import rationals

from matroid_interdiction import oracle
from matroid_interdiction.cli import generate_random, instance_from_dict
from matroid_interdiction.envelope import POS_INF, Line, Piece, PiecewiseLinearFunction
from matroid_interdiction.interdiction import EnumerationCapExceeded, InterdictionSolution, SegmentLabel, solve
from matroid_interdiction.matroid import Matroid, graphic, partition, uniform
from matroid_interdiction.oracle import VerificationReport, oracle_value, verify_solution
from matroid_interdiction.parametric import Interval, MatroidInstance, ParametricWeight, pw, weight_at

F = Fraction


def diamond_instance():
    # 4-cycle with a chord; every single-edge deletion stays connected
    mat = graphic(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    weights = (pw(1, 2), pw(4, -1), pw(2, 0), pw(6, -2), pw(3, 1))
    return MatroidInstance(mat, weights, 1, Interval(F(-2), F(2)))


def test_oracle_value_matches_solver_envelope():
    inst = diamond_instance()
    sol = solve(inst, "brute")
    for lam in (F(-2), F(-7, 5), F(0), F(1, 3), F(2)):
        value, _, _ = oracle_value(inst, lam)
        assert value == sol.envelope.evaluate(lam)


def test_oracle_value_reports_lex_first_maximizer():
    # two parallel pairs, identical weights: every budget-1 deletion ties
    mat = graphic(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    inst = MatroidInstance(mat, (pw(1, 0),) * 4, 1, Interval(F(0), F(1)))
    value, f_star, basis = oracle_value(inst, F(1, 2))
    assert value == 2
    assert f_star == (0,)
    assert basis == {1, 2}


def test_oracle_value_infinite_reports_first_killing_set():
    inst = MatroidInstance(
        uniform(5, 3), tuple(pw(i, 1) for i in range(5)), 3, Interval(F(0), F(1))
    )
    value, f_star, basis = oracle_value(inst, F(1, 2))
    assert value == POS_INF
    assert f_star == (0, 1, 2)
    assert len(basis) < 3


def test_verification_report_truthiness():
    good = VerificationReport(True, 12, ())
    bad = VerificationReport(False, 3, ("lam=0: claimed value 1, oracle value 2",))
    assert good
    assert good.samples_checked == 12 and good.failures == ()
    assert not bad


def test_verify_solution_accepts_every_algorithm():
    inst = diamond_instance()
    for algo in ("brute", "uset", "tree"):
        report = verify_solution(inst, solve(inst, algo), extra_samples=20, seed=3)
        assert report.ok, report.failures
        assert report.samples_checked >= 20
        assert report.failures == ()


def tamper(solution, index, line=None, **label):
    """The solution with piece index's line or label fields replaced."""
    env = solution.envelope
    pieces = list(env.pieces)
    piece = pieces[index]
    pieces[index] = Piece(piece.lo, piece.hi, piece.line if line is None else line, piece.label._replace(**label))
    return InterdictionSolution(
        PiecewiseLinearFunction(env.lo, env.hi, tuple(pieces)),
        solution.changepoints,
        solution.algorithm,
        solution.oracle_calls,
    )


def test_verify_solution_flags_wrong_value():
    inst = diamond_instance()
    sol = solve(inst, "brute")
    first = sol.envelope.pieces[0].line
    broken = tamper(sol, 0, line=Line(first.slope, first.intercept + 1))
    report = verify_solution(inst, broken, extra_samples=5, seed=1)
    assert not report
    assert any("claimed value" in msg for msg in report.failures)


def test_verify_solution_flags_wrong_deletion_set():
    inst = diamond_instance()
    sol = solve(inst, "uset")
    imposter = (sol.envelope.pieces[0].label.f_star[0] + 1) % 5
    report = verify_solution(inst, tamper(sol, 0, f_star=(imposter,)), extra_samples=5, seed=1)
    assert not report
    assert report.failures
    assert all(msg.startswith("lam=") or "suppressed" in msg for msg in report.failures)


def test_verify_solution_flags_wrong_basis_label():
    # the diamond's middle piece, (-1, 1/2), deletes edge 2 and keeps
    # {0, 3, 4}; {0, 1, 3} is another spanning tree without edge 2
    inst = diamond_instance()
    sol = solve(inst, "brute")
    assert sol.envelope.pieces[1].label == SegmentLabel((2,), (0, 3, 4))
    report = verify_solution(inst, tamper(sol, 1, basis=(0, 1, 3)), extra_samples=5, seed=1)
    assert not report and report.failures
    for msg in report.failures:
        assert msg.startswith("lam=") and msg.endswith(": claimed basis [0, 1, 3], oracle basis [0, 3, 4]")


def test_verify_solution_flags_deletion_set_below_the_line():
    # deleting edge 0 instead of edge 2 leaves a lighter spanning tree
    # inside the middle piece: 9 at its midpoint -1/4, where y = 39/4
    inst = diamond_instance()
    sol = solve(inst, "brute")
    report = verify_solution(inst, tamper(sol, 1, f_star=(0,)), extra_samples=5, seed=1)
    assert not report and report.failures
    assert "lam=-1/4: claimed deletion set [0] attains 9, not 39/4" in report.failures
    for msg in report.failures:
        assert msg.startswith("lam=") and ": claimed deletion set [0] attains " in msg


def test_verify_solution_flags_a_tied_deletion_set_that_is_not_the_smallest():
    # on [1, 2] deleting 0 or 1 leaves the same line -1 - lam, so (1,)
    # attains the value there; the oracle names the smallest maximizer
    inst = instance_from_dict(TIE_REPRODUCER)
    line = Line(F(-1), F(-1))
    pieces = (Piece(F(-2), F(1), line, SegmentLabel((0,), (1,))), Piece(F(1), F(2), line, SegmentLabel((1,), (2,))))
    sol = InterdictionSolution(PiecewiseLinearFunction(F(-2), F(2), pieces), (), "uset", 0)
    report = verify_solution(inst, sol, extra_samples=0)
    assert report.failures == ("lam=3/2: claimed deletion set [1], oracle found [0]",)


# CI's tie5.json: on [0, 0] every deletion set reaches 2, and (0,) with
# basis (1, 2) wins
TIE5 = {
    "matroid": {"type": "uniform", "m": 5, "k": 2},
    "weights": [{"a": "1", "b": "1"}, {"a": "1", "b": "-1"}, {"a": "1", "b": "0"}, {"a": "5", "b": "0"}, {"a": "6", "b": "0"}],
    "ell": 1,
    "interval": {"lo": "0", "hi": "0"},
}


@pytest.mark.parametrize(
    "basis,why",
    [((2, 3), "worth 6"), ((0, 2), "meets F"), ((1,), "one element short")],
)
def test_verify_solution_checks_the_basis_where_every_sample_is_a_boundary(basis, why):
    # a point interval's one sample is a boundary, where the deletion set
    # may be any maximizer, but the basis must still be one of M - F worth 2
    inst = instance_from_dict(TIE5)
    for name in ("brute", "uset", "tree"):
        sol = solve(inst, name)
        assert verify_solution(inst, sol, extra_samples=3).ok
        report = verify_solution(inst, tamper(sol, 0, basis=basis), extra_samples=3)
        assert report.failures == (f"lam=0: claimed basis {list(basis)} is no basis of M minus [0] worth 2",), why


def test_verify_solution_checks_the_independence_of_a_boundary_basis():
    # two pairs of parallel edges of weight 1, deleting one edge: the
    # parallel pair (0, 1) avoids F=(2,), has the rank's 2 elements and
    # sums to the value 2, but is a cycle
    inst = MatroidInstance(graphic(3, [(0, 1), (0, 1), (1, 2), (1, 2)]), (pw(1, 0),) * 4, 1, Interval(F(0), F(0)))
    sol = solve(inst, "brute")
    assert sol.envelope.pieces[0].label == SegmentLabel((0,), (1, 2))
    report = verify_solution(inst, tamper(sol, 0, f_star=(2,), basis=(0, 1)), extra_samples=3)
    assert report.failures == ("lam=0: claimed basis [0, 1] is no basis of M minus [2] worth 2",)


def test_verify_solution_reports_ten_failures_then_suppresses():
    # lines one above the optimum fail at all 27 samples, so the check
    # stops at the eleventh
    inst = diamond_instance()
    sol = solve(inst, "brute")
    broken = sol
    for i, piece in enumerate(sol.envelope.pieces):
        broken = tamper(broken, i, line=Line(piece.line.slope, piece.line.intercept + 1))
    report = verify_solution(inst, broken, extra_samples=20, seed=1)
    assert not report and report.samples_checked == 11
    assert len(report.failures) == 11
    assert all(": claimed value " in msg for msg in report.failures[:10])
    assert report.failures[10] == "further failures suppressed"


def test_verify_solution_counts_only_the_samples_it_checked():
    # the middle piece's line one too high fails only the samples in
    # [-1, 1/2]: with 20 extra samples 10 of the 27 fail and all are
    # checked; with 40 the eleventh failure comes at the 24th of 47
    inst = diamond_instance()
    sol = solve(inst, "brute")
    middle = sol.envelope.pieces[1].line
    broken = tamper(sol, 1, line=Line(middle.slope, middle.intercept + 1))
    whole = verify_solution(inst, broken, extra_samples=20, seed=1)
    assert (whole.samples_checked, len(whole.failures)) == (27, 10)
    assert len(oracle._sample_points(inst, broken, 40, 1)[0]) == 47
    cut = verify_solution(inst, broken, extra_samples=40, seed=1)
    assert (cut.samples_checked, len(cut.failures)) == (24, 11)
    assert cut.failures[10] == "further failures suppressed"


def test_verify_solution_caps_samples_times_deletion_sets(monkeypatch):
    inst = diamond_instance()
    sol = solve(inst, "brute")
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "100")
    assert verify_solution(inst, sol, extra_samples=20).ok  # 20 * C(5, 1) = 100 fits
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "99")
    with pytest.raises(EnumerationCapExceeded) as exc:
        verify_solution(inst, sol, extra_samples=20)
    assert exc.value.subsets == 100
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "4")
    with pytest.raises(EnumerationCapExceeded) as exc:
        verify_solution(inst, sol, extra_samples=20)
    assert exc.value.subsets == 5  # C(m, ell) is checked first


def test_verify_solution_checks_the_cap_before_drawing(monkeypatch):
    # drawing 10^9 points would take hours
    monkeypatch.setattr(oracle, "_sample_points", lambda *a: pytest.fail("points drawn above the cap"))
    with pytest.raises(EnumerationCapExceeded) as exc:
        verify_solution(diamond_instance(), solve(diamond_instance(), "brute"), extra_samples=10**9)
    assert exc.value.subsets == 5 * 10**9


def test_verify_solution_refuses_a_negative_sample_count(monkeypatch):
    # -3 extra samples would draw none and check the fixed points alone
    monkeypatch.setattr(oracle, "_sample_points", lambda *a: pytest.fail("points drawn for a negative count"))
    with pytest.raises(ValueError, match="extra_samples must be non-negative, got -3"):
        verify_solution(diamond_instance(), solve(diamond_instance(), "brute"), extra_samples=-3)


def test_verify_solution_handles_infinite_values():
    inst = MatroidInstance(
        uniform(5, 3), tuple(pw(i, (-1) ** i) for i in range(5)), 3, Interval(F(-1), F(1))
    )
    sol = solve(inst, "tree")
    assert sol.envelope.evaluate(F(0)) == POS_INF
    report = verify_solution(inst, sol, extra_samples=10, seed=2)
    assert report.ok, report.failures


def test_verify_solution_is_deterministic():
    inst = diamond_instance()
    sol = solve(inst, "brute")
    one = verify_solution(inst, sol, extra_samples=15, seed=9)
    two = verify_solution(inst, sol, extra_samples=15, seed=9)
    assert (one.ok, one.samples_checked, one.failures) == (
        two.ok,
        two.samples_checked,
        two.failures,
    )


# ---------------------------------------------------------------------------
# the integer oracle against Fraction arithmetic


def fraction_oracle_value(instance, lam):
    """oracle_value done in Fractions: sort by the weight, sum the basis."""
    mat = instance.matroid.with_fresh_counter()
    weights = instance.weights
    k = instance.rank
    order = sorted(mat.available, key=lambda e: (weight_at(weights[e], lam), e))
    best = None
    for f in combinations(mat.available, instance.ell):
        chosen = set()
        for e in order:
            if e not in f and mat.is_independent(chosen | {e}):
                chosen.add(e)
        basis = frozenset(chosen)
        if len(basis) < k:
            return POS_INF, f, basis
        value = sum((weight_at(weights[e], lam) for e in basis), F(0))
        if best is None or value > best[0]:
            best = (value, f, basis)
    return best


@st.composite
def oracle_cases(draw, max_m=7):
    """(instance, lam): small matroids whose weights often tie.

    Graphic matroids may hold loops and parallel edges, partition blocks
    may have capacity 0, and the budget runs up to m, so deletions often
    kill the rank.  Weights come from a small pool, so equal weights
    recur; lam is often the crossing of two weights, where they tie.
    """
    family = draw(st.sampled_from(["graphic", "partition", "uniform"]))
    m = draw(st.integers(1, max_m))
    if family == "graphic":
        vertices = draw(st.integers(1, 4))
        ends = st.integers(0, vertices - 1)
        mat = graphic(vertices, draw(st.lists(st.tuples(ends, ends), min_size=m, max_size=m)))
    elif family == "partition":
        blocks = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        mat = partition(blocks, draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))
    else:
        mat = uniform(m, draw(st.integers(0, m)))
    pool = draw(st.lists(st.builds(ParametricWeight, rationals, rationals), min_size=1, max_size=4))
    weights = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    ell = draw(st.integers(1, m))
    crossings = [
        (u.a - w.a) / (w.b - u.b) for u, w in combinations(pool, 2) if u.b != w.b
    ]
    lam = draw(st.sampled_from(crossings) | rationals if crossings else rationals)
    return MatroidInstance(mat, weights, ell, Interval(lam, lam)), lam


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_oracle_value_matches_fraction_reference(case):
    instance, lam = case
    assert oracle_value(instance, lam) == fraction_oracle_value(instance, lam)


# ---------------------------------------------------------------------------
# the walk over the deletion sets against one greedy run per set


class QueryLog:
    """A matroid's one-shot queries, recorded as the sets they test."""

    def __init__(self, matroid):
        self.matroid, self.queries = matroid, []

    def is_independent(self, subset):
        self.queries.append(frozenset(subset))
        return self.matroid.is_independent(subset)


def assert_walk_matches_per_set_greedy(instance, lam):
    """Every ell-subset once, with _greedy's basis and sum, or None on a kill.

    The walk may ask only what some set's own greedy run asks, and no
    more often in all than those runs together.
    """
    mat, ell, k = instance.matroid, instance.ell, instance.rank
    n, _, order = oracle._scaled_weights(instance, lam, mat.available)
    walk, runs = QueryLog(mat), QueryLog(mat)
    seen = []
    for f, outcome in oracle._interdicted_bases(walk, order, n, ell, k):
        assert len(set(f)) == ell and set(f) <= set(mat.available)
        basis = oracle._greedy(runs, order, frozenset(f))
        if len(basis) < k:
            assert outcome is None, (f, outcome)
        else:
            assert outcome == (sum(n[e] for e in basis), basis), f
        seen.append(tuple(sorted(f)))
    assert sorted(seen) == list(combinations(mat.available, ell))
    assert set(walk.queries) <= set(runs.queries)
    assert len(walk.queries) <= len(runs.queries)


@settings(max_examples=300, deadline=None)
@given(oracle_cases(max_m=10))
def test_walk_yields_each_deletion_set_once_with_its_greedy_basis(case):
    assert_walk_matches_per_set_greedy(*case)


@pytest.mark.parametrize(
    "mat",
    [
        # a loop, a parallel pair and a pendant edge
        graphic(4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (1, 3), (3, 3), (0, 2)]),
        # block 1 has capacity 0, so its elements are loops
        partition([0, 1, 1, 2, 0, 2, 1, 0], [2, 0, 1]),
        uniform(7, 0),
        uniform(9, 4),
    ],
    ids=["graphic", "partition", "uniform-k0", "uniform"],
)
def test_walk_matches_per_set_greedy_at_every_budget(mat):
    m = mat.ground_size
    weights = tuple(pw(e % 3, 1 - e % 4) for e in range(m))
    for ell in range(1, m + 1):
        inst = MatroidInstance(mat, weights, ell, Interval(F(0), F(1)))
        for lam in (F(0), F(1, 3), F(1)):
            assert_walk_matches_per_set_greedy(inst, lam)


def count_queries(monkeypatch):
    """A list that grows by one on every one-shot query."""
    calls = []
    real = Matroid.is_independent

    def counted(self, subset):
        calls.append(None)
        return real(self, subset)

    monkeypatch.setattr(Matroid, "is_independent", counted)
    return calls


@pytest.mark.parametrize("family, k", [("graphic", 5), ("partition", 3)])
def test_oracle_shares_queries_between_deletion_sets(monkeypatch, family, k):
    # one greedy run per set made C(12, 2) * (12 - 2) = 660 queries
    inst = instance_from_dict(generate_random(family, 12, k, 2, 1))
    expected = fraction_oracle_value(inst, F(0))
    calls = count_queries(monkeypatch)
    assert oracle_value(inst, F(0)) == expected
    assert len(calls) <= comb(12, 2) * (12 - 2) // 4


@pytest.mark.parametrize("family, k, queries", [("graphic", 5, 114), ("partition", 3, 65)])
def test_oracle_query_pins(monkeypatch, family, k, queries):
    # the rank basis's m queries, then the walk's, which asks again the
    # queries of each set's deletion-free prefix
    inst = instance_from_dict(generate_random(family, 12, k, 2, 1))
    calls = count_queries(monkeypatch)
    oracle_value(inst, F(0))
    assert len(calls) == queries


@pytest.mark.parametrize(
    "k, ell, f_star, basis",
    [
        # every deletion kills: F=(0,) leaves all but element 0
        (1200, 1, (0,), frozenset(range(1, 1200))),
        # one element is left of the 600 the rank needs
        (600, 1199, tuple(range(1199)), frozenset({1199})),
    ],
)
def test_oracle_stops_at_the_first_kill(monkeypatch, k, ell, f_star, basis):
    m = 1200
    inst = MatroidInstance(uniform(m, k), tuple(pw(e % 7, (-1) ** e) for e in range(m)), ell, Interval(F(0), F(1)))
    lam = F(1, 2)
    expected = fraction_oracle_value(inst, lam)
    assert expected == (POS_INF, f_star, basis)
    calls = count_queries(monkeypatch)
    assert oracle_value(inst, lam) == expected
    assert len(calls) <= 2 * m
