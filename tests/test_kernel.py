"""The integer kernel against plain Fraction arithmetic.

Inside a solve everything runs on the integer columns of the weights
(weight_columns): all_equality_points computes each crossing from them,
a Probe's weight order and greedy_min_basis compare them, basis_line
sums them into an int pair, and envelope_of_lines takes those pairs over
the columns' one denominator.  Each is compared here with the same
computation done in Fractions: equality_point, a sort keyed on the
Fraction weight, a Fraction sum, and upper_envelope, which never leaves
Fractions.  The strategies favour ties, parallel and identical lines,
equal slopes, duplicate lines under different labels, point and
unbounded domains, endpoints on a crossing, negative lam and large
coprime denominators, where an integer rewrite can go wrong.

The verifier must not share this kernel: KERNEL names every kernel
helper (the columns, the crossings, the Probe with its constructors and
sort, the cells with the swap order of coincident crossings, the greedy
scans, augment and exchange states, basis_line and envelope_of_lines),
and oracle.py may reference none of them.  The oracle keeps its own
integer path: it scales the weights at each sample lam by the lcm of
their denominators, not by the solve's columns.
"""

import ast
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_interdiction import oracle
from matroid_interdiction.envelope import (
    NEG_INF,
    POS_INF,
    Line,
    PiecewiseLinearFunction,
    envelope_of_lines,
    upper_envelope,
)
from matroid_interdiction.matroid import graphic, uniform
from matroid_interdiction.parametric import (
    Interval,
    ParametricWeight,
    all_equality_points,
    basis_line,
    greedy_min_basis,
    weight_at,
    weight_columns,
)
from lemmas import equality_point, int_lines, probe_at

F = Fraction

# small denominators make ties; large primes make a huge common denominator
DENOMINATORS = [1, 2, 3, 7, 10007, 999983, 2**31 - 1, 2**61 - 1]
rationals = st.builds(
    lambda n, d: F(n, d),
    st.integers(-40, 40),
    st.sampled_from(DENOMINATORS),
) | st.builds(
    lambda n, d: F(n, d),
    st.integers(-(10**12), 10**12),
    st.sampled_from(DENOMINATORS),
)
lines = st.builds(Line, rationals, rationals)


# ---------------------------------------------------------------------------
# envelope_of_lines against upper_envelope


@st.composite
def envelope_cases(draw):
    """(entries, lo, hi) where duplicates, equal slopes and concurrent lines recur.

    Entries are drawn from a few lines: random ones, ones sharing a
    slope, and a pencil through one point x0, where three or more lines
    meet and the envelope's breakpoints coincide.  Domain ends may sit
    on x0.  Labels are distinct ints in random order, so the smallest
    label of a duplicated line is not always its first entry.
    """
    x0, y0 = draw(rationals), draw(rationals)
    pool = draw(st.lists(lines, max_size=4))
    slopes = draw(st.lists(rationals, min_size=1, max_size=3))
    pool += [Line(draw(st.sampled_from(slopes)), i) for i in draw(st.lists(rationals, max_size=4))]
    pool += [Line(s, y0 - s * x0) for s in draw(st.lists(rationals, min_size=1, max_size=4))]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    labels = draw(st.permutations(range(len(chosen))))

    ends = draw(st.lists(st.sampled_from([x0, x0 - 1, x0 + 1]) | rationals, min_size=2, max_size=2))
    a, b = sorted(ends)
    lo, hi = draw(st.sampled_from([(a, b), (a, a), (NEG_INF, b), (a, POS_INF), (NEG_INF, POS_INF)]))
    return list(zip(chosen, labels)), lo, hi


@settings(max_examples=400, deadline=None)
@given(envelope_cases())
def test_envelope_of_lines_matches_upper_envelope_piece_for_piece(case):
    entries, lo, hi = case
    fast = envelope_of_lines(*int_lines(entries), lo, hi)
    slow = upper_envelope([PiecewiseLinearFunction.from_line(lo, hi, l, label) for l, label in entries])
    assert (fast.lo, fast.hi) == (slow.lo, slow.hi)
    assert fast.pieces == slow.pieces


def test_envelope_of_lines_duplicate_keeps_smallest_label():
    same, low = Line(F(1, 3), F(2)), Line(F(1, 3), F(1))
    entries = [(same, 5), (low, 0), (same, 2), (same, 9)]
    for lo, hi in ((F(-1), F(1)), (F(0), F(0)), (NEG_INF, POS_INF)):
        env = envelope_of_lines(*int_lines(entries), lo, hi)
        assert [(p.line, p.label) for p in env.pieces] == [(same, 2)]


# ---------------------------------------------------------------------------
# crossings on the columns against Fraction crossings


@st.composite
def crossing_cases(draw):
    """(weights, interval, elements) where parallel and identical lines recur.

    Weights are drawn from a few lines and from lines sharing their
    slopes; interval ends may sit on a crossing or be infinite, and the
    elements are any subset of the ground set.
    """
    pool = draw(st.lists(st.builds(ParametricWeight, rationals, rationals), min_size=1, max_size=4))
    pool += [ParametricWeight(a, draw(st.sampled_from(pool)).b) for a in draw(st.lists(rationals, max_size=3))]
    weights = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=7))
    m = len(weights)
    crossings = [equality_point(e, f, weights[e], weights[f]) for e, f in combinations(range(m), 2)]
    lams = [ev.lam for ev in crossings if ev is not None]
    end = st.sampled_from(lams) | rationals if lams else rationals
    a, b = sorted(draw(st.lists(end, min_size=2, max_size=2)))
    lo, hi = draw(st.sampled_from([(a, b), (a, a), (NEG_INF, b), (a, POS_INF), (NEG_INF, POS_INF)]))
    return weights, Interval(lo, hi), draw(st.sets(st.integers(0, m - 1)))


@settings(max_examples=400, deadline=None)
@given(crossing_cases())
def test_all_equality_points_match_fraction_crossings(case):
    weights, interval, elements = case
    want = []
    for e, f in combinations(sorted(elements), 2):
        ev = equality_point(e, f, weights[e], weights[f])
        if ev is not None and interval.lo < ev.lam < interval.hi:
            want.append(ev)
    columns = weight_columns(uniform(len(weights), 0), weights)
    assert all_equality_points(columns, interval, elements) == sorted(want)


def test_all_equality_points_keep_crossings_closer_than_one_over_d_apart():
    # 1/3 and 1/2 lie 1/6 apart, less than 1/D for D = 3, the largest
    # crossing denominator: keys scaled by D alone would merge them, keys
    # scaled by D**2 keep them apart
    weights = [ParametricWeight(F(0), F(0)), ParametricWeight(F(-1), F(3)), ParametricWeight(F(-1), F(2))]
    columns = weight_columns(uniform(3, 0), weights)
    events = all_equality_points(columns, Interval(NEG_INF, POS_INF), range(3))
    assert events == [(F(0), 1, 2), (F(1, 3), 1, 0), (F(1, 2), 2, 0)]


# ---------------------------------------------------------------------------
# weight order, greedy bases and basis lines against Fraction sums

weights_st = st.lists(st.builds(ParametricWeight, rationals, rationals), min_size=5, max_size=5)
K4_MINUS = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]


@st.composite
def probe_lams(draw, weights):
    """A random lam, or the crossing of two weights, where their order ties."""
    e, f = draw(st.sampled_from([(e, f) for e in range(5) for f in range(e + 1, 5)]))
    ev = equality_point(e, f, weights[e], weights[f])
    if ev is not None and draw(st.booleans()):
        return ev.lam
    return draw(rationals)


def fraction_order(weights, lam, elements):
    return sorted(elements, key=lambda e: (weight_at(weights[e], lam), e))


def fraction_greedy(matroid, weights, lam):
    chosen: set[int] = set()
    for e in fraction_order(weights, lam, matroid.available):
        if matroid.is_independent(chosen | {e}):
            chosen.add(e)
    return frozenset(chosen)


@settings(max_examples=200, deadline=None)
@given(st.data(), weights_st, st.sets(st.integers(0, 4), max_size=2))
def test_weight_order_and_greedy_match_fraction_sort(data, weights, deleted):
    lam = data.draw(probe_lams(weights))
    for base in (uniform(5, 3), graphic(4, K4_MINUS)):
        probe = probe_at(base, weights, lam)
        assert list(probe.order) == fraction_order(weights, lam, range(5))
        mat = base.delete(deleted)
        assert greedy_min_basis(mat, probe) == fraction_greedy(mat, weights, lam)


@settings(max_examples=200, deadline=None)
@given(weights_st, st.sets(st.integers(0, 4)), rationals)
def test_basis_line_matches_fraction_sum(weights, basis, lam):
    slope = sum((weights[e].b for e in basis), F(0))
    intercept = sum((weights[e].a for e in basis), F(0))
    columns = weight_columns(uniform(5, 0), weights)
    d = columns[0]
    assert basis_line(columns, basis) == (slope * d, intercept * d)
    line = Line.from_ints(d, *basis_line(columns, basis))
    assert line == Line(slope, intercept)
    assert line.value_at(lam) == sum((weight_at(weights[e], lam) for e in basis), F(0))


# ---------------------------------------------------------------------------
# the oracle stays outside the kernel

KERNEL = {
    "weight_columns",
    # crossings computed from the columns
    "all_equality_points",
    # probes carry the integer weight order: crossing_cells builds them
    "Probe",
    "probe_at",
    "crossing_cells",
    "_sort_ground",
    "greedy",
    # augment and exchange states and the search on them: the oracle
    # stays on one-shot is_independent queries
    "scan",
    "grow",
    "exchanges",
    "replacement",
    "greedy_min_basis",
    "basis_line",
    "envelope_of_lines",
}


def test_oracle_uses_no_kernel_helper():
    # a kernel bug must not hide in both the solvers and their verifier
    tree = ast.parse(Path(oracle.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
            used.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # getattr(module, "name")
    assert not used & KERNEL, sorted(used & KERNEL)
