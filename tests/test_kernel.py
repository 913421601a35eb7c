"""The integer kernel against plain Fraction arithmetic.

weight_order, greedy_min_basis and basis_line run on the integer
columns of the weights, and envelope_of_lines on its lines scaled to
integers.  Each is compared here with the same computation done in
Fractions: a sort keyed on the Fraction weight, a Fraction sum, and
upper_envelope, which never leaves Fractions.  The strategies favour
ties, equal slopes, duplicate lines under different labels, point and
unbounded domains, negative lam and large coprime denominators, where
an integer rewrite can go wrong.
"""

import ast
from fractions import Fraction
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
    ParametricWeight,
    basis_line,
    equality_point,
    greedy_min_basis,
    weight_at,
    weight_order,
)

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
    fast = envelope_of_lines(entries, lo, hi)
    slow = upper_envelope([PiecewiseLinearFunction.from_line(lo, hi, l, label) for l, label in entries])
    assert (fast.lo, fast.hi) == (slow.lo, slow.hi)
    assert fast.pieces == slow.pieces


def test_envelope_of_lines_duplicate_keeps_smallest_label():
    same, low = Line(F(1, 3), F(2)), Line(F(1, 3), F(1))
    entries = [(same, 5), (low, 0), (same, 2), (same, 9)]
    for lo, hi in ((F(-1), F(1)), (F(0), F(0)), (NEG_INF, POS_INF)):
        env = envelope_of_lines(entries, lo, hi)
        assert [(p.line, p.label) for p in env.pieces] == [(same, 2)]


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
        mat = base.delete(deleted)
        want_order = fraction_order(weights, lam, mat.available)
        want_basis = fraction_greedy(mat, weights, lam)
        for ws in (tuple(weights), list(weights)):
            assert weight_order(mat, ws, lam) == want_order
            assert greedy_min_basis(mat, ws, lam) == want_basis


@settings(max_examples=200, deadline=None)
@given(weights_st, st.sets(st.integers(0, 4)), rationals)
def test_basis_line_matches_fraction_sum(weights, basis, lam):
    slope = sum((weights[e].b for e in basis), F(0))
    intercept = sum((weights[e].a for e in basis), F(0))
    for ws in (tuple(weights), list(weights)):
        line = basis_line(ws, basis)
        assert line == Line(slope, intercept)
        assert line.value_at(lam) == sum((weight_at(weights[e], lam) for e in basis), F(0))


# ---------------------------------------------------------------------------
# the oracle stays outside the kernel

KERNEL = {
    "_kernel",
    "_integer_weights",
    "_order_memo",
    "_sort_ground",
    "_ground_order",
    "weight_order",
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
