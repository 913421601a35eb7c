"""Upper envelopes of piecewise-linear functions, exact arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matroid_interdiction.envelope import (
    NEG_INF,
    POS_INF,
    Changepoint,
    Line,
    Piece,
    PiecewiseLinearFunction,
    classify_changepoints,
    concatenate,
    envelope_of_lines,
    interior_point,
    upper_envelope,
)
from lemmas import int_lines

F = Fraction

small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=5)
lines = st.tuples(small_fracs, small_fracs).map(lambda sl: Line(sl[0], sl[1]))


def breakpoints(f: PiecewiseLinearFunction) -> list:
    """Interior piece boundaries, ascending."""
    return [p.hi for p in f.pieces[:-1]]


def sample_points(lo, hi, n, seed):
    rng = random.Random(seed)
    out = [lo, hi]
    for _ in range(n):
        out.append(lo + (hi - lo) * F(rng.randint(0, 10**6), 10**6))
    return out


# ---------------------------------------------------------------------------
# primitives


def test_interior_point_variants():
    assert interior_point(F(1), F(3)) == F(2)
    assert interior_point(NEG_INF, F(3)) == F(2)
    assert interior_point(F(3), POS_INF) == F(4)
    assert interior_point(NEG_INF, POS_INF) == F(0)


def test_line_value_exact():
    assert Line(F(2, 3), F(-1)).value_at(F(9, 2)) == F(2)


def test_from_line_and_evaluate():
    f = PiecewiseLinearFunction.from_line(F(0), F(4), Line(F(1), F(0)), label="x")
    assert f.evaluate(F(3)) == 3
    assert f.piece_at(F(3)).label == "x"
    with pytest.raises(ValueError):
        f.evaluate(F(5))


def test_infinite_function():
    f = PiecewiseLinearFunction(F(0), F(1), (Piece(F(0), F(1), None, "dead"),))
    assert f.evaluate(F(1, 2)) == POS_INF
    assert f.pieces[0].line is None


# ---------------------------------------------------------------------------
# envelopes of whole functions


@settings(max_examples=60, deadline=None)
@given(st.lists(lines, min_size=1, max_size=8), st.integers(0, 10**6))
def test_upper_envelope_equals_pointwise_max(ls, grid):
    lo, hi = F(-6), F(6)
    fs = [PiecewiseLinearFunction.from_line(lo, hi, l, label=i) for i, l in enumerate(ls)]
    env = upper_envelope(fs)
    lam = lo + (hi - lo) * F(grid, 10**6)
    expect = max(l.value_at(lam) for l in ls)
    assert env.evaluate(lam) == expect
    # the winning label's line attains the value
    piece = env.piece_at(lam)
    assert ls[piece.label].value_at(lam) == expect


def test_upper_envelope_domain_mismatch_raises():
    a = PiecewiseLinearFunction.from_line(F(0), F(1), Line(F(0), F(0)), "a")
    b = PiecewiseLinearFunction.from_line(F(0), F(2), Line(F(0), F(0)), "b")
    with pytest.raises(ValueError):
        upper_envelope([a, b])


def test_upper_envelope_label_tie_prefers_smaller_label():
    lo, hi = F(0), F(2)
    same = Line(F(0), F(5))
    a = PiecewiseLinearFunction.from_line(lo, hi, same, label="b")
    b = PiecewiseLinearFunction.from_line(lo, hi, same, label="a")
    env = upper_envelope([a, b])
    assert [p.label for p in env.pieces] == ["a"]


def test_upper_envelope_multi_piece_inputs():
    lo, hi = F(-2), F(2)
    vee = PiecewiseLinearFunction(
        lo,
        hi,
        (
            Piece(lo, F(0), Line(F(-1), F(0)), "v"),
            Piece(F(0), hi, Line(F(1), F(0)), "v"),
        ),
    )
    flat = PiecewiseLinearFunction.from_line(lo, hi, Line(F(0), F(1)), "f")
    env = upper_envelope([vee, flat])
    for lam in sample_points(lo, hi, 40, 11):
        assert env.evaluate(lam) == max(vee.evaluate(lam), flat.evaluate(lam))
    assert [p.label for p in env.pieces] == ["v", "f", "v"]
    assert breakpoints(env) == [F(-1), F(1)]


DOMAINS = [(F(-6), F(6)), (NEG_INF, F(3)), (F(-3), POS_INF), (NEG_INF, POS_INF)]


@st.composite
def piecewise_families(draw):
    """2-6 piecewise-linear functions on one domain, shuffled labels.

    Breakpoints come partly from a pool the functions share.  Most pool
    lines pass through one point above the first shared breakpoint, so
    pooled pieces cross exactly there.  A function is continuous (each
    line meets the previous one at the cut), pooled (its pieces repeat
    pool lines: equal lines under different labels) or a copy of an
    earlier function under its own label.
    """
    lo, hi = draw(st.sampled_from(DOMAINS))
    inside = st.fractions(max(lo, F(-20)), min(hi, F(20)), max_denominator=5).filter(lambda x: lo < x < hi)
    shared = draw(st.lists(inside, max_size=4, unique=True))
    anchor_x, anchor_y = (shared[0] if shared else F(0)), draw(small_fracs)
    slopes = draw(st.lists(small_fracs, min_size=1, max_size=4))
    pool = [Line(s, anchor_y - s * anchor_x) for s in slopes] + draw(st.lists(lines, max_size=2))
    labels = draw(st.permutations(range(draw(st.integers(2, 6)))))
    fs = []
    for label in labels:
        if fs and draw(st.integers(0, 4)) == 0:
            twin = draw(st.sampled_from(fs))
            pieces = tuple(Piece(p.lo, p.hi, p.line, label) for p in twin.pieces)
            fs.append(PiecewiseLinearFunction(lo, hi, pieces))
            continue
        own = draw(st.lists(inside, max_size=3))
        cuts = sorted({*own, *(x for x in shared if draw(st.booleans()))})
        if draw(st.booleans()):
            ls = [draw(st.sampled_from(pool))]
            for x in cuts:
                s = draw(small_fracs)
                ls.append(Line(s, ls[-1].value_at(x) - s * x))
        else:
            ls = [draw(st.sampled_from(pool)) for _ in range(len(cuts) + 1)]
        bounds = [lo, *cuts, hi]
        pieces = tuple(Piece(a, b, l, label) for a, b, l in zip(bounds, bounds[1:], ls))
        fs.append(PiecewiseLinearFunction(lo, hi, pieces))
    return fs


def _probe_points(fs):
    """Every finite piece end and one interior point of every piece."""
    out = set()
    for f in fs:
        for p in f.pieces:
            out.update(x for x in (p.lo, p.hi) if x not in (NEG_INF, POS_INF))
            out.add(interior_point(p.lo, p.hi))
    return out


@settings(max_examples=150, deadline=None)
@given(piecewise_families())
# label 0 meets label 1 only at the domain's lower end, -3, and loses
# everywhere right of it
@example([
    PiecewiseLinearFunction.from_line(F(-3), POS_INF, Line(F(-19, 3), F(-18)), 0),
    PiecewiseLinearFunction.from_line(F(-3), POS_INF, Line(F(0), F(1)), 1),
])
def test_upper_envelope_of_multi_piece_inputs(fs):
    env = upper_envelope(fs)
    assert (env.lo, env.hi) == (fs[0].lo, fs[0].hi)
    points = _probe_points([*fs, env])
    for lam in points:
        assert env.evaluate(lam) == max(f.evaluate(lam) for f in fs)
    # away from every breakpoint each line that attains the maximum is the
    # output piece's line, so the piece's label must be the smallest of theirs;
    # a label that wins only at a domain end would need a zero-length piece,
    # and those are dropped, so there the piece's line need only attain it
    cuts = {x for f in [*fs, env] for x in breakpoints(f)}
    for lam in points - cuts:
        top = env.evaluate(lam)
        piece = env.piece_at(lam)
        if lam in (env.lo, env.hi):
            assert piece.value_at(lam) == top
            continue
        covering = [f.piece_at(lam) for f in fs]
        assert piece.label == min(p.label for p in covering if p.value_at(lam) == top)
    for left, right in zip(env.pieces, env.pieces[1:]):
        assert (left.line, left.label) != (right.line, right.label)


# ---------------------------------------------------------------------------
# envelopes of plain lines (the solvers' fast path)


@settings(max_examples=120, deadline=None)
@given(st.lists(lines, min_size=1, max_size=50), st.integers(0, 10**6), st.booleans())
# three lines through (0, 0): a three-way tie at the point domain [0, 0]
@example([Line(F(1), F(0)), Line(F(-1), F(0)), Line(F(0), F(0))], 0, True)
def test_envelope_of_lines_matches_upper_envelope(ls, grid, point):
    lo, hi = F(-5), F(5)
    if point:  # where the first and last lines cross, so that those two tie there
        a, b = ls[0], ls[-1]
        lo = hi = F(0) if a.slope == b.slope else (b.intercept - a.intercept) / (a.slope - b.slope)
    entries = [(l, i) for i, l in enumerate(ls)]
    fast = envelope_of_lines(*int_lines(entries), lo, hi)
    slow = upper_envelope(
        [PiecewiseLinearFunction.from_line(lo, hi, l, label=i) for i, l in enumerate(ls)]
    )
    assert fast.pieces == slow.pieces
    if point:
        top = max(l.value_at(lo) for l in ls)
        assert [p.label for p in fast.pieces] == [min(i for i, l in enumerate(ls) if l.value_at(lo) == top)]
    lam = lo + (hi - lo) * F(grid, 10**6)
    assert fast.evaluate(lam) == max(l.value_at(lam) for l in ls)


def test_envelope_slopes_increase_left_to_right():
    rng = random.Random(5)
    for _ in range(20):
        ls = [Line(F(rng.randint(-9, 9)), F(rng.randint(-9, 9))) for _ in range(12)]
        env = envelope_of_lines(*int_lines([(l, i) for i, l in enumerate(ls)]), F(-4), F(4))
        slopes = [p.line.slope for p in env.pieces]
        assert slopes == sorted(slopes), "an upper envelope of lines is convex"


# ---------------------------------------------------------------------------
# concatenation


def test_concatenate_merges_equal_boundary_runs():
    l = Line(F(1), F(0))
    a = PiecewiseLinearFunction.from_line(F(0), F(1), l, label="x")
    b = PiecewiseLinearFunction.from_line(F(1), F(2), l, label="x")
    c = PiecewiseLinearFunction.from_line(F(2), F(3), Line(F(2), F(-2)), label="y")
    joined = concatenate([a, b, c])
    assert joined.lo == F(0) and joined.hi == F(3)
    assert len(joined.pieces) == 2  # the two x-pieces fuse
    assert breakpoints(joined) == [F(2)]


def test_concatenate_rejects_gaps():
    a = PiecewiseLinearFunction.from_line(F(0), F(1), Line(F(0), F(0)), "a")
    b = PiecewiseLinearFunction.from_line(F(2), F(3), Line(F(0), F(0)), "b")
    with pytest.raises(ValueError):
        concatenate([a, b])


def test_concatenate_empty_rejected():
    with pytest.raises(ValueError):
        concatenate([])


# ---------------------------------------------------------------------------
# changepoint classification


def test_classify_kinds():
    pieces = (
        Piece(F(0), F(1), Line(F(2), F(0)), "A"),
        Piece(F(1), F(2), Line(F(1), F(1)), "A"),
        Piece(F(2), F(3), Line(F(-1), F(5)), "B"),
    )
    env = PiecewiseLinearFunction(F(0), F(3), pieces)
    marks = classify_changepoints(env, key=lambda label: label)
    assert marks == [Changepoint(F(1), "breakpoint"), Changepoint(F(2), "interdiction-point")]


def test_classify_with_projection_key():
    pieces = (
        Piece(F(0), F(1), Line(F(2), F(0)), ("F", "b1")),
        Piece(F(1), F(2), Line(F(1), F(1)), ("F", "b2")),
    )
    env = PiecewiseLinearFunction(F(0), F(2), pieces)
    # full labels differ, but the projected winner is the same set
    assert classify_changepoints(env, key=lambda label: label)[0].kind == "interdiction-point"
    projected = classify_changepoints(env, key=lambda lab: lab[0])
    assert projected[0].kind == "breakpoint"
    # equal line and equal projected label: not a changepoint at all
    flat = PiecewiseLinearFunction(
        F(0),
        F(2),
        (
            Piece(F(0), F(1), Line(F(1), F(0)), ("F", "b1")),
            Piece(F(1), F(2), Line(F(1), F(0)), ("F", "b2")),
        ),
    )
    assert classify_changepoints(flat, key=lambda lab: lab[0]) == []


@settings(max_examples=40, deadline=None)
@given(st.lists(lines, min_size=2, max_size=20))
def test_classification_matches_label_diff_oracle(ls):
    env = envelope_of_lines(*int_lines([(l, i) for i, l in enumerate(ls)]), F(-5), F(5))
    marks = {c.lam: c.kind for c in classify_changepoints(env, key=lambda label: label)}
    expect = {}
    for left, right in zip(env.pieces, env.pieces[1:]):
        if left.label != right.label:
            expect[left.hi] = "interdiction-point"
        elif left.line != right.line:
            expect[left.hi] = "breakpoint"
    assert marks == expect
