"""Exact piecewise-linear functions over one parameter and their
labeled upper envelope.

Every piece carries a label (for interdiction use: the deletion set
that produced the piece, with its basis), and labels are ordered.  The
envelope algebra works on finite lines only.  The value +inf exists
only as a flat solution: one Piece with line=None spanning the whole
domain, built by the solvers when a deletion kills the rank and never
passed back into the algebra.  Value ties are resolved toward the
smallest label.

upper_envelope, the general merge that the brute-force solver uses,
computes in Fractions throughout: a left fold of _merge over the
inputs, each merge one two-pointer walk over both piece lists that
picks the winner on either side of a crossing by slope.
envelope_of_lines, the per-cell envelope of the other two solvers,
takes its lines as int pairs over the solve's one denominator d:
deduplication, the equal-slope filter, the sort and the hull test
compare those ints and cross-multiply, and a Fraction is built only
for each line and breakpoint it emits.  The two stay independent, so
each checks the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Any, NamedTuple, Sequence

NEG_INF = -math.inf
POS_INF = math.inf


class Line(NamedTuple):
    slope: Fraction
    intercept: Fraction

    @classmethod
    def from_ints(cls, d: int, slope: int, intercept: int) -> "Line":
        """The line (slope / d, intercept / d)."""
        return cls(Fraction(slope, d), Fraction(intercept, d))

    def value_at(self, lam) -> Fraction:
        return self.intercept + lam * self.slope


def interior_point(lo, hi) -> Fraction:
    """Midpoint of [lo, hi]; one unit inside a missing endpoint.

    An endpoint is a Fraction or an infinity: isinstance tells them apart
    without Fraction's slow comparison against a float.
    """
    lo_finite = isinstance(lo, Fraction)
    hi_finite = isinstance(hi, Fraction)
    if lo_finite and hi_finite:
        return (lo + hi) / 2
    if lo_finite:
        return lo + 1
    if hi_finite:
        return hi - 1
    return Fraction(0)


@dataclass(frozen=True, slots=True)
class Piece:
    lo: object
    hi: object
    line: Line | None  # None encodes the flat value +inf
    label: Any

    def value_at(self, lam):
        return POS_INF if self.line is None else self.line.value_at(lam)


@dataclass(frozen=True, slots=True)
class PiecewiseLinearFunction:
    lo: object
    hi: object
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a piecewise-linear function needs at least one piece")
        if self.pieces[0].lo != self.lo or self.pieces[-1].hi != self.hi:
            raise ValueError("pieces do not span the declared domain")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must tile the domain without gaps")

    @classmethod
    def from_line(cls, lo, hi, line: Line, label) -> "PiecewiseLinearFunction":
        return cls(lo, hi, (Piece(lo, hi, line, label),))

    def piece_at(self, lam) -> Piece:
        """The first piece covering lam (boundaries belong to both neighbors)."""
        for p in self.pieces:
            if p.lo <= lam <= p.hi:
                return p
        raise ValueError(f"lam={lam} outside the domain [{self.lo}, {self.hi}]")

    def evaluate(self, lam):
        """Function value at lam: the max over covering pieces.

        At interior boundaries both neighbors cover lam; a continuous
        function makes them agree, and the max keeps evaluation
        well-defined for arbitrary inputs.
        """
        if not self.lo <= lam <= self.hi:
            raise ValueError(f"lam={lam} outside the domain [{self.lo}, {self.hi}]")
        return max(p.value_at(lam) for p in self.pieces if p.lo <= lam <= p.hi)


def _normalize(lo, hi, pieces: list[Piece]) -> PiecewiseLinearFunction:
    """Drop zero-length pieces and merge adjacent equal (line, label) runs."""
    if lo == hi:
        best = min(pieces, key=lambda p: (-p.value_at(lo), p.label))
        return PiecewiseLinearFunction(lo, hi, (best,))
    out: list[Piece] = []
    for p in pieces:
        if p.lo == p.hi:
            continue
        if out and out[-1].line == p.line and out[-1].label == p.label:
            out[-1] = Piece(out[-1].lo, p.hi, p.line, p.label)
        else:
            out.append(p)
    return PiecewiseLinearFunction(lo, hi, tuple(out))


def _sub_pieces(x0, x1, pa: Piece, pb: Piece) -> list[Piece]:
    """Envelope of two single-line pieces on [x0, x1]: the flatter line
    left of their crossing, the steeper one right of it."""
    la, lb = pa.line, pb.line
    if la == lb:
        return [Piece(x0, x1, la, min(pa.label, pb.label))]
    if la.slope == lb.slope:
        w = pa if la.intercept > lb.intercept else pb
        return [Piece(x0, x1, w.line, w.label)]
    flat, steep = (pa, pb) if la.slope < lb.slope else (pb, pa)
    cross = (lb.intercept - la.intercept) / (la.slope - lb.slope)
    if cross <= x0:
        return [Piece(x0, x1, steep.line, steep.label)]
    if cross >= x1:
        return [Piece(x0, x1, flat.line, flat.label)]
    return [Piece(x0, cross, flat.line, flat.label), Piece(cross, x1, steep.line, steep.label)]


def aligned_pieces(f: PiecewiseLinearFunction, g: PiecewiseLinearFunction):
    """(x0, x1, f's piece, g's piece) for each stretch where neither function changes piece.

    f and g share one domain; the stretches run left to right, each
    ending where the nearer of the two current pieces ends.  A point
    domain is one stretch, (lo, lo).
    """
    i = j = 0
    x0 = f.lo
    while True:
        pa, pb = f.pieces[i], g.pieces[j]
        x1 = min(pa.hi, pb.hi)
        yield x0, x1, pa, pb
        if x1 == f.hi:
            return
        i += pa.hi == x1
        j += pb.hi == x1
        x0 = x1


def _merge(f: PiecewiseLinearFunction, g: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
    """Envelope of two functions in one walk over their aligned pieces."""
    if (f.lo, f.hi) != (g.lo, g.hi):
        raise ValueError("envelope inputs must share one domain")
    if f.lo == f.hi:  # a point tie goes by label, not by slope
        return _normalize(f.lo, f.hi, list(f.pieces) + list(g.pieces))
    out = [piece for stretch in aligned_pieces(f, g) for piece in _sub_pieces(*stretch)]
    return _normalize(f.lo, f.hi, out)


def upper_envelope(fs: Sequence[PiecewiseLinearFunction]) -> PiecewiseLinearFunction:
    """Pointwise maximum of the inputs, labels riding along.

    A left fold of _merge over the inputs; each merge walks both piece
    lists once with two pointers and splits a sub-interval only where
    its two lines cross.  Ties resolve to the smallest label independent
    of merge order.
    """
    if not fs:
        raise ValueError("upper envelope of an empty family")
    return reduce(_merge, fs)


def envelope_of_lines(entries: Sequence[tuple[tuple[int, int], Any]], d: int, lo, hi) -> PiecewiseLinearFunction:
    """Upper envelope on [lo, hi] of ((slope, intercept), label) entries; fast path for solvers.

    Each entry's line is (slope / d, intercept / d), two ints over the
    one denominator d > 0.  Equal lines keep their smallest label, as in
    upper_envelope.
    """
    if not entries:
        raise ValueError("upper envelope of an empty family")
    best: dict[tuple[int, int], Any] = {}
    for key, label in entries:
        if key not in best or label < best[key]:
            best[key] = label

    if lo == hi:
        p, q = lo.numerator, lo.denominator
        # the highest value at lo (d * q times it), then the smallest label
        _, label, key = min((-(s * p + i * q), label, (s, i)) for (s, i), label in best.items())
        return PiecewiseLinearFunction.from_line(lo, hi, Line.from_ints(d, *key), label)

    # by slope; among equal slopes only the highest intercept can ever win
    lines: list[tuple[int, int]] = []
    for key in sorted(best):
        if lines and lines[-1][0] == key[0]:
            lines[-1] = key
        else:
            lines.append(key)

    hull: list[tuple[int, int]] = []
    xs: list[tuple[int, int]] = []  # xs[j] = (num, den), den > 0: where hull[j+1] overtakes hull[j]
    for s, i in lines:
        while hull:
            ts, ti = hull[-1]
            num, den = ti - i, s - ts
            if xs and num * xs[-1][1] <= xs[-1][0] * den:
                hull.pop()
                xs.pop()
                continue
            xs.append((num, den))
            break
        hull.append((s, i))

    # the hull lines reigning inside (lo, hi): first..last
    first, last = 0, len(hull) - 1
    if lo != NEG_INF:
        while first < last and xs[first][0] * lo.denominator <= lo.numerator * xs[first][1]:
            first += 1
    if hi != POS_INF:
        while last > first and xs[last - 1][0] * hi.denominator >= hi.numerator * xs[last - 1][1]:
            last -= 1
    pieces: list[Piece] = []
    start = lo
    for j in range(first, last + 1):
        x = Fraction(*xs[j]) if j < last else hi
        pieces.append(Piece(start, x, Line.from_ints(d, *hull[j]), best[hull[j]]))
        start = x
    return PiecewiseLinearFunction(lo, hi, tuple(pieces))


def concatenate(fs: Sequence[PiecewiseLinearFunction]) -> PiecewiseLinearFunction:
    """Stitch functions on adjacent domains into one function."""
    if not fs:
        raise ValueError("cannot concatenate zero functions")
    pieces: list[Piece] = []
    for left, right in zip(fs, fs[1:]):
        if left.hi != right.lo:
            raise ValueError("domains must be adjacent in order")
    for f in fs:
        pieces.extend(f.pieces)
    return _normalize(fs[0].lo, fs[-1].hi, pieces)


@dataclass(frozen=True, slots=True)
class Changepoint:
    lam: Fraction
    kind: str  # "breakpoint" or "interdiction-point"


def classify_changepoints(envelope: PiecewiseLinearFunction, key) -> list[Changepoint]:
    """Classify every interior piece boundary of the envelope.

    A label change makes an interdiction point; a persisting label with
    a slope change makes a breakpoint. `key` projects a label down to
    the identity that decides the distinction (for interdiction use:
    the deletion set, not its basis). Boundaries with equal projected
    labels and equal lines are not changepoints and are skipped.
    """
    out: list[Changepoint] = []
    for left, right in zip(envelope.pieces, envelope.pieces[1:]):
        if key(left.label) != key(right.label):
            kind = "interdiction-point"
        elif left.line != right.line:
            kind = "breakpoint"
        else:
            continue
        out.append(Changepoint(left.hi, kind))
    return out
