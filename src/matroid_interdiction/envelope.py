"""Exact piecewise-linear functions over one parameter and their
labeled upper envelope.

Pieces carry an optional label (for interdiction use: the deletion set
that produced the piece).  The envelope algebra works on finite lines
only.  The value +inf exists only as a flat solution: one Piece with
line=None spanning the whole domain, built by the solvers when a
deletion kills the rank and never passed back into the algebra.  Value
ties are resolved toward the smallest label, with unlabeled pieces
losing against labeled ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple, Sequence

NEG_INF = -math.inf
POS_INF = math.inf


class Line(NamedTuple):
    slope: Fraction
    intercept: Fraction

    def value_at(self, lam) -> Fraction:
        return self.intercept + lam * self.slope


def interior_point(lo, hi) -> Fraction:
    """Midpoint of [lo, hi]; one unit inside a missing endpoint."""
    lo_finite = lo != NEG_INF
    hi_finite = hi != POS_INF
    if lo_finite and hi_finite:
        return (lo + hi) / 2
    if lo_finite:
        return lo + 1
    if hi_finite:
        return hi - 1
    return Fraction(0)


def _label_key(label):
    # labeled pieces beat unlabeled ones on value ties
    return (1,) if label is None else (0, label)


@dataclass(frozen=True)
class Piece:
    lo: object
    hi: object
    line: Line | None  # None encodes the flat value +inf
    label: Any = None

    def value_at(self, lam):
        return POS_INF if self.line is None else self.line.value_at(lam)


@dataclass(frozen=True)
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
    def from_line(cls, lo, hi, line: Line, label=None) -> "PiecewiseLinearFunction":
        return cls(lo, hi, (Piece(lo, hi, line, label),))

    def breakpoints(self) -> list:
        """Interior piece boundaries, ascending."""
        return [p.hi for p in self.pieces[:-1]]

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
        best = None
        for p in self.pieces:
            if p.lo <= lam <= p.hi:
                v = p.value_at(lam)
                if best is None or v > best:
                    best = v
        return best


def _normalize(lo, hi, pieces: list[Piece]) -> PiecewiseLinearFunction:
    """Drop zero-length pieces and merge adjacent equal (line, label) runs."""
    if lo == hi:
        keep = [p for p in pieces if p.lo == p.hi == lo]
        best = keep[0]
        for p in keep[1:]:
            v_best, v_p = best.value_at(lo), p.value_at(lo)
            if v_p > v_best or (v_p == v_best and _label_key(p.label) < _label_key(best.label)):
                best = p
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


def _piece_covering(pieces: Sequence[Piece], x0, x1) -> Piece:
    for p in pieces:
        if p.lo <= x0 and x1 <= p.hi:
            return p
    raise AssertionError("refined sub-interval not covered by any piece")


def _sub_pieces(x0, x1, pa: Piece, pb: Piece) -> list[Piece]:
    """Envelope of two single-line pieces on [x0, x1]."""
    la, lb = pa.line, pb.line
    if la == lb:
        return [Piece(x0, x1, la, min(pa.label, pb.label, key=_label_key))]
    if la.slope != lb.slope:
        cross = (lb.intercept - la.intercept) / (la.slope - lb.slope)
        if x0 < cross < x1:
            left = _winner(x0, cross, pa, pb)
            right = _winner(cross, x1, pa, pb)
            return [Piece(x0, cross, left.line, left.label), Piece(cross, x1, right.line, right.label)]
    w = _winner(x0, x1, pa, pb)
    return [Piece(x0, x1, w.line, w.label)]


def _winner(x0, x1, pa: Piece, pb: Piece) -> Piece:
    rep = interior_point(x0, x1)
    va, vb = pa.value_at(rep), pb.value_at(rep)
    if va > vb:
        return pa
    if vb > va:
        return pb
    return pa if _label_key(pa.label) <= _label_key(pb.label) else pb


def _merge(f: PiecewiseLinearFunction, g: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
    if (f.lo, f.hi) != (g.lo, g.hi):
        raise ValueError("envelope inputs must share one domain")
    if f.lo == f.hi:
        return _normalize(f.lo, f.hi, list(f.pieces) + list(g.pieces))
    bounds = sorted({f.lo, f.hi, *f.breakpoints(), *g.breakpoints()})
    out: list[Piece] = []
    for x0, x1 in zip(bounds, bounds[1:]):
        pa = _piece_covering(f.pieces, x0, x1)
        pb = _piece_covering(g.pieces, x0, x1)
        out.extend(_sub_pieces(x0, x1, pa, pb))
    return _normalize(f.lo, f.hi, out)


def upper_envelope(fs: Sequence[PiecewiseLinearFunction]) -> PiecewiseLinearFunction:
    """Pointwise maximum of the inputs, labels riding along.

    Divide-and-conquer pairwise merging; ties resolve to the smallest
    label independent of merge order.
    """
    if not fs:
        raise ValueError("upper envelope of an empty family")
    fs = list(fs)
    while len(fs) > 1:
        nxt = [_merge(fs[i], fs[i + 1]) for i in range(0, len(fs) - 1, 2)]
        if len(fs) % 2:
            nxt.append(fs[-1])
        fs = nxt
    return fs[0]


def envelope_of_lines(entries: Sequence[tuple[Line, Any]], lo, hi) -> PiecewiseLinearFunction:
    """Upper envelope of (line, label) entries on [lo, hi]; fast path for solvers."""
    if not entries:
        raise ValueError("upper envelope of an empty family")
    if lo == hi:
        best_line, best_label = entries[0]
        for line, label in entries[1:]:
            v, bv = line.value_at(lo), best_line.value_at(lo)
            if v > bv or (v == bv and _label_key(label) < _label_key(best_label)):
                best_line, best_label = line, label
        return PiecewiseLinearFunction.from_line(lo, hi, best_line, best_label)

    label_of: dict[Line, Any] = {}
    for line, label in entries:
        if line not in label_of or _label_key(label) < _label_key(label_of[line]):
            label_of[line] = label
    # among equal slopes only the highest intercept can ever win
    best_by_slope: dict[Fraction, Line] = {}
    for line in label_of:
        cur = best_by_slope.get(line.slope)
        if cur is None or line.intercept > cur.intercept:
            best_by_slope[line.slope] = line
    lines = sorted(best_by_slope.values())

    hull: list[Line] = []
    xs: list[Fraction] = []  # xs[i]: where hull[i+1] overtakes hull[i]
    for ln in lines:
        while hull:
            top = hull[-1]
            x = (top.intercept - ln.intercept) / (ln.slope - top.slope)
            if xs and x <= xs[-1]:
                hull.pop()
                xs.pop()
                continue
            xs.append(x)
            break
        hull.append(ln)

    pieces: list[Piece] = []
    for i, ln in enumerate(hull):
        reign_lo = xs[i - 1] if i > 0 else NEG_INF
        reign_hi = xs[i] if i < len(xs) else POS_INF
        p_lo = max(lo, reign_lo)
        p_hi = min(hi, reign_hi)
        if p_lo < p_hi:
            pieces.append(Piece(p_lo, p_hi, ln, label_of[ln]))
    return _normalize(lo, hi, pieces)


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


@dataclass(frozen=True)
class Changepoint:
    lam: Fraction
    kind: str  # "breakpoint" or "interdiction-point"
    before: Any
    after: Any


def classify_changepoints(envelope: PiecewiseLinearFunction, key=None) -> list[Changepoint]:
    """Classify every interior piece boundary of the envelope.

    A label change makes an interdiction point; a persisting label with
    a slope change makes a breakpoint. `key` projects a label down to
    the identity that decides the distinction; by default the whole
    label counts. Boundaries with equal projected labels and equal
    lines are not changepoints and are skipped.
    """
    ident = (lambda label: label) if key is None else key
    out: list[Changepoint] = []
    for left, right in zip(envelope.pieces, envelope.pieces[1:]):
        if ident(left.label) != ident(right.label):
            kind = "interdiction-point"
        elif left.line != right.line:
            kind = "breakpoint"
        else:
            continue
        out.append(Changepoint(left.hi, kind, left.label, right.label))
    return out
