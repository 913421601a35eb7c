"""Parametric weights w(e, lam) = a_e + lam * b_e, equality points,
the parametric minimum-basis sweep, and replacement machinery.

All arithmetic is exact: weights and parameter values are Fractions,
interval endpoints may additionally be +-math.inf (IEEE infinities
compare exactly against Fractions, no rounding is involved).  Ties are
always broken by the fixed total order (weight at lam, element id
ascending); there is no pluggable tie order.

The equality points cut the interval into cells of fixed weight order:
the arrangement, built once per solve by crossing_cells.  Every deleted
view of a ground set sweeps the same cells (see parametric_sweep).

The hot paths run on plain ints instead of Fractions.  Each weights
sequence is written once in integer form: a common denominator d (the
lcm of every a and b denominator) and numerator columns A, B with
w(e, lam) = (A[e] + lam * B[e]) / d.  At lam = p/q (q > 0) the weight
order is then the order of the ints A[e] * q + B[e] * p, and a basis
line is (sum of B, sum of A) / d: basis_line builds its two Fractions
from integer sums, so Fractions appear only where a line or a lam
leaves this module.

The solvers ask for that order at the same lam hundreds of times (one
greedy basis per tracked deletion set, one replacement search per tree
node), so the whole ground set is sorted once per (weights, lam) and
memoized: the order itself, plus each element's integer rank in it.
weight_order filters the memoized order by the matroid's deleted set,
and replacement_element sorts its pool by rank, so both visit elements
exactly as a fresh sort would and make the same oracle calls.  The
memo also holds the tuple's integer columns.  It is keyed on the
identity of the weights tuple and holds a strong reference to it, so
the id cannot be reused by another object while the entries live.  A
different tuple replaces the memo, and a miss with _ORDER_MEMO_CAP lam
values already kept empties its orders (one solve of the benchmark
workloads probes at most 81 distinct lam).  Only tuples are memoized: a
list or any other Sequence may be mutated between calls, so its
columns and orders are computed afresh every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .envelope import NEG_INF, POS_INF, Line, Piece, PiecewiseLinearFunction, interior_point
from .matroid import Matroid


def rat(value) -> Fraction:
    """Coerce ints, decimal strings, and 'p/q' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a string or Fraction")
    return Fraction(value)


class ParametricWeight(NamedTuple):
    a: Fraction  # intercept
    b: Fraction  # slope


def pw(a, b) -> ParametricWeight:
    return ParametricWeight(rat(a), rat(b))


def weight_at(w: ParametricWeight, lam: Fraction) -> Fraction:
    return w.a + lam * w.b


@dataclass(frozen=True)
class Interval:
    """Closed parameter interval; endpoints are Fractions or +-inf."""

    lo: object
    hi: object

    def __post_init__(self):
        if not (self.lo == NEG_INF or isinstance(self.lo, Fraction)):
            raise TypeError("interval lo must be a Fraction or -inf")
        if not (self.hi == POS_INF or isinstance(self.hi, Fraction)):
            raise TypeError("interval hi must be a Fraction or +inf")
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


class EqualityPoint(NamedTuple):
    """Crossing of two weight lines; the leaving element is cheaper before lam.

    Tuple order is sweep order: by lam, then (leaving id, entering id).
    """

    lam: Fraction
    leaving: int
    entering: int


def equality_point(e: int, f: int, we: ParametricWeight, wf: ParametricWeight) -> EqualityPoint | None:
    """Crossing point of the weight lines of e and f, or None if parallel."""
    if e == f:
        raise ValueError("equality point needs two distinct elements")
    if we.b == wf.b:
        return None
    lam = (wf.a - we.a) / (we.b - wf.b)
    if we.b > wf.b:  # e grows faster, so e is the cheaper one before lam
        return EqualityPoint(lam, e, f)
    return EqualityPoint(lam, f, e)


def all_equality_points(
    weights: Sequence[ParametricWeight],
    interval: Interval,
    elements: Iterable[int] | None = None,
) -> list[EqualityPoint]:
    """All pairwise crossings strictly inside the interval, in sweep order.

    Events sharing a lam are ordered by (leaving id, entering id), which
    realizes a symbolic perturbation of coincident crossings.
    """
    if elements is None:
        elements = range(len(weights))
    elems = sorted(elements)
    events = []
    for i, e in enumerate(elems):
        for f in elems[i + 1:]:
            ev = equality_point(e, f, weights[e], weights[f])
            if ev is not None and interval.lo < ev.lam < interval.hi:
                events.append(ev)
    events.sort()
    return events


def crossing_cells(interval: Interval, events: Sequence[EqualityPoint]):
    """The cells between consecutive distinct crossing lams, left to right.

    Each cell is (lo, hi, probe, crossings): probe = interior_point(lo, hi)
    is where solvers evaluate the cell, and crossings are the sorted events
    at lo, all events sharing a lam in one group (none for the first cell).
    """
    cells, lo, crossings = [], interval.lo, ()
    for lam, group in groupby(events, key=attrgetter("lam")):
        cells.append((lo, lam, interior_point(lo, lam), crossings))
        lo, crossings = lam, tuple(group)
    cells.append((lo, interval.hi, interior_point(lo, interval.hi), crossings))
    return cells


_ORDER_MEMO_CAP = 128
# (weights tuple, its integer columns, {lam: (order, rank)}); swapped
# whole when the tuple changes
_order_memo: tuple[tuple, tuple, dict] = ((), (1, [], []), {})


def _integer_weights(weights: Sequence[ParametricWeight]) -> tuple[int, list[int], list[int]]:
    """(d, A, B) with w(e, lam) = (A[e] + lam * B[e]) / d, all ints."""
    d = lcm(*(x.denominator for w in weights for x in w))
    return (
        d,
        [w.a.numerator * (d // w.a.denominator) for w in weights],
        [w.b.numerator * (d // w.b.denominator) for w in weights],
    )


def _kernel(weights: Sequence[ParametricWeight]) -> tuple[tuple, dict | None]:
    """The integer columns of the weights and, for a tuple, its order memo."""
    global _order_memo
    if not isinstance(weights, tuple):
        return _integer_weights(weights), None
    held, columns, entries = _order_memo
    if held is not weights:
        columns, entries = _integer_weights(weights), {}
        _order_memo = (weights, columns, entries)
    return columns, entries


def _sort_ground(columns, lam: Fraction):
    _d, A, B = columns
    p, q = lam.numerator, lam.denominator
    # d * q * w(e, lam) = A[e] * q + B[e] * p with d, q > 0; the stable
    # sort of ascending ids breaks equal weights by id
    order = sorted(range(len(A)), key=[a * q + b * p for a, b in zip(A, B)].__getitem__)
    rank = [0] * len(order)
    for i, e in enumerate(order):
        rank[e] = i
    return tuple(order), tuple(rank)


def _ground_order(weights: Sequence[ParametricWeight], lam: Fraction):
    """Every element id by (weight at lam, id), and each id's rank in that order."""
    columns, entries = _kernel(weights)
    if entries is None:
        return _sort_ground(columns, lam)
    hit = entries.get(lam)
    if hit is None:
        if len(entries) >= _ORDER_MEMO_CAP:
            entries.clear()
        hit = entries[lam] = _sort_ground(columns, lam)
    return hit


def weight_order(matroid: Matroid, weights: Sequence[ParametricWeight], lam: Fraction) -> list[int]:
    """Available elements sorted by (weight at lam, id)."""
    if len(weights) != matroid.ground_size:
        raise ValueError(f"expected {matroid.ground_size} weights, got {len(weights)}")
    deleted = matroid.deleted
    return [e for e in _ground_order(weights, lam)[0] if e not in deleted]


def greedy_min_basis(matroid: Matroid, weights: Sequence[ParametricWeight], lam: Fraction) -> frozenset[int]:
    """Minimum-weight maximal independent set at lam.

    May be smaller than the full-rank basis when deletions have reduced
    the rank; callers treat that as the infinite-value case.
    """
    return matroid.greedy(weight_order(matroid, weights, lam))


def replacement_element(
    matroid: Matroid,
    weights: Sequence[ParametricWeight],
    basis: frozenset[int],
    e: int,
    lam: Fraction,
    among: Iterable[int] | None = None,
) -> int | None:
    """Cheapest element restoring the basis after e leaves, or None.

    `among` restricts the search space (used when a containing layer is
    known); by default every available non-basis element is considered.
    """
    if e not in basis:
        raise ValueError(f"element {e} is not in the basis")
    pool = matroid.available if among is None else among
    rank = _ground_order(weights, lam)[1]
    candidates = sorted((r for r in pool if r not in basis), key=rank.__getitem__)
    return matroid.first_fit(basis - {e}, candidates)


def most_vital_element(
    matroid: Matroid,
    weights: Sequence[ParametricWeight],
    basis: frozenset[int],
    lam: Fraction,
) -> int:
    """Basis element whose removal raises the min-basis weight the most.

    A missing replacement counts as an infinite increase; ties go to the
    smaller element id.
    """
    best_e = None
    best_delta = None
    for e in sorted(basis):
        r = replacement_element(matroid, weights, basis, e, lam)
        delta = POS_INF if r is None else weight_at(weights[r], lam) - weight_at(weights[e], lam)
        if best_delta is None or delta > best_delta:
            best_e, best_delta = e, delta
    if best_e is None:
        raise ValueError("most vital element of an empty basis")
    return best_e


def interdicted_basis_via_replacement(
    matroid: Matroid,
    weights: Sequence[ParametricWeight],
    basis: frozenset[int],
    F: Iterable[int],
    lam: Fraction,
    order: Sequence[int] | None = None,
) -> frozenset[int] | None:
    """Optimal basis avoiding F, built by iterated delete-and-replace.

    Deletion order does not affect the result; None means the deletions
    killed the rank (the infinite-value case).
    """
    order = sorted(F) if order is None else list(order)
    cur_m = matroid
    cur_b = frozenset(basis)
    for e in order:
        if e in cur_b:
            r = replacement_element(cur_m, weights, cur_b, e, lam)
            if r is None:
                return None
            cur_b = cur_b - {e} | {r}
        cur_m = cur_m.delete({e})
    return cur_b


def exchange(matroid: Matroid, basis: frozenset[int], ev: EqualityPoint) -> frozenset[int]:
    """The minimum basis just right of a lone crossing, given the one left of it.

    A lone crossing lam(e -> f) is an adjacent transposition of the
    weight order, so the basis either keeps its shape or trades e for f:
    basis - e + f when e is in the basis, f is not, and the swap stays
    independent (one oracle call), otherwise basis itself.
    """
    e, f = ev.leaving, ev.entering
    if e in basis and f not in basis:
        swapped = basis - {e} | {f}
        if matroid.is_independent(swapped):
            return swapped
    return basis


def basis_line(weights: Sequence[ParametricWeight], basis: Iterable[int]) -> Line:
    """The value line lam -> sum of w(e, lam) over the basis, from integer sums."""
    (d, A, B), _entries = _kernel(weights)
    slope = intercept = 0
    for e in basis:
        slope += B[e]
        intercept += A[e]
    return Line(Fraction(slope, d), Fraction(intercept, d))


def parametric_sweep(
    matroid: Matroid,
    weights: Sequence[ParametricWeight],
    cells: Sequence[tuple],
) -> PiecewiseLinearFunction:
    """Minimum-basis value over the cells' span, one piece per basis.

    cells is a crossing_cells() arrangement of any superset of the
    matroid's available elements.  Pieces are labeled with their basis,
    a frozenset; neighbouring pieces hold different bases.  The first
    cell's probe gets a greedy basis.  Each later cell keeps only its
    crossings between two available elements: with none the basis
    stands, one costs at most exchange()'s single independence test, and
    several coincident ones cost one greedy at the cell's probe.  That
    probe lies in the matroid's own cell starting at the same lam, so
    bases and oracle calls match a sweep over the matroid's own cells.
    """
    deleted = matroid.deleted
    basis = greedy_min_basis(matroid, weights, cells[0][2])
    pieces: list[Piece] = []
    lo = cells[0][0]
    for lam, _hi, probe, crossings in cells[1:]:
        live = [ev for ev in crossings if ev.leaving not in deleted and ev.entering not in deleted]
        if not live:
            continue
        if len(live) == 1:
            nxt = exchange(matroid, basis, live[0])
        else:
            nxt = greedy_min_basis(matroid, weights, probe)
        if nxt != basis:
            pieces.append(Piece(lo, lam, basis_line(weights, basis), basis))
            lo, basis = lam, nxt
    hi = cells[-1][1]
    pieces.append(Piece(lo, hi, basis_line(weights, basis), basis))
    return PiecewiseLinearFunction(cells[0][0], hi, tuple(pieces))


@dataclass(frozen=True)
class MatroidInstance:
    """A parametric interdiction instance: matroid, weights, budget, interval."""

    matroid: Matroid
    weights: tuple[ParametricWeight, ...]
    ell: int
    interval: Interval

    def __post_init__(self):
        # a tuple, so the frozen instance holds no mutable list and its
        # weights hit the order memo, which serves tuples only
        object.__setattr__(self, "weights", tuple(self.weights))
        m = self.matroid.ground_size
        if len(self.weights) != m:
            raise ValueError(f"expected {m} weights, got {len(self.weights)}")
        if not 1 <= self.ell <= m:
            raise ValueError(f"budget ell={self.ell} outside 1..{m}")
        object.__setattr__(self, "rank", self.matroid.with_fresh_counter().rank())

    @property
    def ground_size(self) -> int:
        return self.matroid.ground_size
