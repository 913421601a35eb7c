"""Parametric weights w(e, lam) = a_e + lam * b_e, equality points,
the parametric minimum-basis sweep, and replacement machinery.

All arithmetic is exact: weights and parameter values are Fractions,
interval endpoints may additionally be +-math.inf (IEEE infinities
compare exactly against Fractions, no rounding is involved).  Ties are
always broken by the fixed total order (weight at lam, element id
ascending); there is no pluggable tie order.

The solvers ask for that order at the same lam hundreds of times (one
greedy basis per tracked deletion set, one replacement search per tree
node), so the whole ground set is sorted once per (weights, lam) and
memoized: the order itself, plus each element's integer rank in it.
weight_order filters the memoized order by the matroid's deleted set,
and replacement_element sorts its pool by rank, so both visit elements
exactly as a fresh sort would and make the same oracle calls.  The
memo is keyed on the identity of the weights tuple and holds a strong
reference to it, so the id cannot be reused by another object while
the entries live.  A different tuple replaces the memo, and a miss with
_ORDER_MEMO_CAP lam values already kept empties it (one solve of the
benchmark workloads probes at most 81 distinct lam).  Only tuples are
memoized: a list or any other Sequence may be mutated between calls,
so it is sorted afresh every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .envelope import NEG_INF, POS_INF, Line, interior_point
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

    def contains(self, lam) -> bool:
        return self.lo <= lam <= self.hi

    def representative(self) -> Fraction:
        """A deterministic interior point (the midpoint when finite)."""
        return interior_point(self.lo, self.hi)


@dataclass(frozen=True)
class EqualityPoint:
    """Crossing of two weight lines; the leaving element is cheaper before lam."""

    lam: Fraction
    leaving: int
    entering: int

    @property
    def sort_key(self):
        return (self.lam, self.leaving, self.entering)


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
    events.sort(key=lambda ev: ev.sort_key)
    return events


def crossing_cells(interval: Interval, events: Sequence[EqualityPoint]):
    """The cells between consecutive distinct crossing lams, left to right.

    Each cell is (lo, hi, crossings): crossings are the sorted events at
    lo, all events sharing a lam in one group (none for the first cell).
    """
    cells, lo, crossings = [], interval.lo, ()
    for lam, group in groupby(events, key=attrgetter("lam")):
        cells.append((lo, lam, crossings))
        lo, crossings = lam, tuple(group)
    cells.append((lo, interval.hi, crossings))
    return cells


_ORDER_MEMO_CAP = 128
# (weights tuple, {lam: (order, rank)}); swapped whole when the tuple changes
_order_memo: tuple[tuple, dict] = ((), {})


def _sort_ground(weights: Sequence[ParametricWeight], lam: Fraction):
    order = sorted(range(len(weights)), key=lambda e: (weight_at(weights[e], lam), e))
    rank = [0] * len(order)
    for i, e in enumerate(order):
        rank[e] = i
    return tuple(order), tuple(rank)


def _ground_order(weights: Sequence[ParametricWeight], lam: Fraction):
    """Every element id by (weight at lam, id), and each id's rank in that order."""
    global _order_memo
    if not isinstance(weights, tuple):
        return _sort_ground(weights, lam)
    held, entries = _order_memo
    if held is not weights:
        entries = {}
        _order_memo = (weights, entries)
    hit = entries.get(lam)
    if hit is None:
        if len(entries) >= _ORDER_MEMO_CAP:
            entries.clear()
        hit = entries[lam] = _sort_ground(weights, lam)
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
    chosen: set[int] = set()
    for e in weight_order(matroid, weights, lam):
        chosen.add(e)
        if not matroid.is_independent(chosen):
            chosen.discard(e)
    return frozenset(chosen)


def replacement_candidates(matroid: Matroid, basis: frozenset[int], e: int) -> frozenset[int]:
    """Non-basis elements r for which basis - e + r stays independent."""
    if e not in basis:
        raise ValueError(f"element {e} is not in the basis")
    rest = set(basis) - {e}
    out = []
    for r in matroid.available:
        if r in basis:
            continue
        if matroid.is_independent(rest | {r}):
            out.append(r)
    return frozenset(out)


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
    rest = set(basis) - {e}
    rank = _ground_order(weights, lam)[1]
    for r in sorted((r for r in pool if r not in basis), key=rank.__getitem__):
        if matroid.is_independent(rest | {r}):
            return r
    return None


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


@dataclass(frozen=True)
class SweepCell:
    lo: object
    hi: object
    basis: frozenset[int]
    line: Line


@dataclass(frozen=True)
class SweepResult:
    interval: Interval
    cells: tuple[SweepCell, ...]

    def cell_at(self, lam) -> SweepCell:
        for cell in self.cells:
            if cell.lo <= lam <= cell.hi:
                return cell
        raise ValueError(f"lam={lam} outside the swept interval")


def basis_line(weights: Sequence[ParametricWeight], basis: Iterable[int]) -> Line:
    slope = sum((weights[e].b for e in basis), Fraction(0))
    intercept = sum((weights[e].a for e in basis), Fraction(0))
    return Line(slope, intercept)


def parametric_sweep(
    matroid: Matroid,
    weights: Sequence[ParametricWeight],
    interval: Interval,
    events: Sequence[EqualityPoint] | None = None,
) -> SweepResult:
    """Minimum-basis evolution over the interval.

    The basis is computed greedily once, strictly inside the first cell;
    afterwards a lone crossing lam(e -> f) with e in the basis and f
    outside costs exactly one independence test of basis - e + f.  That
    shortcut is only sound when the crossing is a single adjacent
    transposition of the weight order, so a lam carrying several
    coincident crossings falls back to one greedy recomputation just
    right of it.  Precomputed events may be passed in; they are filtered
    down to the matroid's available elements, so one sorted crossing
    list can be shared across many deleted views of the same ground set.
    """
    if events is None:
        events = all_equality_points(weights, interval, matroid.available)
    else:
        avail = set(matroid.available)
        events = [ev for ev in events if ev.leaving in avail and ev.entering in avail]
    sweep_cells = crossing_cells(interval, events)
    probe = interior_point(interval.lo, sweep_cells[0][1])
    basis = set(greedy_min_basis(matroid, weights, probe))

    cells: list[SweepCell] = []
    cell_lo = interval.lo

    def close_cell(hi):
        nonlocal cell_lo
        if cell_lo < hi:
            frozen = frozenset(basis)
            cells.append(SweepCell(cell_lo, hi, frozen, basis_line(weights, frozen)))
            cell_lo = hi

    for lam, next_lam, crossings in sweep_cells[1:]:
        if len(crossings) == 1:
            (ev,) = crossings
            if ev.leaving in basis and ev.entering not in basis:
                if matroid.is_independent(basis - {ev.leaving} | {ev.entering}):
                    close_cell(lam)
                    basis.discard(ev.leaving)
                    basis.add(ev.entering)
        else:
            fresh = greedy_min_basis(matroid, weights, interior_point(lam, next_lam))
            if fresh != basis:
                close_cell(lam)
                basis = set(fresh)
    frozen = frozenset(basis)
    cells.append(SweepCell(cell_lo, interval.hi, frozen, basis_line(weights, frozen)))
    return SweepResult(interval, tuple(cells))


@dataclass(frozen=True)
class MatroidInstance:
    """A parametric interdiction instance: matroid, weights, budget, interval."""

    matroid: Matroid
    weights: tuple[ParametricWeight, ...]
    ell: int
    interval: Interval

    def __post_init__(self):
        m = self.matroid.ground_size
        if len(self.weights) != m:
            raise ValueError(f"expected {m} weights, got {len(self.weights)}")
        if not 1 <= self.ell <= m:
            raise ValueError(f"budget ell={self.ell} outside 1..{m}")
        object.__setattr__(self, "rank", self.matroid.with_fresh_counter().rank())

    @property
    def ground_size(self) -> int:
        return self.matroid.ground_size
