"""Parametric weights w(e, lam) = a_e + lam * b_e, equality points,
the parametric minimum-basis sweep, and the replacement search.

All arithmetic is exact: weights and parameter values are Fractions,
interval endpoints may additionally be +-math.inf (IEEE infinities
compare exactly against Fractions, no rounding is involved).  Ties are
always broken by the fixed total order (weight at lam, element id
ascending); there is no pluggable tie order.

The equality points cut the interval into cells of fixed weight order:
the arrangement, built once per solve by crossing_cells, where crossings
sharing a lam come as adjacent swaps (a symbolic perturbation).  Every
deleted view of a ground set sweeps the same cells, and one walk over
them, parametric_sweep, carries the minimum bases of any number of
deleted views at once, one entry per distinct basis.

Inside a solve every computation runs on plain ints.  Each solve writes
the weights once in integer form, as columns (weight_columns): a common
denominator d (the lcm of every a and b denominator) and numerator
columns A, B with w(e, lam) = (A[e] + lam * B[e]) / d.  The lines of e
and f cross at lam = (A[f] - A[e]) / (B[e] - B[f]); at lam = p/q (q > 0)
the weight order is the order of the ints A[e] * q + B[e] * p; and
basis_line is the int pair (sum of B, sum of A), the basis's value line
times d, and the sweep's pieces carry it so.  Crossings are int pairs,
sorted and grouped on exact int keys, and a Fraction is built only once
per distinct crossing lam, which bounds a cell and which the crossings
there share.

Each cell of the arrangement carries a Probe: its lam, the solve's
columns, and the ground set's weight order at lam.  The order is sorted
on first use, so a cell is sorted at most once per solve however many
greedy bases and replacement searches read it.  The layer functions
take the probe in place of (weights, lam); greedy_min_basis filters its
order by the matroid's deleted set, so it visits elements exactly as a
fresh sort would and makes the same oracle calls.  replacement_element
takes its candidates already in probe order: the candidate tree lists
each pool in that order once per cell.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby
from math import lcm
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .envelope import NEG_INF, POS_INF, interior_point
from .matroid import Matroid


def rat(value) -> Fraction:
    """Coerce ints, decimal strings, and 'p/q' strings to Fraction.

    Exponent notation is refused: '1e3000000' would build a
    3,000,001-digit int, unchecked by the digit limit on number strings.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a string or Fraction")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"refusing exponent notation {value!r}; write an integer, a decimal or p/q")
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


def all_equality_points(columns: tuple, interval: Interval, elements: Iterable[int]) -> list[EqualityPoint]:
    """All crossings of the elements' weight lines strictly inside the interval, in sweep order.

    columns are weight_columns(); lines of equal slope never cross.
    Events sharing a lam are ordered by (leaving id, entering id) and
    share one Fraction lam; crossing_cells orders each such group as a
    chain of adjacent swaps.

    Each crossing is an int pair num / den with den > 0, and the events
    are sorted and grouped on the int key num * D**2 // den, D the
    largest den: two different crossings n1 / d1 != n2 / d2 differ by
    |n1 * d2 - n2 * d1| / (d1 * d2) >= 1 / D**2, so their values times
    D**2 differ by at least 1 and their floors differ, in the same
    order, while equal crossings share a key.  A Fraction is built only
    once per distinct lam inside the interval.
    """
    _d, A, B = columns
    # an endpoint as p / q with q > 0; -inf as -1 / 0 and +inf as 1 / 0,
    # for which the cross-multiplied tests below hold for every den > 0
    lo, hi = interval.lo, interval.hi
    lo_p, lo_q = (lo.numerator, lo.denominator) if lo != NEG_INF else (-1, 0)
    hi_p, hi_q = (hi.numerator, hi.denominator) if hi != POS_INF else (1, 0)
    elems = sorted(elements)
    crossings = []  # (num, den, leaving, entering) strictly inside the interval
    for i, e in enumerate(elems):
        ae, be = A[e], B[e]
        for f in elems[i + 1:]:
            bf = B[f]
            if be == bf:
                continue
            # the steeper line is the cheaper one before lam, so it leaves
            num, den, leaving, entering = (A[f] - ae, be - bf, e, f) if be > bf else (ae - A[f], bf - be, f, e)
            if num * lo_q > lo_p * den and num * hi_q < hi_p * den:
                crossings.append((num, den, leaving, entering))
    if not crossings:
        return []
    scale = max(den for _num, den, _e, _f in crossings) ** 2
    keyed = sorted((num * scale // den, e, f, num, den) for num, den, e, f in crossings)
    events, last, lam = [], None, None
    for key, e, f, num, den in keyed:
        if key != last:
            last, lam = key, Fraction(num, den)
        events.append(EqualityPoint(lam, e, f))
    return events


def weight_columns(matroid: Matroid, weights: Sequence[ParametricWeight]) -> tuple:
    """(d, A, B) with w(e, lam) = (A[e] + lam * B[e]) / d, all ints, one per ground element."""
    if len(weights) != matroid.ground_size:
        raise ValueError(f"expected {matroid.ground_size} weights, got {len(weights)}")
    d = lcm(*(x.denominator for w in weights for x in w))
    return (
        d,
        tuple(w.a.numerator * (d // w.a.denominator) for w in weights),
        tuple(w.b.numerator * (d // w.b.denominator) for w in weights),
    )


def _sort_ground(columns, lam: Fraction) -> tuple[int, ...]:
    _d, A, B = columns
    p, q = lam.numerator, lam.denominator
    # d * q * w(e, lam) = A[e] * q + B[e] * p with d, q > 0; the stable
    # sort of ascending ids breaks equal weights by id
    return tuple(sorted(range(len(A)), key=[a * q + b * p for a, b in zip(A, B)].__getitem__))


@dataclass(frozen=True)
class Probe:
    """A lam where solvers evaluate a cell, with the weight columns of the solve."""

    lam: Fraction
    columns: tuple

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Every element id by (weight at lam, id), sorted on first use."""
        return _sort_ground(self.columns, self.lam)


def crossing_cells(interval: Interval, events: Sequence[EqualityPoint], columns: tuple):
    """The cells between consecutive distinct crossing lams, left to right.

    Each cell is (lo, hi, probe, crossings): probe is the Probe at
    interior_point(lo, hi), where solvers evaluate the cell, over the
    given weight columns, and crossings are the events at lo (none for
    the first cell) as a chain of adjacent swaps: applied in turn they
    take the previous probe's order to this one's.

    The chain is the one an insertion sort makes from the order just
    left of lo = p / q, (value, -slope, id), to the one right of it,
    (value, slope, id).  It takes the elements f in left order and moves
    each past every a before it with a larger right place, nearest (so
    largest right place) first.  Such a pair has equal values at lo and
    different slopes, so it is an event at lo with a leaving and f
    entering, and every event is such a pair; the events therefore sort
    into the chain by f's left place, then a's right place descending,
    that is on (A[f] * q + B[f] * p, -B[f], f, -B[a], -a).  Restricted
    to any subset of the elements, the chain is the insertion sort of
    that subset in the same way, so it takes the subset's orders one to
    the other too.
    """
    _d, A, B = columns

    def chain_place(ev):
        lam, a, f = ev
        return A[f] * lam.denominator + B[f] * lam.numerator, -B[f], f, -B[a], -a

    cells, lo, crossings = [], interval.lo, ()
    for lam, group in groupby(events, key=attrgetter("lam")):
        cells.append((lo, lam, Probe(interior_point(lo, lam), columns), crossings))
        lo, crossings = lam, tuple(sorted(group, key=chain_place))
    cells.append((lo, interval.hi, Probe(interior_point(lo, interval.hi), columns), crossings))
    return cells


def greedy_min_basis(matroid: Matroid, probe: Probe) -> frozenset[int]:
    """Minimum-weight maximal independent set at the probe.

    May be smaller than the full-rank basis when deletions have reduced
    the rank; callers treat that as the infinite-value case.
    """
    deleted = matroid.deleted
    return matroid.greedy([e for e in probe.order if e not in deleted])


def replacement_element(
    matroid: Matroid,
    basis: frozenset[int],
    e: int,
    candidates: Sequence[int],
    exchanges,
) -> int | None:
    """The first candidate restoring the basis after e leaves, or None.

    candidates are the search pool's elements outside the basis, in
    probe order, so the first that fits is the cheapest; exchanges is
    the basis's exchange state, matroid.exchanges(basis), which a caller
    searching one basis more than once keeps.  They are tried in turn by
    matroid.replacement, one oracle call each.
    """
    if e not in basis:
        raise ValueError(f"element {e} is not in the basis")
    return matroid.replacement(exchanges, e, candidates)


def exchange(matroid: Matroid, basis: frozenset[int], ev: EqualityPoint) -> frozenset[int]:
    """The minimum basis after a crossing, given the one before it.

    A crossing lam(e -> f) swaps two neighbours of the weight order, so
    the basis either keeps its shape or trades e for f:
    basis - e + f when e is in the basis, f is not, and the swap stays
    independent (one oracle call), otherwise basis itself.
    """
    e, f = ev.leaving, ev.entering
    if e in basis and f not in basis:
        swapped = basis - {e} | {f}
        if matroid.is_independent(swapped):
            return swapped
    return basis


def basis_line(columns: tuple, basis: Iterable[int]) -> tuple[int, int]:
    """(sum of B, sum of A) over the basis: its value line times the columns' d."""
    _d, A, B = columns
    slope = intercept = 0
    for e in basis:
        slope += B[e]
        intercept += A[e]
    return slope, intercept


class SweepPiece(NamedTuple):
    """A sweep's basis on [lo, hi], with its basis_line: ints over the columns' d."""

    lo: object
    hi: object
    line: tuple[int, int]
    basis: frozenset[int]


class _Run:
    """One greedy run of the first-cell walk, shared by the sets that take it.

    The deletions before the position it starts at are fixed.  It holds
    chosen, the elements it and the runs it forked from took; marks, the
    positions of those it took itself; and states, the augment state
    after each of those, states[0] the one it started from, so that a
    run forked at any position it passed starts from a copy without a
    test.  at is the next position it would try, forks the runs started
    by deleting the element at a position, and basis its frozen chosen
    set once it holds k elements or has tried every position.
    """

    __slots__ = ("at", "chosen", "marks", "states", "state", "forks", "basis")

    def __init__(self, at: int, chosen: list[int], state):
        self.at, self.chosen, self.marks = at, chosen, []
        self.states, self.state = [state], state.copy()
        self.forks: dict[int, _Run] = {}
        self.basis = None

    def advance(self, matroid: Matroid, order: list[int], position: dict[int, int], stop: int, k: int) -> bool:
        """Run on to position stop, or until the run holds k elements; False once it holds them."""
        chosen = self.chosen
        if len(chosen) < k and self.at < stop:
            for e in matroid.grow(self.state, order[self.at : stop]):
                chosen.append(e)
                self.marks.append(position[e])
                if len(chosen) == k:  # a run holding k ends: nothing forks past its last element
                    self.at = position[e] + 1
                    break
                self.states.append(self.state.copy())  # the state after each take is saved
            else:
                self.at = stop
        return len(chosen) < k

    def fork(self, p: int) -> "_Run":
        """The run that deletes the element at p, a position this run reached: one per p."""
        run = self.forks.get(p)
        if run is None:
            i = bisect_left(self.marks, p)  # the elements it took before p
            run = self.forks[p] = _Run(p + 1, self.chosen[: len(self.chosen) - len(self.marks) + i], self.states[i])
        return run


def parametric_sweep(
    matroid: Matroid,
    cells: Sequence[tuple],
    k: int,
    deletion_sets: Iterable[tuple[int, ...]] = ((),),
) -> dict[tuple[int, ...], tuple[SweepPiece, ...] | None]:
    """The minimum-basis sweep of matroid.delete(F) for every F, in one walk over the cells.

    cells is a crossing_cells() arrangement of any superset of the
    matroid's available elements, k the rank the bases should reach,
    and deletion_sets distinct tuples of available elements; the
    default, one empty set, sweeps the matroid itself.  Each F maps to
    its sweep, one SweepPiece per basis, neighbours holding different
    bases, so the value is a minimum of basis lines, continuous, and
    fixed by its lines in order.  The sets of one part, below, share
    one sweep object.

    In the first cell each F gets its greedy basis along the probe
    order, stopped at k elements, from one walk that shares prefixes.
    The run of B0, the matroid's own greedy basis, comes first; each F
    in turn then follows it along the order, and at each element of F
    the run has taken it moves to the run forked there, the same for
    every set with the same deletions up to that point.  An element of
    F that the run passed over changes nothing, and a run that reaches
    k before F's next element gives F its basis.  A run tries each
    position once, resuming from a saved augment state, so no query is
    asked twice for the same deletions, and every query is one that F's
    own greedy would ask.  A basis short of k means F kills the rank at
    every lam; the walk, over cells[:1] too, returns {F: None} for the
    first such F.

    The later cells move bases, not sets: each distinct basis held maps
    to its parts (sets, steps), one per history, the sets that have held
    one basis at every crossing so far, and steps their (lam, basis)
    wherever that basis changed, a tuple that a split shares.
    Coincident crossings come as their chain of adjacent swaps, and
    every swap e -> f, lone or not, visits the bases held that contain e.
    A basis B gets the one independence test of exchange(), on the
    matroid itself, unless f is deleted from the matroid, in B, or
    deleted by every set of every part: B - e + f then holds no element
    that a set without f deletes, so the answer is the same for each.
    When B - e + f is independent, each part's sets that delete f keep
    B, and the others join the entry of B - e + f as a part of their
    own.  A part moved by several swaps at one lam gets one step there,
    never on the basis it left: a basis is greedy exactly while certain
    pairs keep their order, and each pair swaps once.  A set's basis is
    the greedy basis of its deleted view at every probe, so its pieces
    match a walk over that set alone, over its own cells, and the walk
    costs at most the oracle calls of those walks together plus the B0
    scan: a swap costs a basis one test where each set alone would pay one.
    """
    lo, _hi, probe, _crossings = cells[0]
    deleted = matroid.deleted
    order = [e for e in probe.order if e not in deleted]
    position = {e: p for p, e in enumerate(order)}
    b0 = _Run(0, [], matroid.scan())
    b0.advance(matroid, order, position, len(order), k)
    sweeps = {}  # every set in input order, given its part's sweep once the walk ends
    held: dict[frozenset[int], list[tuple[list, tuple]]] = {}  # per basis, its parts (sets, steps)
    for F in deletion_sets:
        run = b0
        for p in sorted(map(position.__getitem__, F)):
            if p >= run.at and not run.advance(matroid, order, position, p, k):
                break  # the run holds k elements before p
            if p < run.at and p not in run.marks:
                continue  # the run passed over p's element
            run = run.fork(p)
        if run.basis is None:
            run.advance(matroid, order, position, len(order), k)
            run.basis = frozenset(run.chosen)
        if len(run.basis) < k:
            return {F: None}
        held.setdefault(run.basis, [([], ((lo, run.basis),))])[0][0].append(F)
        sweeps[F] = None
    for lam, _hi, _probe, crossings in cells[1:]:
        for ev in crossings:
            e, f = ev.leaving, ev.entering
            if f in deleted:
                continue
            for basis in [b for b in held if e in b]:
                parts = held[basis]
                if f in basis or all(f in F for members, _steps in parts for F in members):
                    continue
                swapped = exchange(matroid, basis, ev)
                if swapped is basis:
                    continue
                held.setdefault(swapped, [])
                held[basis] = []
                for members, steps in parts:
                    stay = [F for F in members if f in F]
                    if stay:
                        held[basis].append((stay, steps))
                    if len(stay) < len(members):
                        if steps[-1][0] == lam:  # an earlier swap at lam moved it: one step per lam
                            steps = steps[:-1]
                        held[swapped].append(([F for F in members if f not in F], (*steps, (lam, swapped))))
                if not held[basis]:
                    del held[basis]

    hi = cells[-1][1]
    for members, steps in chain.from_iterable(held.values()):
        pieces = []
        for (start, basis), end in zip(steps, [*(lam for lam, _basis in steps[1:]), hi]):
            pieces.append(SweepPiece(start, end, basis_line(probe.columns, basis), basis))
        sweeps.update(dict.fromkeys(members, tuple(pieces)))
    return sweeps


@dataclass(frozen=True)
class MatroidInstance:
    """A parametric interdiction instance: matroid, weights, budget, interval."""

    matroid: Matroid
    weights: tuple[ParametricWeight, ...]
    ell: int
    interval: Interval

    def __post_init__(self):
        # a tuple of Fraction pairs, so the frozen instance holds no mutable
        # list and an int or float component meets rat's rules; a
        # ParametricWeight is itself an (a, b) pair
        weights = []
        for i, w in enumerate(self.weights):
            if not isinstance(w, (tuple, list)) or len(w) != 2:
                raise TypeError(f"weight {i} must be an (a, b) pair, got {w!r}")
            weights.append(pw(*w))
        object.__setattr__(self, "weights", tuple(weights))
        m = self.matroid.ground_size
        if len(self.weights) != m:
            raise ValueError(f"expected {m} weights, got {len(self.weights)}")
        if isinstance(self.ell, bool) or not isinstance(self.ell, int):
            raise TypeError(f"budget ell must be an int, got {self.ell!r}")
        n = len(self.matroid.available)
        if not 1 <= self.ell <= n:
            raise ValueError(f"budget ell={self.ell} outside 1..{n}, the number of available elements")
        object.__setattr__(self, "rank", self.matroid.with_fresh_counter().rank())

    @property
    def ground_size(self) -> int:
        return self.matroid.ground_size
