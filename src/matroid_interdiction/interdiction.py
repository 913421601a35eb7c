"""Three exact solvers for the parametric matroid interdiction problem.

All three compute the same object: the upper envelope y over all
deletions F of ell elements of the parametric min-basis value functions
y_F, each envelope segment labeled with its optimal deletion set and
interdicted basis.

* solve_brute sweeps every one of the C(m, ell) deleted matroids.
* solve_uset tracks layered bases whose union confines all relevant
  deletion sets, updating them with a few oracle calls per crossing and
  falling back to scratch recomputation when a crossing ripples.
* solve_tree regrows a candidate search tree of replacement chains in
  every cell between consecutive crossings.

Each solve builds one crossing arrangement, whose cells carry the probe
lam where every solver evaluates them.  uset and tree share one cell loop,
_solve_by_cells.  A generator cell_lines(mat, instance, cells) yields
per cell the (value line, SegmentLabel) entries of its candidate
deletion sets, or None on a rank kill; it is resumed only after the
previous cell's envelope is taken, so independence tests run in sweep
order, and it keeps its own state across cells (uset's layered bases
and tracked family) as locals.  brute stays on upper_envelope over
whole per-deletion sweeps, an independent reference for the shared loop.

A deletion that kills the matroid rank makes y identically +inf; the
reported witness is then always the lexicographically smallest killing
set, so the three solvers agree exactly.  That case and the rank-0 one
(y identically 0) share one flat-solution path.  Every enumeration of
ell-subsets (brute's deletions, the witness search, uset's tracked
family) is refused above the enumeration cap, and so is a candidate
tree with more candidates than the cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import attrgetter
from typing import NamedTuple, Sequence

from .envelope import (
    Changepoint,
    Line,
    PiecewiseLinearFunction,
    Piece,
    classify_changepoints,
    concatenate,
    envelope_of_lines,
    upper_envelope,
)
from .matroid import Matroid
from .parametric import (
    EqualityPoint,
    Interval,
    MatroidInstance,
    ParametricWeight,
    all_equality_points,
    basis_line,
    crossing_cells,
    exchange,
    greedy_min_basis,
    parametric_sweep,
    replacement_element,
)

DEFAULT_ENUM_CAP = 200_000
ENUM_CAP_ENV = "INTERDICTION_ENUM_CAP"


def enumeration_cap() -> int:
    """The brute-force subset cap; ValueError unless the variable is a non-negative integer."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if not raw:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise ValueError(f"{ENUM_CAP_ENV}={raw!r} is not a non-negative integer")
    return cap


class EnumerationCapExceeded(Exception):
    def __init__(self, subsets: int, cap: int):
        super().__init__(f"{subsets} deletion sets to enumerate exceed the enumeration cap {cap}")
        self.subsets = subsets
        self.cap = cap


def _check_cap(subsets: int) -> None:
    """Refuse to enumerate that many deletion sets above the cap."""
    cap = enumeration_cap()
    if subsets > cap:
        raise EnumerationCapExceeded(subsets, cap)


class SegmentLabel(NamedTuple):
    """Envelope label: the deletion set and its interdicted basis."""

    f_star: tuple[int, ...]
    basis: tuple[int, ...]


@dataclass(frozen=True)
class InterdictionSolution:
    envelope: PiecewiseLinearFunction
    changepoints: tuple[Changepoint, ...]
    algorithm: str
    oracle_calls: int

    @property
    def segments(self) -> tuple[Piece, ...]:
        return self.envelope.pieces

    def value_at(self, lam):
        return self.envelope.evaluate(lam)

    def f_star_at(self, lam) -> tuple[int, ...]:
        return self.envelope.piece_at(lam).label.f_star


def _tree_candidates(k: int, ell: int) -> int:
    """Candidates of one full-rank candidate tree, k * C(k + ell - 2, ell - 1); 0 at rank 0."""
    return k * comb(k + ell - 2, ell - 1) if k else 0


def changepoint_bound(m: int, k: int, l: int) -> int:
    """Worst-case changepoint count of y: C(m, 2) cells times the tree's candidates."""
    return comb(m, 2) * _tree_candidates(k, l)


def changepoint_bound_secondary(m: int, k: int, l: int) -> int:
    """Alternative worst-case bound via subsets of the layered-bases union."""
    return comb(m, 2) * comb(k * (l - 1), l - 1) * k


def _classify(env: PiecewiseLinearFunction) -> tuple[Changepoint, ...]:
    # breakpoint vs interdiction point hinges on the deletion set only;
    # the carried basis may swap inside one winner's reign
    return tuple(classify_changepoints(env, key=attrgetter("f_star")))


# ---------------------------------------------------------------------------
# layered bases


@dataclass(frozen=True)
class LayeredBases:
    """Disjoint greedy bases: layer i is optimal after deleting layers < i.

    Layers keep the requested depth; once the rank is exhausted the
    remaining layers are smaller or empty (the truncated regime).
    """

    layers: tuple[frozenset[int], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def union(self) -> frozenset[int]:
        out: set[int] = set()
        for layer in self.layers:
            out |= layer
        return frozenset(out)

    @property
    def truncated(self) -> bool:
        top = len(self.layers[0])
        return any(len(layer) < top for layer in self.layers)

    def layer_of(self, e: int) -> int | None:
        for i, layer in enumerate(self.layers):
            if e in layer:
                return i
        return None


def layered_bases(
    matroid: Matroid,
    weights: Sequence[ParametricWeight],
    lam: Fraction,
    depth: int,
) -> LayeredBases:
    if depth < 1:
        raise ValueError("layered bases need depth >= 1")
    layers: list[frozenset[int]] = []
    cur = matroid
    for _ in range(depth):
        if layers and not layers[-1]:
            layers.append(frozenset())  # rank exhausted, stays empty
            continue
        basis = greedy_min_basis(cur, weights, lam)
        layers.append(basis)
        cur = cur.delete(basis)
    return LayeredBases(tuple(layers))


def update_u(
    matroid: Matroid,
    weights: Sequence[ParametricWeight],
    lb: LayeredBases,
    event: EqualityPoint,
    next_probe: Fraction,
) -> LayeredBases:
    """Layered bases valid right of the event, from those valid left of it.

    A lone crossing is an adjacent transposition of the weight order, so
    each layer either keeps its basis or trades e for f, and exchange()
    at e's layer decides which with one independence test.  When the
    trade fires on the last layer the union simply absorbs f for e.
    When it fires higher up, every deeper layer is the greedy basis of a
    minor that just changed (f left it, e returned), and a single trade
    can ripple through them arbitrarily, so they are recomputed at
    next_probe.  In the truncated regime the whole structure is
    recomputed.
    """
    e, f = event.leaving, event.entering
    je = lb.layer_of(e)
    if je is None:  # an outside element got cheaper: nothing can change
        return lb
    jf = lb.layer_of(f)
    if jf is not None and jf <= je:  # f already preferred, or same layer
        return lb
    if lb.truncated:
        return layered_bases(matroid, weights, next_probe, lb.depth)
    layers = lb.layers
    swapped = exchange(matroid, layers[je], event)
    if swapped == layers[je]:
        return lb  # swap refused: e keeps its slot and nothing deeper moves
    prefix = [*layers[:je], swapped]
    if je == len(layers) - 1:
        return LayeredBases(tuple(prefix))
    deleted: set[int] = set()
    for layer in prefix:
        deleted |= layer
    suffix = layered_bases(
        matroid.delete(deleted), weights, next_probe, len(layers) - je - 1
    )
    return LayeredBases(tuple(prefix) + suffix.layers)


def update_interdicted_set(
    matroid: Matroid,
    F: frozenset[int],
    basis: frozenset[int],
    event: EqualityPoint,
    u1: frozenset[int],
    u2: frozenset[int],
) -> tuple[frozenset[int], frozenset[int]]:
    """Deletion set and interdicted basis right of the event.

    When the union update renamed e to f and e was deleted, the deletion
    set follows the rename; the basis swaps back e for f exactly when f
    was serving as e's replacement (f in basis).  With f absent the
    basis stays put: e only ever entered the picture through f, so a
    basis that never needed f cannot profit from e's return.  Without a
    rename the basis obeys the sweep's exchange(), unless f is deleted.
    """
    e, f = event.leaving, event.entering
    if u2 != u1 and e in F:
        new_f = F - {e} | {f}
        if f in basis:
            return new_f, basis - {f} | {e}
        return new_f, basis
    if f in F:
        return F, basis
    return F, exchange(matroid, basis, event)


# ---------------------------------------------------------------------------
# shared solver plumbing


def canonical_infinite_label(matroid: Matroid, k: int, ell: int) -> tuple[int, ...]:
    """Lexicographically smallest ell-subset whose deletion kills the rank."""
    _check_cap(comb(len(matroid.available), ell))
    for F in combinations(matroid.available, ell):
        if matroid.delete(F).rank(stop_at=k) < k:
            return F
    raise ValueError("no deletion of the given size kills the rank")


def _label(F, basis) -> SegmentLabel:
    return SegmentLabel(tuple(sorted(F)), tuple(sorted(basis)))


def _flat_solution(mat, instance, algorithm, killer=None) -> InterdictionSolution:
    """y without changepoints: 0 at rank 0, else +inf with killer as witness.

    Without a killing set from the caller the canonical one is searched for.
    """
    lo, hi = instance.interval.lo, instance.interval.hi
    if instance.rank == 0:
        # every basis is empty, so every deletion attains the same value 0
        line, F = Line(Fraction(0), Fraction(0)), mat.available[: instance.ell]
    else:
        line, F = None, killer or canonical_infinite_label(mat, instance.rank, instance.ell)
    env = PiecewiseLinearFunction(lo, hi, (Piece(lo, hi, line, _label(F, ())),))
    return InterdictionSolution(env, (), algorithm, mat.oracle_calls)


def _solve_by_cells(instance: MatroidInstance, algorithm: str, cell_lines) -> InterdictionSolution:
    """Envelope of cell_lines' candidates per crossing cell, concatenated."""
    mat = instance.matroid.with_fresh_counter()
    if instance.rank == 0:
        return _flat_solution(mat, instance, algorithm)
    weights, interval = instance.weights, instance.interval
    cells = crossing_cells(interval, all_equality_points(weights, interval, mat.available))
    cell_envs: list[PiecewiseLinearFunction] = []
    for (lo, hi, _probe, _crossings), entries in zip(cells, cell_lines(mat, instance, cells)):
        if entries is None:
            return _flat_solution(mat, instance, algorithm)
        cell_envs.append(envelope_of_lines(entries, lo, hi))
    env = concatenate(cell_envs)
    return InterdictionSolution(env, _classify(env), algorithm, mat.oracle_calls)


# ---------------------------------------------------------------------------
# algorithm 1: full enumeration


def solve_brute(instance: MatroidInstance) -> InterdictionSolution:
    """Sweep every deletion set of size ell over one arrangement; take the upper envelope."""
    _check_cap(comb(instance.ground_size, instance.ell))
    mat = instance.matroid.with_fresh_counter()
    k = instance.rank
    if k == 0:
        return _flat_solution(mat, instance, "brute")
    weights, interval = instance.weights, instance.interval
    cells = crossing_cells(interval, all_equality_points(weights, interval, mat.available))
    funcs = []
    for F in combinations(mat.available, instance.ell):
        sweep = parametric_sweep(mat.delete(F), weights, cells)
        if len(sweep.pieces[0].label) < k:
            # first killing set in enumeration order is the smallest one
            return _flat_solution(mat, instance, "brute", killer=F)
        pieces = tuple(Piece(p.lo, p.hi, p.line, _label(F, p.label)) for p in sweep.pieces)
        funcs.append(PiecewiseLinearFunction(interval.lo, interval.hi, pieces))
    env = upper_envelope(funcs)
    return InterdictionSolution(env, _classify(env), "brute", mat.oracle_calls)


# ---------------------------------------------------------------------------
# algorithm 2: tracked subsets of the layered-bases union


def solve_uset(instance: MatroidInstance) -> InterdictionSolution:
    """Track all deletion sets inside the layered-bases union across cells.

    Per lone crossing, the union and every tracked (F, basis) pair
    update in a few independence tests each; coincident crossings and
    crossings that reshape the union rebuild the tracked family from
    scratch.  Per cell the envelope of the tracked value lines is
    taken, and the cells concatenate to y.
    """
    return _solve_by_cells(instance, "uset", _uset_cells)


def _uset_cells(mat, instance, cells):
    weights, ell, k = instance.weights, instance.ell, instance.rank
    lb = tracked = None
    for _lo, _hi, probe, crossings in cells:
        # the one-test updates assume the crossing is a lone adjacent
        # transposition of the weight order; the first cell, coincident
        # crossings and a union update that is neither a rename nor a
        # no-op rebuild
        rebuild = len(crossings) != 1
        if not rebuild:
            (ev,) = crossings
            new_lb = update_u(mat, weights, lb, ev, probe)
            u1, u2 = lb.union, new_lb.union
            if u2 == u1 or u2 == u1 - {ev.leaving} | {ev.entering}:
                new_tracked = {}
                for F, (basis, line) in tracked.items():
                    F2, B2 = update_interdicted_set(mat, F, basis, ev, u1, u2)
                    new_tracked[F2] = (B2, line if B2 == basis else basis_line(weights, B2))
                tracked = new_tracked
                lb = new_lb
            else:
                rebuild = True
        if rebuild:
            lb = layered_bases(mat, weights, probe, ell)
            tracked = _track_family(mat, weights, probe, lb.union, ell, k)
            if tracked is None:
                yield None
                return
        yield [(line, _label(F, basis)) for F, (basis, line) in tracked.items()]


def _track_family(mat, weights, probe, union, ell, k):
    """Greedy bases for every ell-subset of the union; None on rank kill."""
    if len(union) < ell:
        return None  # everything outside the union is a loop; deleting the union kills
    _check_cap(comb(len(union), ell))
    tracked: dict[frozenset[int], tuple[frozenset[int], Line]] = {}
    for F in combinations(sorted(union), ell):
        basis = greedy_min_basis(mat.delete(F), weights, probe)
        if len(basis) < k:
            return None
        tracked[frozenset(F)] = (basis, basis_line(weights, basis))
    return tracked


# ---------------------------------------------------------------------------
# algorithm 3: candidate search tree per cell


def candidate_tree(
    matroid: Matroid,
    weights: Sequence[ParametricWeight],
    lam: Fraction,
    ell: int,
) -> list[tuple[frozenset[int], Line | None, frozenset[int]]]:
    """All relevant deletion candidates at lam, with multiplicity.

    Returns (F, value line, interdicted basis) triples; a missing
    replacement yields a +inf candidate (line None).  Every level grows
    children by _tree_child; the last one expands all k basis elements
    of each of the C(k + ell - 2, ell - 1) nodes, forbidden ones too, so
    a full-rank instance gives exactly _tree_candidates(k, ell).
    """
    root = layered_bases(matroid, weights, lam, ell + 1)
    k = len(root.layers[0])
    out: list[tuple[frozenset[int], Line | None, frozenset[int]]] = []
    if k == 0:
        return out
    nodes: list[tuple[frozenset[int], frozenset[int], tuple[frozenset[int], ...]]] = [
        (frozenset(), frozenset(), root.layers)
    ]
    for level in range(ell):
        leaf = level == ell - 1
        nxt = []
        for F, forbidden, layers in nodes:
            taken: set[int] = set(forbidden)
            for e in sorted(layers[0] if leaf else layers[0] - forbidden):
                child_f = F | {e}
                child = _tree_child(matroid, weights, lam, child_f, layers, e)
                if child is None:
                    out.append((child_f, None, frozenset()))
                elif leaf:
                    out.append((child_f, basis_line(weights, child[0]), child[0]))
                else:
                    nxt.append((child_f, frozenset(taken), child))
                taken.add(e)
        nodes = nxt
    return out


def _tree_child(matroid, weights, lam, child_f, layers, e):
    """Layers of the child reached by deleting e, repaired by chains.

    child_f is the child's deletion set, e included.  Each repaired
    layer loses its replaced element to the layer above and steals the
    next replacement from below; a replacement found outside the
    maintained layers ends the chain early.  When the next layer is as
    large as the repaired one it must contain the replacement
    (replacement elements fall through exactly one layer), so the search
    is restricted to it; otherwise it covers every element below the
    repaired layers.  Returns None when e has no replacement at all
    (child_f kills the rank).
    """
    child_depth = len(layers) - 1
    child_layers = list(layers[:child_depth])
    p, x = 0, e
    while p < child_depth:
        layer, nxt = layers[p], layers[p + 1]
        if len(nxt) == len(layer):  # x is in layer, so nxt is not empty
            pool = nxt
        else:
            pool = set(matroid.available) - child_f - layer
            for q in range(p):
                pool -= child_layers[q]
        r = replacement_element(matroid, weights, layer, x, lam, among=pool)
        if r is None:
            if p == 0:
                return None
            child_layers[p] = layers[p] - {x}
            break
        child_layers[p] = layers[p] - {x} | {r}
        for t in range(p + 1, child_depth):  # r's home layer, if one is maintained
            if r in layers[t]:
                p, x = t, r
                break
        else:
            break
    return tuple(child_layers)


def solve_tree(instance: MatroidInstance) -> InterdictionSolution:
    """Per cell, grow the candidate tree (refused above the cap) and take the envelope of its lines."""
    _check_cap(_tree_candidates(instance.rank, instance.ell))
    return _solve_by_cells(instance, "tree", _tree_cells)


def _tree_cells(mat, instance, cells):
    for _lo, _hi, probe, _crossings in cells:
        candidates = candidate_tree(mat, instance.weights, probe, instance.ell)
        if any(line is None for _F, line, _b in candidates):
            yield None
            return
        unique: dict[frozenset[int], tuple[Line, frozenset[int]]] = {}
        for F, line, basis in candidates:
            unique.setdefault(F, (line, basis))
        yield [(line, _label(F, basis)) for F, (line, basis) in unique.items()]


ALGORITHMS = {
    "brute": solve_brute,
    "uset": solve_uset,
    "tree": solve_tree,
}


def solve(instance: MatroidInstance, algorithm: str = "brute") -> InterdictionSolution:
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {sorted(ALGORITHMS)}")
    return fn(instance)
