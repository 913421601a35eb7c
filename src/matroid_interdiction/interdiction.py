"""Three exact solvers for the parametric matroid interdiction problem.

All three compute the same object: the upper envelope y over all
deletions F of ell elements of the parametric min-basis value functions
y_F, each envelope segment labeled with its optimal deletion set and
interdicted basis.

* solve_brute sweeps all C(m, ell) deleted matroids in one walk over
  the arrangement, parametric_sweep.  In the first cell the sets share
  their greedy runs, stopped at the rank: a set follows the full
  matroid's run and forks at each element of its own that the run
  took or has not tried yet; a run that later refuses such an element
  takes over the fork made there.  So no query is asked twice, and
  the walk's cost does not depend on the order of the sets.  Later the
  walk keeps one entry per distinct basis, with the sets holding it:
  each crossing visits the bases that hold its leaving element and
  costs each at most one independence test, however many sets hold
  it.  The sets of one part, those with one history of bases, share
  one sweep, which the part's first set, its smallest, labels.  One
  integer filter, _undominated, keeps the parts' sweeps undominated on
  some interval of their joint grid, and only those enter the envelope.
* solve_uset tracks layered bases whose union confines all relevant
  deletion sets, updating them with a few oracle calls per lone
  crossing (one exchange test per distinct tracked basis).  A lone
  crossing that reshapes the union carries the family too and grows
  only the sets new to it; only the first cell and coincident crossings
  rebuild from scratch.
* solve_tree regrows a candidate search tree of replacement chains in
  every cell between consecutive crossings; each distinct layer it
  searches gets one exchange state, shared by every replacement search
  on that layer and carried from cell to cell while consecutive cells
  search it, in one dict that each cell's tree clears and refills, so
  only the last cell's states are held.  Each cell lists the elements
  of each pool layer in probe order once.

Each solve builds one crossing arrangement, whose cells carry the probe
where every solver evaluates them: its lam and the weight order there,
sorted at most once per solve.  uset and tree differ only in the
deletion sets they consider per cell, and share one cell loop,
_solve_by_cells.  A generator cell_bases(mat, instance, cells) yields
per cell a dict {F: interdicted basis} of its candidate deletion sets,
or None on a rank kill; it is resumed cell by cell, so independence
tests run in sweep order, and it keeps its own state across cells
(uset's layered bases and tracked family) as locals.  Consecutive cells
with equal dicts form a run, and the loop takes one envelope per run,
over the run's whole span.  The cell loop is the one place where a pair
becomes an envelope entry, (basis_line, SegmentLabel), made when a run
starts and reusing the previous run's entry for the same pair.  brute
stays on upper_envelope over whole per-deletion sweeps, an independent
reference for the shared loop: it uses no layered bases, no replacement
search and no envelope_of_lines, and its dominance filter, _undominated,
compares int lines of its own.

A deletion that kills the matroid rank makes y identically +inf, and
one search finds the witness for all three solvers: brute's walk over
the first cell, which stops at the lexicographically smallest killing
set.  That case and the rank-0 one (y identically 0) share one
flat-solution path.  Every enumeration of ell-subsets (that walk's
sets, uset's tracked family) is refused above the enumeration cap, and
so is a candidate tree with more candidates than the cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from math import comb
from operator import attrgetter, itemgetter
from typing import NamedTuple

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
    MatroidInstance,
    Probe,
    all_equality_points,
    basis_line,
    crossing_cells,
    exchange,
    greedy_min_basis,
    parametric_sweep,
    replacement_element,
    weight_columns,
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
    def union(self) -> frozenset[int]:
        out: set[int] = set()
        for layer in self.layers:
            out |= layer
        return frozenset(out)

    def layer_of(self, e: int) -> int | None:
        for i, layer in enumerate(self.layers):
            if e in layer:
                return i
        return None


def layered_bases(matroid: Matroid, probe: Probe, *, depth: int) -> LayeredBases:
    """depth greedy layers at the probe, each of the matroid minus the layers above it; none at depth 0."""
    layers: list[frozenset[int]] = []
    cur = matroid
    for _ in range(depth):
        if layers and not layers[-1]:
            layers.append(frozenset())  # rank exhausted, stays empty
            continue
        basis = greedy_min_basis(cur, probe)
        layers.append(basis)
        cur = cur.delete(basis)
    return LayeredBases(tuple(layers))


def update_u(
    matroid: Matroid,
    lb: LayeredBases,
    event: EqualityPoint,
    next_probe: Probe,
    swaps: dict,
) -> LayeredBases:
    """Layered bases valid right of the event, from those valid left of it.

    A lone crossing is an adjacent transposition of the weight order, so
    each layer either keeps its basis or trades e for f, and exchange()
    at e's layer decides which with one independence test.  When the
    trade fires, every deeper layer is the greedy basis of a minor that
    just changed (f left it, e returned), and a single trade can ripple
    through them arbitrarily, so they are recomputed at next_probe: none
    when e's layer is the last.  Layers above e's keep their minors and
    contain neither e nor f, so they stand, however small the layers
    below them are.
    swaps receives that test's answer, keyed by e's layer, as
    update_interdicted_set's swaps at the event keep them.
    """
    e, f = event.leaving, event.entering
    je = lb.layer_of(e)
    if je is None:  # an outside element got cheaper: nothing can change
        return lb
    jf = lb.layer_of(f)
    if jf is not None and jf <= je:  # f already preferred, or same layer
        return lb
    layers = lb.layers
    swapped = swaps[layers[je]] = exchange(matroid, layers[je], event)
    if swapped == layers[je]:
        return lb  # swap refused: e keeps its slot and nothing deeper moves
    prefix = [*layers[:je], swapped]
    deleted: set[int] = set()
    for layer in prefix:
        deleted |= layer
    suffix = layered_bases(matroid.delete(deleted), next_probe, depth=len(layers) - je - 1)
    return LayeredBases(tuple(prefix) + suffix.layers)


def update_interdicted_set(
    matroid: Matroid,
    F: frozenset[int],
    basis: frozenset[int],
    event: EqualityPoint,
    renamed: bool,
    swaps: dict,
) -> tuple[frozenset[int], frozenset[int]]:
    """Deletion set and interdicted basis right of the event.

    renamed says whether the crossing renamed e to f in the layered-bases
    union, decided once per crossing by the caller.  When it did and e
    was deleted, the deletion set follows the rename; the basis swaps
    back e for f exactly when f was serving as e's replacement (f in
    basis).  With f absent the basis stays put: e only ever entered the
    picture through f, so a basis that never needed f cannot profit
    from e's return.  Without a rename the basis obeys the sweep's
    exchange(), unless f is deleted.  swaps holds exchange()'s answers
    at this event by basis, filled as they are asked: a caller passes one
    dict to every set it updates at the event, so each distinct basis
    costs one test.
    """
    e, f = event.leaving, event.entering
    if renamed and e in F:
        new_f = F - {e} | {f}
        if f in basis:
            return new_f, basis - {f} | {e}
        return new_f, basis
    if f in F:
        return F, basis
    if basis not in swaps:
        swaps[basis] = exchange(matroid, basis, event)
    return F, swaps[basis]


# ---------------------------------------------------------------------------
# shared solver plumbing


def _deletion_sets(mat: Matroid, ell: int):
    """Every ell-subset of the available elements, in combinations order; refused above the cap."""
    _check_cap(comb(len(mat.available), ell))
    return combinations(mat.available, ell)


def _label(F, basis) -> SegmentLabel:
    return SegmentLabel(tuple(sorted(F)), tuple(sorted(basis)))


def _flat_solution(mat, instance, algorithm, killer=None) -> InterdictionSolution:
    """y without changepoints: 0 at rank 0, else +inf with the caller's killing set as witness."""
    lo, hi = instance.interval.lo, instance.interval.hi
    if instance.rank == 0:
        # every basis is empty, so every deletion attains the same value 0
        line, F = Line(Fraction(0), Fraction(0)), mat.available[: instance.ell]
    else:
        line, F = None, killer
    env = PiecewiseLinearFunction(lo, hi, (Piece(lo, hi, line, _label(F, ())),))
    return InterdictionSolution(env, (), algorithm, mat.oracle_calls)


def _arrangement(mat, instance) -> list[tuple]:
    """The solve's crossing cells over the available elements, one set of weight columns."""
    interval, columns = instance.interval, weight_columns(mat, instance.weights)
    return crossing_cells(interval, all_equality_points(columns, interval, mat.available), columns)


def _solve_by_cells(instance: MatroidInstance, algorithm: str, cell_bases) -> InterdictionSolution:
    """Envelope of cell_bases' deletion sets per run of equal maps, concatenated.

    cell_bases(mat, instance, cells) yields per cell a dict {F: basis} of
    candidate deletion sets and their interdicted bases, or None on a
    rank kill, whose witness brute's first-cell walk finds.  Consecutive
    cells with equal maps form one run, and each run takes one envelope
    over its whole span: the envelope's tie rule (equal lines keep the
    smallest label) does not depend on the span, and concatenate merges
    equal neighbouring pieces, so the segments are those of one envelope
    per cell.  This loop alone turns a pair into an envelope entry
    (basis_line, SegmentLabel), an int pair over the solve's one
    denominator, when a run starts; an entry the previous run made for
    the same (F, basis) is reused, and older ones are dropped.
    """
    mat = instance.matroid.with_fresh_counter()
    if instance.rank == 0:
        return _flat_solution(mat, instance, algorithm)
    cells = _arrangement(mat, instance)
    columns = cells[0][2].columns
    run_envs: list[PiecewiseLinearFunction] = []
    made: dict = {}  # the open run's entries, keyed by (F, basis)
    for bases, run in groupby(zip(cells, cell_bases(mat, instance, cells)), key=itemgetter(1)):
        if bases is None:
            (killer,) = parametric_sweep(mat, cells[:1], instance.rank, _deletion_sets(mat, instance.ell))
            return _flat_solution(mat, instance, algorithm, killer)
        made = {fb: made.get(fb) or (basis_line(columns, fb[1]), _label(*fb)) for fb in bases.items()}
        span = [cell for cell, _bases in run]
        run_envs.append(envelope_of_lines(list(made.values()), columns[0], span[0][0], span[-1][1]))
    env = concatenate(run_envs)
    return InterdictionSolution(env, _classify(env), algorithm, mat.oracle_calls)


# ---------------------------------------------------------------------------
# algorithm 1: full enumeration


def solve_brute(instance: MatroidInstance) -> InterdictionSolution:
    """Sweep every deletion set of size ell in one walk over the arrangement; take the upper envelope.

    The walk, parametric_sweep, stops its greedy scans at the rank and
    ends at the first set in enumeration order, the smallest, that kills
    it.  The sets of one part share one sweep object, and the part's
    first set in enumeration order, its smallest, stands for it: ties go
    to the smallest label, and a label compares its deletion set first,
    so the later ones never label a point.  _undominated alone filters
    the parts' sweeps, comparing ints: it keeps the ones no other sweep
    dominates on some interval of their joint grid, and so the winner of
    every point (see there).  A sweep equal everywhere to an earlier one
    ties with it at every grid point and is kept only where the earlier
    one is.  Only the kept sweeps become Fraction functions and enter
    upper_envelope, which returns what it would over all C(m, ell)
    sweeps.  No oracle call is made after the walk.
    """
    mat = instance.matroid.with_fresh_counter()
    k = instance.rank
    if k == 0:
        return _flat_solution(mat, instance, "brute")
    sets = _deletion_sets(mat, instance.ell)  # refused before the arrangement is built
    cells = _arrangement(mat, instance)
    d = cells[0][2].columns[0]
    parts: dict[int, tuple] = {}  # per sweep object, its part's first (F, sweep), in enumeration order
    for F, sweep in parametric_sweep(mat, cells, k, sets).items():
        if sweep is None:
            return _flat_solution(mat, instance, "brute", killer=F)
        parts.setdefault(id(sweep), (F, sweep))
    firsts = list(parts.values())
    funcs = []
    for t in _undominated([sweep for _F, sweep in firsts]):
        F, sweep = firsts[t]
        pieces = tuple(Piece(p.lo, p.hi, Line.from_ints(d, *p.line), _label(F, p.basis)) for p in sweep)
        funcs.append(PiecewiseLinearFunction(sweep[0].lo, sweep[-1].hi, pieces))
    env = upper_envelope(funcs)
    return InterdictionSolution(env, _classify(env), "brute", mat.oracle_calls)


def _undominated(sweeps) -> list[int]:
    """Positions of the sweeps that no other sweep dominates on some grid interval, ascending.

    The grid is the sweeps' piece boundaries with the interval's ends;
    inside one grid interval [x, x'] every sweep is one int line (s, i)
    over d.  At each grid point a sweep's value is s * p + i * q at
    lam = p / q (d * q times its value), (-s, i) at -inf and (s, i) at
    +inf, whose order is the order of the lines' values near that end.
    g dominates t != g on [x, x'] when g >= t at both ends and either
    g > t at one end or g comes first in the list.  The candidates g are
    two: the sweep largest at x (ties to the larger at x', then the
    first), and the one largest at x' (ties to the larger at x, then the
    first).  A sweep undominated by both on some interval is kept; a
    point domain is the one interval [x, x].

    Why it is exact: two lines with g >= t at both ends of an interval
    have g >= t all over it, and g > t inside it when g > t at one end.
    So at a point inside an interval, a dominated t is below g, or ties
    with g and comes later.  The sweeps come in enumeration order, whose
    first is the smallest deletion set, and a tie goes to the smallest
    label, which compares its deletion set first: t then never labels
    that point.  The winner (largest value, then smallest label) of
    every point inside a grid interval is therefore kept, the grid
    points are finitely many, and upper_envelope over the kept sweeps
    returns the labelled function it returns over all of them.

    With a the values at x and b those at x', g1 the first candidate
    and g2 the second, the rule comes down to this, since g1 is largest
    at x and g2 at x': t is kept on [x, x'] when it is g1 or g2, or when
    a[t] > a[g2] and b[t] > b[g1].  No oracle call is made.
    """
    hi = sweeps[0][-1].hi
    # boundaries keyed by object, equal ones meeting in one grid point: the
    # sweeps share the arrangement's lam objects, so a Fraction is hashed
    # once per lam, not once per piece
    starts = {id(p.lo): p.lo for sweep in sweeps for p in sweep}
    grid = sorted(set(starts.values()) | {hi})
    at = {x: j for j, x in enumerate(grid)}
    index = {key: at[x] for key, x in starts.items()}
    rows = []  # per sweep, its line at every grid point
    for sweep in sweeps:
        row: list[tuple[int, int]] = []
        for p, nxt in zip(sweep, sweep[1:]):
            row += [p.line] * (index[id(nxt.lo)] - len(row))
        row += [sweep[-1].line] * (len(grid) - len(row))
        rows.append(row)
    values = []  # per grid point, every sweep's value there
    for x, lines in zip(grid, zip(*rows)):
        if isinstance(x, Fraction):
            p, q = x.numerator, x.denominator
            values.append([s * p + i * q for s, i in lines])
        elif x < 0:
            values.append([(-s, i) for s, i in lines])
        else:
            values.append(list(lines))
    kept: set[int] = set()
    for a, b in list(zip(values, values[1:])) or [(values[0], values[0])]:
        g1, g2 = _largest(a, b), _largest(b, a)
        kept |= {g1, g2}
        if g1 != g2:
            y, z = a[g2], b[g1]
            kept.update(t for t, (u, v) in enumerate(zip(a, b)) if u > y and v > z)
    return sorted(kept)


def _largest(a: list, b: list) -> int:
    """The position largest in a, ties to the larger in b, then the first."""
    top = max(a)
    if a.count(top) == 1:
        return a.index(top)
    return max((t for t, v in enumerate(a) if v == top), key=b.__getitem__)


# ---------------------------------------------------------------------------
# algorithm 2: tracked subsets of the layered-bases union


def solve_uset(instance: MatroidInstance) -> InterdictionSolution:
    """Track all deletion sets inside the layered-bases union across cells.

    Per lone crossing, the union and every tracked (F, basis) pair
    update in a few independence tests each.  A lone crossing is an
    adjacent transposition of the weight order, so exchange() gives
    every fixed deletion set its exact next basis: when the crossing
    renames e to f in the union the sets follow the rename, and when it
    reshapes the union the sets left inside keep their bases and the
    sets new to it get a greedy basis each.  Only the first cell and
    coincident crossings rebuild the layers and the tracked family from
    scratch.  Per cell the tracked family, F -> basis, goes to the
    shared cell loop, which takes the envelope of its value lines.
    """
    return _solve_by_cells(instance, "uset", _uset_cells)


def _uset_cells(mat, instance, cells):
    ell, k = instance.ell, instance.rank
    lb = tracked = None
    for _lo, _hi, probe, crossings in cells:
        if len(crossings) == 1:
            # a lone crossing is an adjacent transposition of the weight
            # order, so the layers and every tracked set update in place:
            # one exchange test per distinct basis, e's layer and the
            # tracked bases together
            (ev,) = crossings
            swaps: dict = {}
            new_lb = update_u(mat, lb, ev, probe, swaps)
            u1, u2 = lb.union, new_lb.union
            renamed = u2 != u1 and u2 == u1 - {ev.leaving} | {ev.entering}
            tracked = dict(update_interdicted_set(mat, F, B, ev, renamed, swaps) for F, B in tracked.items())
            lb = new_lb
            if u2 != u1 and not renamed:  # a reshape: keep the sets left inside, grow the new ones
                tracked = _track_family(mat, probe, u2, ell, k, tracked)
        else:  # the first cell and coincident crossings start from scratch
            lb = layered_bases(mat, probe, depth=ell)
            tracked = _track_family(mat, probe, lb.union, ell, k, {})
        if tracked is None:
            yield None
            return
        yield tracked


def _track_family(mat, probe, union, ell, k, known):
    """Bases for every ell-subset of the union, known's where it holds one, else greedy; None on rank kill."""
    if len(union) < ell:
        return None  # everything outside the union is a loop; deleting the union kills
    _check_cap(comb(len(union), ell))
    tracked: dict[frozenset[int], frozenset[int]] = {}
    for F in map(frozenset, combinations(sorted(union), ell)):
        basis = known.get(F)
        if basis is None:
            basis = greedy_min_basis(mat.delete(F), probe)
            if len(basis) < k:
                return None
        tracked[F] = basis
    return tracked


# ---------------------------------------------------------------------------
# algorithm 3: candidate search tree per cell


def candidate_tree(
    matroid: Matroid,
    probe: Probe,
    ell: int,
    states: dict,
) -> list[tuple[frozenset[int], frozenset[int] | None]]:
    """All relevant deletion candidates at the probe, with multiplicity.

    Returns (F, interdicted basis) pairs; a missing replacement yields a
    rank-killing candidate (basis None).  Every level grows each node's
    children by replacement chains; the last one expands all k basis
    elements of each of the C(k + ell - 2, ell - 1) nodes, forbidden
    ones too, so a full-rank instance gives exactly
    _tree_candidates(k, ell).

    The child reached by deleting e repairs its layers by a chain: each
    repaired layer loses its replaced element to the layer above and
    steals the next replacement from below; a replacement found outside
    the maintained layers ends the chain early.  When the next layer is
    as large as the repaired one it must contain the replacement
    (replacement elements fall through exactly one layer), so the
    search is restricted to it, each such pool put in probe order once
    per tree; otherwise it covers every available element outside the
    child's deletion set and the repaired layers.  The layers are
    disjoint, so either pool lies outside the searched layer.  When e
    itself has no replacement at all, the child's deletion set kills
    the rank.

    states maps a layer to its exchange state.  It arrives holding the
    previous cell's and is cleared at entry; on return it holds exactly
    the layers this tree searched, each state taken over from the
    previous cell when it held one, else built.  A state depends on its
    layer alone and is built uncounted, so the output and the oracle
    calls do not depend on what states held: a caller growing one tree
    per cell passes the same dict to each and keeps no other.
    """
    last = states.copy()
    states.clear()
    root = layered_bases(matroid, probe, depth=ell + 1)
    order, deleted = probe.order, matroid.deleted
    position = dict(zip(order, range(len(order))))
    pools: dict = {}  # per pool layer, its elements in probe order

    def repaired(child_f, layers, e):
        """The layers of the child with deletion set child_f, e included; None if it kills the rank."""
        child_depth = len(layers) - 1
        child_layers = list(layers[:child_depth])
        p, x = 0, e
        while p < child_depth:
            layer, nxt = layers[p], layers[p + 1]
            if len(nxt) == len(layer):  # x is in layer, so nxt is not empty
                candidates = pools.get(nxt)
                if candidates is None:
                    candidates = pools[nxt] = sorted(nxt, key=position.__getitem__)
            else:
                excluded = deleted.union(child_f, layer, *child_layers[:p])
                candidates = [r for r in order if r not in excluded]
            state = states.get(layer)
            if state is None:
                state = last.get(layer)
                states[layer] = state = matroid.exchanges(layer) if state is None else state
            r = replacement_element(matroid, x, candidates, state)
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

    out: list[tuple[frozenset[int], frozenset[int] | None]] = []
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
                child = repaired(child_f, layers, e)
                if child is None:
                    out.append((child_f, None))
                elif leaf:
                    out.append((child_f, child[0]))
                else:
                    nxt.append((child_f, frozenset(taken), child))
                taken.add(e)
        nodes = nxt
    return out


def solve_tree(instance: MatroidInstance) -> InterdictionSolution:
    """Per cell, grow the candidate tree (refused above the cap); its deletion sets go to the cell loop."""
    _check_cap(_tree_candidates(instance.rank, instance.ell))
    return _solve_by_cells(instance, "tree", _tree_cells)


def _tree_cells(mat, instance, cells):
    states: dict = {}  # the exchange states of the last cell's tree, by layer
    for _lo, _hi, probe, _crossings in cells:
        bases: dict[frozenset[int], frozenset[int]] = {}
        for F, basis in candidate_tree(mat, probe, instance.ell, states):
            if basis is None:
                yield None
                return
            bases.setdefault(F, basis)
        yield bases


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
