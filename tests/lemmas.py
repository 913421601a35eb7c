"""Functions of the paper that no solver calls, kept for the tests of its lemmas,
and the Fraction references of the solvers' integer kernel.

probe_at builds the Probe of a single lam, outside any arrangement.
replacement is one replacement_element search with the arguments the
candidate tree passes filled in: the candidates, the elements of a pool
(by default every available element) outside the basis in probe order,
and a fresh exchange state.

interdicted_basis_via_replacement is the paper's replacement lemma, the
optimal basis avoiding F built by iterated delete-and-replace;
most_vital_element is interdiction with ell = 1 at a single lam, found
by replacement searches; changepoint_bound_secondary is a second
changepoint bound, via subsets of the layered-bases union, that the
tests check solutions against next to interdiction.changepoint_bound.

equality_point is the crossing of two weight lines computed in
Fractions, the reference for all_equality_points on integer columns.
insertion_swaps is the chain of adjacent swaps of a group of crossings
sharing a lam, made by insertion-sorting the group's elements, the
reference for the order crossing_cells gives each group by one sort.
value_line turns basis_line's int pair back into a Fraction Line, and
int_lines writes Fraction lines as the int pairs over one denominator
that envelope_of_lines takes.
"""

from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Sequence

from matroid_interdiction.envelope import POS_INF, Line
from matroid_interdiction.matroid import Matroid
from matroid_interdiction.parametric import (
    EqualityPoint,
    ParametricWeight,
    Probe,
    basis_line,
    replacement_element,
    weight_at,
    weight_columns,
)


def probe_at(matroid: Matroid, weights: Sequence[ParametricWeight], lam: Fraction) -> Probe:
    """The probe of one lam, outside any arrangement."""
    return Probe(lam, weight_columns(matroid, weights))


def replacement(matroid: Matroid, probe: Probe, basis: frozenset[int], e: int, among=None) -> int | None:
    """replacement_element over among, by default every available element, on a fresh exchange state.

    The candidates are among's elements outside the basis, in probe order.
    """
    pool = matroid.available if among is None else among
    candidates = [r for r in probe.order if r in pool and r not in basis]
    return replacement_element(matroid, basis, e, candidates, matroid.exchanges(basis))


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
    probe = probe_at(matroid, weights, lam)
    cur_m = matroid
    cur_b = frozenset(basis)
    for e in order:
        if e in cur_b:
            r = replacement(cur_m, probe, cur_b, e)
            if r is None:
                return None
            cur_b = cur_b - {e} | {r}
        cur_m = cur_m.delete({e})
    return cur_b


def changepoint_bound_secondary(m: int, k: int, l: int) -> int:
    """Alternative worst-case bound via subsets of the layered-bases union."""
    return comb(m, 2) * comb(k * (l - 1), l - 1) * k


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
    probe = probe_at(matroid, weights, lam)
    exchanges = matroid.exchanges(basis)
    candidates = [r for r in probe.order if r not in matroid.deleted and r not in basis]
    best_e = None
    best_delta = None
    for e in sorted(basis):
        r = replacement_element(matroid, basis, e, candidates, exchanges)
        delta = POS_INF if r is None else weight_at(weights[r], lam) - weight_at(weights[e], lam)
        if best_delta is None or delta > best_delta:
            best_e, best_delta = e, delta
    if best_e is None:
        raise ValueError("most vital element of an empty basis")
    return best_e


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


def insertion_swaps(lam: Fraction, group, columns: tuple) -> tuple[EqualityPoint, ...]:
    """The group of crossings at lam as a chain of adjacent swaps.

    Its elements are insertion-sorted from the order just left of lam,
    (value at lam, -slope, id), to the one right of it, (value, slope, id),
    and each swap is recorded as the event of the two elements it swaps.
    """
    _d, A, B = columns
    p, q = lam.numerator, lam.denominator
    right = {e: (A[e] * q + B[e] * p, B[e], e) for ev in group for e in ev[1:]}
    order = sorted(right, key=lambda e: (right[e][0], -B[e], e))
    swaps = []
    for i, f in enumerate(order):
        while i and right[order[i - 1]] > right[f]:
            swaps.append(EqualityPoint(lam, order[i - 1], f))
            order[i] = order[i - 1]
            i -= 1
        order[i] = f
    return tuple(swaps)


def value_line(columns: tuple, basis) -> Line:
    """The basis's value line in Fractions."""
    return Line.from_ints(columns[0], *basis_line(columns, basis))


def int_lines(entries) -> tuple[list, int]:
    """(entries, d) for envelope_of_lines: each (Line, label) as (int pair, label),
    the line times d, the lcm of every denominator."""
    d = lcm(*(x.denominator for line, _label in entries for x in line))
    return [((int(line.slope * d), int(line.intercept * d)), label) for line, label in entries], d
