"""Brute-force ground truth for single parameter values.

Deliberately reimplements the greedy optimum from nothing but the
independence oracle and the weight evaluation, so a bug in the sweep or
envelope machinery cannot cancel out of both sides of a comparison.

The arithmetic is the oracle's own as well.  At each sample lam every
weight is evaluated once, in Fractions, and scaled by the lcm d of
their denominators to an int; the greedy order and every basis sum run
on those ints, and only the returned optimum becomes a Fraction again.
The solvers' integer kernel takes another road (one set of weight
columns per solve, cross-multiplied by lam = p/q), so a bug in one
cannot cancel out in the other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .envelope import NEG_INF, POS_INF, interior_point
from .interdiction import _check_cap
from .matroid import Matroid
from .parametric import MatroidInstance, weight_at

_GRID = 10**6


def _greedy(matroid: Matroid, order, skip: frozenset[int]):
    """Min-weight maximal independent set along a fixed element order."""
    chosen: set[int] = set()
    for e in order:
        if e in skip:
            continue
        chosen.add(e)
        if not matroid.is_independent(chosen):
            chosen.discard(e)
    return frozenset(chosen)


def _scaled_weights(instance: MatroidInstance, lam: Fraction, elements):
    """The weights at lam as ints over one denominator: (n, d, order).

    Each weight is n[e] / d, and order sorts the elements by (n[e], e),
    the Fraction order with ties broken by the smaller id.
    """
    values = {e: weight_at(instance.weights[e], lam) for e in elements}
    d = lcm(*(v.denominator for v in values.values()))
    n = {e: v.numerator * (d // v.denominator) for e, v in values.items()}
    return n, d, sorted(elements, key=lambda e: (n[e], e))


def oracle_value(instance: MatroidInstance, lam: Fraction):
    """Exact optimum at one parameter value by full enumeration.

    Returns (value, deletion set, interdicted basis); the value is +inf
    exactly when some deletion of the budget size kills the rank, and
    the reported deletion set is then the lexicographically first one.
    The weights are evaluated once, as ints over one denominator (see
    the module docstring), so the C(m, ell) basis sums and their
    comparisons are int operations.
    """
    mat = instance.matroid.with_fresh_counter()
    k = instance.rank
    n, d, order = _scaled_weights(instance, lam, mat.available)
    best = None
    for F in combinations(mat.available, instance.ell):
        basis = _greedy(mat, order, frozenset(F))
        if len(basis) < k:
            return POS_INF, F, basis
        value = sum(n[e] for e in basis)
        if best is None or value > best[0]:
            best = (value, F, basis)
    value, F, basis = best
    return Fraction(value, d), F, basis


def check_verification_cap(instance: MatroidInstance, extra_samples: int) -> None:
    """Raise EnumerationCapExceeded unless verification fits the cap.

    Every sample enumerates all C(m, ell) deletion sets, so both
    C(m, ell) and extra_samples * C(m, ell) must stay within it.
    """
    subsets = comb(len(instance.matroid.available), instance.ell)
    _check_cap(subsets)
    _check_cap(extra_samples * subsets)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    samples_checked: int
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _sample_points(instance: MatroidInstance, solution, extra: int, seed: int):
    lo, hi = instance.interval.lo, instance.interval.hi
    anchors: list = [lo, hi]
    boundary: set = set()
    for piece in solution.envelope.pieces[:-1]:
        boundary.add(piece.hi)
    anchors[1:1] = sorted(boundary)

    samples: set[Fraction] = set()
    for point in anchors:
        if point != NEG_INF and point != POS_INF:
            samples.add(point)
    for a, b in zip(anchors, anchors[1:]):
        if a != b:
            samples.add(interior_point(a, b))

    window_lo = lo if lo != NEG_INF else min(samples, default=Fraction(0)) - 100
    window_hi = hi if hi != POS_INF else max(samples, default=Fraction(0)) + 100
    rng = random.Random(seed)
    for _ in range(extra):
        samples.add(window_lo + (window_hi - window_lo) * Fraction(rng.randint(0, _GRID), _GRID))
    boundary |= {lo, hi}
    return sorted(samples), boundary


def _sample_failure(instance: MatroidInstance, mat: Matroid, solution, lam, on_boundary: bool):
    """What the solution gets wrong at lam, or None."""
    expected_value, expected_f, expected_basis = oracle_value(instance, lam)
    claimed = solution.envelope.evaluate(lam)
    if claimed != expected_value:
        return f"lam={lam}: claimed value {claimed}, oracle value {expected_value}"
    piece = solution.envelope.piece_at(lam)
    f_star = frozenset(piece.label.f_star)
    n, d, order = _scaled_weights(instance, lam, mat.available)
    attained_basis = _greedy(mat, order, f_star)
    if len(attained_basis) < instance.rank:
        attained = POS_INF
    else:
        attained = Fraction(sum(n[e] for e in attained_basis), d)
    if attained != expected_value:
        return f"lam={lam}: claimed deletion set {sorted(f_star)} attains {attained}, not {expected_value}"
    if on_boundary:
        return None
    if tuple(sorted(f_star)) != tuple(expected_f):
        return f"lam={lam}: claimed deletion set {sorted(f_star)}, oracle found {list(expected_f)}"
    if expected_value != POS_INF and frozenset(piece.label.basis) != expected_basis:
        return f"lam={lam}: claimed basis {sorted(piece.label.basis)}, oracle basis {sorted(expected_basis)}"
    return None


def verify_solution(
    instance: MatroidInstance,
    solution,
    extra_samples: int = 50,
    seed: int = 0,
) -> VerificationReport:
    """Check a solver result against the enumeration oracle.

    Samples every changepoint, the midpoint of every envelope piece, both
    finite endpoints, and seeded random rationals.  Strictly inside a
    piece the optimal value, deletion set, and basis must all match the
    oracle exactly; on piece boundaries (where several labels attain the
    optimum) the claimed value must match and the claimed deletion set
    must attain it.  Each sample enumerates all C(m, ell) deletion sets,
    so EnumerationCapExceeded is raised, before any point is drawn, when
    C(m, ell) or extra_samples * C(m, ell) exceeds the enumeration cap.
    Each sample evaluates the weights as scaled ints (see oracle_value)
    for the oracle and once more for the claimed deletion set's greedy.
    The report holds at most ten failures; an eleventh stops the check
    with "further failures suppressed", and samples_checked then counts
    the samples up to that one.
    """
    check_verification_cap(instance, extra_samples)
    mat = instance.matroid.with_fresh_counter()
    samples, boundary = _sample_points(instance, solution, extra_samples, seed)
    failures: list[str] = []
    checked = 0
    for checked, lam in enumerate(samples, 1):
        failure = _sample_failure(instance, mat, solution, lam, lam in boundary)
        if failure is None:
            continue
        if len(failures) == 10:
            failures.append("further failures suppressed")
            break
        failures.append(failure)
    return VerificationReport(not failures, checked, tuple(failures))
