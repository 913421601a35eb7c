"""Brute-force ground truth for single parameter values.

Deliberately reimplements the greedy optimum from nothing but the
independence oracle and the weight evaluation, so a bug in the sweep or
envelope machinery cannot cancel out of both sides of a comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

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


def oracle_value(instance: MatroidInstance, lam: Fraction):
    """Exact optimum at one parameter value by full enumeration.

    Returns (value, deletion set, interdicted basis); the value is +inf
    exactly when some deletion of the budget size kills the rank, and
    the reported deletion set is then the lexicographically first one.
    """
    mat = instance.matroid.with_fresh_counter()
    weights = instance.weights
    k = instance.rank
    order = sorted(mat.available, key=lambda e: (weight_at(weights[e], lam), e))
    best = None
    for F in combinations(mat.available, instance.ell):
        skip = frozenset(F)
        basis = _greedy(mat, order, skip)
        if len(basis) < k:
            return POS_INF, F, basis
        value = sum((weight_at(weights[e], lam) for e in basis), Fraction(0))
        if best is None or value > best[0]:
            best = (value, F, basis)
    return best


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
    so EnumerationCapExceeded is raised above the enumeration cap.
    """
    mat = instance.matroid.with_fresh_counter()
    _check_cap(comb(len(mat.available), instance.ell))
    weights = instance.weights
    k = instance.rank
    samples, boundary = _sample_points(instance, solution, extra_samples, seed)
    failures: list[str] = []
    for lam in samples:
        expected_value, expected_f, expected_basis = oracle_value(instance, lam)
        claimed = solution.envelope.evaluate(lam)
        if claimed != expected_value:
            failures.append(f"lam={lam}: claimed value {claimed}, oracle value {expected_value}")
            continue
        piece = solution.envelope.piece_at(lam)
        f_star = frozenset(piece.label.f_star)
        order = sorted(mat.available, key=lambda e: (weight_at(weights[e], lam), e))
        attained_basis = _greedy(mat, order, f_star)
        if len(attained_basis) < k:
            attained = POS_INF
        else:
            attained = sum((weight_at(weights[e], lam) for e in attained_basis), Fraction(0))
        if attained != expected_value:
            failures.append(f"lam={lam}: claimed deletion set {sorted(f_star)} attains {attained}, not {expected_value}")
            continue
        if lam not in boundary:
            if tuple(sorted(f_star)) != tuple(expected_f):
                failures.append(f"lam={lam}: claimed deletion set {sorted(f_star)}, oracle found {list(expected_f)}")
            elif expected_value != POS_INF and frozenset(piece.label.basis) != expected_basis:
                failures.append(f"lam={lam}: claimed basis {sorted(piece.label.basis)}, oracle basis {sorted(expected_basis)}")
        if len(failures) >= 10:
            failures.append("further failures suppressed")
            break
    return VerificationReport(not failures, len(samples), tuple(failures))
