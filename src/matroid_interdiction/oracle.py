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

The enumeration is one walk over the deletion sets, not one greedy run
per set: the sets come in lexicographic order of their positions in
the weight order, and each set's run resumes at the first position
where it differs from the previous set's, with the chosen set restored
to what it held there.  Every query is still a one-shot
Matroid.is_independent on the chosen set plus one element, one that
the set's own greedy run from nothing would make in the same order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
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


def _interdicted_bases(mat: Matroid, order, n, ell: int, k: int):
    """Yield (F, outcome) once for every ell-subset F of order.

    F lists its ids in order's order.  outcome is (sum of n, basis) for
    the basis _greedy(mat, order, F) finds, or None when M minus F has
    rank below k.  The sets come as position sets in lexicographic
    order.  A run ends once it holds k elements, as every later query
    would fail, or, as a kill, once the elements left cannot bring it
    to k; the sets that agree with it on the positions it passed share
    its outcome without a query.  Otherwise the next set's run resumes
    at the first position that changed, from the chosen set, sum and
    size marked when the run reached that position.  The walk keeps one
    chosen stack and no recursion, so its depth does not grow with m.
    """
    m = len(order)
    pos = list(range(ell))
    # (size, sum) of the chosen set when the run reached pos[j], or None
    # when the run ended before it
    mark: list = [None] * ell
    held: set[int] = set()
    chosen: list[int] = []
    total = i = j = 0  # j counts the deleted positions before i
    while True:
        while True:
            size = len(chosen)
            if size == k:
                outcome = (total, frozenset(chosen))
                break
            if size + (m - i) - (ell - j) < k:
                outcome = None
                break
            if j < ell and pos[j] == i:
                mark[j] = (size, total)
                j += 1
            else:
                e = order[i]
                held.add(e)
                if mat.is_independent(held):
                    chosen.append(e)
                    total += n[e]
                else:
                    held.discard(e)
            i += 1
        mark[j:] = [None] * (ell - j)
        while True:
            yield tuple(map(order.__getitem__, pos)), outcome
            # the last position that can move moves on by one
            t = ell - 1
            while t >= 0 and pos[t] == m - ell + t:
                t -= 1
            if t < 0:
                return
            i = pos[t]
            pos[t:] = range(i + 1, i + 1 + ell - t)
            if mark[t] is not None:
                break
        # position i is kept now: resume the run there
        size, total = mark[t]
        held.difference_update(chosen[size:])
        del chosen[size:]
        j = t


def oracle_value(instance: MatroidInstance, lam: Fraction, *, scaled=None):
    """Exact optimum at one parameter value by full enumeration.

    Returns (value, deletion set, interdicted basis).  The value is the
    largest basis sum over all C(m, ell) deletion sets, ties going to
    the lexicographically smallest set; it is +inf exactly when some
    deletion kills the rank, and the reported set is then the
    lexicographically first killing one, with its greedy basis.  The
    rank is the oracle's own, the size of its greedy basis at lam.  One
    walk (_interdicted_bases) along the weight order yields every set's
    basis and int sum, and stops at the first kill; since a kill does
    not depend on the weights, a second walk along the ids then meets
    the killing sets in lexicographic order.  The weights are evaluated
    once, as ints over one denominator (see the module docstring), and a
    set's ids are sorted only when its sum can win or tie.  scaled is
    _scaled_weights(instance, lam, available) when the caller holds it
    already, so that the weights are not evaluated twice.
    """
    mat = instance.matroid.with_fresh_counter()
    ell = instance.ell
    n, d, order = _scaled_weights(instance, lam, mat.available) if scaled is None else scaled
    k = len(_greedy(mat, order, frozenset()))
    best = None
    for F, outcome in _interdicted_bases(mat, order, n, ell, k):
        if outcome is None:
            F = next(F for F, outcome in _interdicted_bases(mat, mat.available, n, ell, k) if outcome is None)
            return POS_INF, F, _greedy(mat, order, frozenset(F))
        value, basis = outcome
        if best is not None and value < best[0]:
            continue
        F = tuple(sorted(F))
        if best is None or value > best[0] or F < best[1]:
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
    scaled = n, d, order = _scaled_weights(instance, lam, mat.available)
    expected_value, expected_f, expected_basis = oracle_value(instance, lam, scaled=scaled)
    claimed = solution.envelope.evaluate(lam)
    if claimed != expected_value:
        return f"lam={lam}: claimed value {claimed}, oracle value {expected_value}"
    piece = solution.envelope.piece_at(lam)
    f_star = frozenset(piece.label.f_star)
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
    must attain it.  Each sample walks all C(m, ell) deletion sets (see
    oracle_value; the sets share the one-shot queries of their common
    greedy prefixes, but each is still visited), so
    EnumerationCapExceeded is raised, before any point is drawn, when
    C(m, ell) or extra_samples * C(m, ell) exceeds the enumeration cap.
    Each sample evaluates the weights once, as scaled ints (see
    oracle_value), for both the oracle and the claimed deletion set's
    greedy.
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
