"""Functions of the paper that no solver calls, kept for the tests of its lemmas.

most_vital_element is interdiction with ell = 1 at a single lam, found
by replacement searches; changepoint_bound_secondary is a second
changepoint bound, via subsets of the layered-bases union, that the
tests check solutions against next to interdiction.changepoint_bound.
"""

from fractions import Fraction
from math import comb
from typing import Sequence

from matroid_interdiction.envelope import POS_INF
from matroid_interdiction.matroid import Matroid
from matroid_interdiction.parametric import ParametricWeight, probe_at, replacement_element, weight_at


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
    best_e = None
    best_delta = None
    for e in sorted(basis):
        r = replacement_element(matroid, probe, basis, e, exchanges=exchanges)
        delta = POS_INF if r is None else weight_at(weights[r], lam) - weight_at(weights[e], lam)
        if best_delta is None or delta > best_delta:
            best_e, best_delta = e, delta
    if best_e is None:
        raise ValueError("most vital element of an empty basis")
    return best_e
