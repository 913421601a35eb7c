"""Exact solvers for the parametric matroid interdiction problem.

Given a matroid whose element weights vary linearly in a parameter and
a deletion budget, compute for every parameter value the optimal set of
elements to delete and the resulting piecewise-linear min-basis value.

The package exports the solver API; the building blocks (envelopes,
sweeps, layered bases, the candidate tree) import from their submodules.
"""

from .interdiction import (
    ALGORITHMS,
    EnumerationCapExceeded,
    InterdictionSolution,
    SegmentLabel,
    changepoint_bound,
    solve,
    solve_brute,
    solve_tree,
    solve_uset,
)
from .matroid import Matroid, explicit, graphic, partition, uniform
from .oracle import VerificationReport, verify_solution
from .parametric import Interval, MatroidInstance, ParametricWeight, pw, rat

__all__ = [
    "ALGORITHMS",
    "EnumerationCapExceeded",
    "InterdictionSolution",
    "Interval",
    "Matroid",
    "MatroidInstance",
    "ParametricWeight",
    "SegmentLabel",
    "VerificationReport",
    "changepoint_bound",
    "explicit",
    "graphic",
    "partition",
    "pw",
    "rat",
    "solve",
    "solve_brute",
    "solve_tree",
    "solve_uset",
    "uniform",
    "verify_solution",
]
