"""Binary matroids: a family built in tests only, run through every solver.

A binary matroid is the column matroid of a matrix over GF(2); here each
column is an int bitmask.  The Matroid view takes any family with
ground_size, kind, independent, scan and exchanges, whose states answer
add, fits and copy, so the family needs nothing from src/.  The Fano
plane F7, its dual and R10 are neither graphic nor partition matroids,
so they exercise the solvers' general matroid rules: the layered-bases
lemma behind uset and the candidate tree's one-layer fall-through.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_interdiction.interdiction import solve
from matroid_interdiction.matroid import Matroid
from matroid_interdiction.oracle import verify_solution
from matroid_interdiction.parametric import Interval, MatroidInstance, pw
from test_matroid import _bases_of, verify_axioms

F = Fraction


class BinaryFamily:
    kind = "binary"

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.ground_size = len(self.columns)

    def independent(self, subset) -> bool:
        """Forward XOR elimination: each vector clears its lowest bit from the later ones."""
        vectors = [self.columns[e] for e in subset]
        for i, v in enumerate(vectors):
            if not v:  # a combination of the earlier columns
                return False
            low = v & -v
            for j in range(i + 1, len(vectors)):
                if vectors[j] & low:
                    vectors[j] ^= v
        return True

    def scan(self) -> "Echelon":
        return Echelon(self)

    def exchanges(self, basis):
        state = Echelon(self)
        for e in basis:
            state.add(e)
        return state


class Echelon:
    """An echelon basis of the columns taken so far, keyed by leading bit.

    Each pivot keeps, as bits, the taken elements whose columns sum to
    it, so reducing c's column to 0 leaves c's coordinates in the taken
    set B, its fundamental circuit less c: B - x + c is independent when
    c lies outside B's span or x is among those coordinates.
    """

    def __init__(self, family: BinaryFamily):
        self._columns = family.columns
        self._pivots: dict[int, tuple[int, int]] = {}

    def _reduce(self, v: int, mask: int) -> tuple[int, int]:
        pivots = self._pivots
        while v and v.bit_length() - 1 in pivots:
            pivot, elements = pivots[v.bit_length() - 1]
            v, mask = v ^ pivot, mask ^ elements
        return v, mask

    def add(self, e: int) -> bool:
        v, mask = self._reduce(self._columns[e], 1 << e)
        if not v:
            return False
        self._pivots[v.bit_length() - 1] = (v, mask)
        return True

    def fits(self, x: int, c: int) -> bool:
        v, mask = self._reduce(self._columns[c], 0)
        return bool(v) or bool(mask >> x & 1)

    def copy(self) -> "Echelon":
        twin = object.__new__(Echelon)
        twin._columns, twin._pivots = self._columns, dict(self._pivots)
        return twin


def binary(columns) -> Matroid:
    return Matroid(BinaryFamily(columns))


def dual_form(a_columns, r: int) -> list[int]:
    """The columns of [A^T | I], whose matroid is the dual of [I_r | A]'s.

    A's columns are given as r-bit masks.
    """
    rows = [sum(1 << j for j, col in enumerate(a_columns) if col >> i & 1) for i in range(r)]
    return rows + [1 << j for j in range(len(a_columns))]


FANO_A = (0b011, 0b101, 0b110, 0b111)
F7 = [0b001, 0b010, 0b100, *FANO_A]  # [I_3 | A]: the seven nonzero vectors of GF(2)^3
F7_DUAL = dual_form(FANO_A, 3)
R10 = [v for v in range(32) if bin(v).count("1") == 3]  # the ten 3-sets of a 5-set, as vectors
NAMED = {"F7": F7, "F7*": F7_DUAL, "R10": R10}


def random_columns():
    # zero columns are loops, repeated ones parallel elements
    return st.integers(1, 4).flatmap(
        lambda r: st.lists(st.integers(0, (1 << r) - 1), min_size=1, max_size=10)
    )


MATRICES = st.sampled_from(sorted(NAMED)).map(NAMED.get) | random_columns()


def test_named_matroids_have_their_known_bases():
    assert sorted(F7) == list(range(1, 8))
    fano = _bases_of(binary(F7))._family.bases
    # the 35 triples of F7 less its 7 lines
    lines = [s for s in map(frozenset, combinations(range(7), 3)) if not binary(F7).is_independent(s)]
    assert len(lines) == 7 and len(fano) == 28
    # every point lies on three lines, every two lines share one point
    assert all(sum(e in line for line in lines) == 3 for e in range(7))
    assert all(len(a & b) == 1 for a, b in combinations(lines, 2))
    # a basis of the dual is the complement of a basis of F7
    dual = _bases_of(binary(F7_DUAL))._family.bases
    assert dual == {frozenset(range(7)) - b for b in fano}
    assert binary(R10).rank() == 5
    assert len(_bases_of(binary(R10))._family.bases) == 162
    for columns in NAMED.values():
        verify_axioms(binary(columns))


@settings(max_examples=40, deadline=None)
@given(random_columns())
def test_random_binary_matrices_are_matroids(columns):
    verify_axioms(binary(columns))


@settings(max_examples=150, deadline=None)
@given(MATRICES, st.data())
def test_echelon_scan_agrees_with_the_one_shot_query(columns, data):
    family = BinaryFamily(columns)
    scan = family.scan()
    chosen: set[int] = set()
    for e in data.draw(st.permutations(range(family.ground_size))):
        fits = family.independent(frozenset(chosen | {e}))
        assert scan.add(e) == fits
        if fits:
            chosen.add(e)


@settings(max_examples=150, deadline=None)
@given(MATRICES, st.data())
def test_echelon_exchanges_agree_with_the_one_shot_query(columns, data):
    mat = binary(columns)
    family, m = mat._family, mat.ground_size
    if data.draw(st.booleans(), label="maximal"):
        basis = mat.greedy(data.draw(st.permutations(range(m)), label="order"))
    else:
        basis = mat.greedy(sorted(data.draw(st.sets(st.integers(0, m - 1)), label="subset")))
    state = family.exchanges(basis)
    for x in basis:
        for c in set(range(m)) - basis:
            assert state.fits(x, c) == family.independent(basis - {x} | {c}), (sorted(basis), x, c)


def generic_weights(m: int, seed: int):
    # wide numerators and denominators: no two lines coincide, and no
    # three cross at one lambda, but by a chance too small to matter
    rng = random.Random(seed)

    def rational():
        return F(rng.randint(-999, 999), rng.randint(1, 97))

    return tuple(pw(rational(), rational()) for _ in range(m))


@settings(max_examples=80, deadline=None)
@given(MATRICES, st.integers(0, 2**32), st.data())
def test_solvers_match_brute_on_binary_matroids(columns, seed, data):
    mat = binary(columns)
    ell = data.draw(st.integers(1, min(2, mat.ground_size)), label="ell")
    inst = MatroidInstance(mat, generic_weights(mat.ground_size, seed), ell, Interval(F(-20), F(20)))
    reference = solve(inst, "brute")
    assert verify_solution(inst, reference, extra_samples=20).ok
    for name in ("uset", "tree"):
        sol = solve(inst, name)
        assert sol.segments == reference.segments, name
        assert verify_solution(inst, sol, extra_samples=20).ok, name
