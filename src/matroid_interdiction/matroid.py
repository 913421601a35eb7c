"""Matroids behind a uniform independence-oracle interface.

Four concrete families: graphic (acyclic edge sets of a multigraph),
uniform, partition, and explicit (all bases listed, tiny ground sets
only).  Elements are dense integer ids 0..m-1.  Deletion returns a new
view sharing the family; matroid objects never mutate after
construction, so they are safe to share across solver runs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

EXPLICIT_MAX_GROUND = 16  # axiom checks enumerate 2^m subsets


class _DSU:
    """Union-find with path halving; rebuilt per independence query."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


class _GraphicFamily:
    kind = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        if num_vertices < 1:
            raise ValueError("graphic family needs at least one vertex")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{num_vertices - 1}")
        self.num_vertices = num_vertices
        self.edges = edges
        self.ground_size = len(edges)

    def independent(self, subset: frozenset[int]) -> bool:
        dsu = _DSU(self.num_vertices)
        for e in subset:
            u, v = self.edges[e]
            if not dsu.union(u, v):  # closes a cycle (self-loops included)
                return False
        return True


class _UniformFamily:
    kind = "uniform"

    def __init__(self, m: int, k: int):
        if not 0 <= k <= m:
            raise ValueError(f"uniform family needs 0 <= k <= m, got m={m} k={k}")
        self.ground_size = m
        self.k = k

    def independent(self, subset: frozenset[int]) -> bool:
        return len(subset) <= self.k


class _PartitionFamily:
    kind = "partition"

    def __init__(self, blocks: Sequence[int], capacities: Sequence[int]):
        blocks = tuple(int(b) for b in blocks)
        capacities = tuple(int(c) for c in capacities)
        for b in blocks:
            if not 0 <= b < len(capacities):
                raise ValueError(f"block id {b} outside 0..{len(capacities) - 1}")
        if any(c < 0 for c in capacities):
            raise ValueError("block capacities must be non-negative")
        self.blocks = blocks
        self.capacities = capacities
        self.ground_size = len(blocks)

    def independent(self, subset: frozenset[int]) -> bool:
        used = [0] * len(self.capacities)
        for e in subset:
            b = self.blocks[e]
            used[b] += 1
            if used[b] > self.capacities[b]:
                return False
        return True


class _ExplicitFamily:
    kind = "explicit"

    def __init__(self, m: int, bases: Iterable[Iterable[int]]):
        if m > EXPLICIT_MAX_GROUND:
            raise ValueError(f"explicit family capped at {EXPLICIT_MAX_GROUND} elements, got {m}")
        base_sets = frozenset(frozenset(int(e) for e in b) for b in bases)
        if not base_sets:
            raise ValueError("explicit family needs at least one basis")
        sizes = {len(b) for b in base_sets}
        if len(sizes) != 1:
            raise ValueError("explicit bases must share one cardinality")
        for b in base_sets:
            if not all(0 <= e < m for e in b):
                raise ValueError("explicit basis element outside the ground set")
        self.ground_size = m
        self.bases = base_sets

    def independent(self, subset: frozenset[int]) -> bool:
        return any(subset <= b for b in self.bases)


class Matroid:
    """A matroid view: a family, a deleted element set, a call counter.

    The counter is shared by every view derived through delete(), so a
    solver can read the total number of independence tests it caused.
    """

    def __init__(self, family, deleted: Iterable[int] = (), _counter: list[int] | None = None):
        self._family = family
        self.deleted = frozenset(deleted)
        for e in self.deleted:
            if not 0 <= e < family.ground_size:
                raise ValueError(f"deleted element {e} outside the ground set")
        self._counter = _counter if _counter is not None else [0]

    @property
    def ground_size(self) -> int:
        return self._family.ground_size

    @property
    def family_kind(self) -> str:
        return self._family.kind

    @property
    def available(self) -> tuple[int, ...]:
        """Element ids still present, ascending."""
        return tuple(e for e in range(self.ground_size) if e not in self.deleted)

    @property
    def oracle_calls(self) -> int:
        return self._counter[0]

    def with_fresh_counter(self) -> "Matroid":
        return Matroid(self._family, self.deleted, [0])

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        bad = s & self.deleted
        if bad:
            raise ValueError(f"subset touches deleted elements {sorted(bad)}")
        self._counter[0] += 1
        return self._family.independent(s)

    def delete(self, removed: Iterable[int]) -> "Matroid":
        removed = frozenset(removed)
        if not removed <= set(range(self.ground_size)):
            raise ValueError("cannot delete elements outside the ground set")
        return Matroid(self._family, self.deleted | removed, self._counter)

    def rank(self, stop_at: int | None = None) -> int:
        """Size of a maximal independent set, grown greedily by id.

        The scan stops, spending no further oracle call, once the set
        holds stop_at elements: the result is min(rank, stop_at).
        """
        chosen: set[int] = set()
        for e in self.available:
            if len(chosen) == stop_at:
                break
            chosen.add(e)
            if not self.is_independent(chosen):
                chosen.discard(e)
        return len(chosen)

    def __repr__(self) -> str:
        return f"Matroid({self._family.kind}, m={self.ground_size}, deleted={sorted(self.deleted)})"


def graphic(num_vertices: int, edges: Sequence[tuple[int, int]]) -> Matroid:
    """Matroid of acyclic edge subsets; parallel edges and loops allowed."""
    return Matroid(_GraphicFamily(num_vertices, edges))


def uniform(m: int, k: int) -> Matroid:
    """Every subset of at most k elements is independent."""
    return Matroid(_UniformFamily(m, k))


def partition(blocks: Sequence[int], capacities: Sequence[int]) -> Matroid:
    """Independent sets pick at most capacities[b] elements from block b."""
    return Matroid(_PartitionFamily(blocks, capacities))


def explicit(m: int, bases: Iterable[Iterable[int]]) -> Matroid:
    """Matroid given by its full basis list; test-scale ground sets only."""
    return Matroid(_ExplicitFamily(m, bases))


def verify_axioms(matroid: Matroid) -> None:
    """Check the matroid axioms by full enumeration; raises on violation.

    Only feasible for small ground sets (2^m subsets are enumerated).
    """
    m = matroid.ground_size
    if m > EXPLICIT_MAX_GROUND:
        raise ValueError(f"axiom check enumerates 2^m subsets; m={m} is too large")
    elems = matroid.available
    independent: set[frozenset[int]] = set()
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            if matroid.is_independent(combo):
                independent.add(frozenset(combo))
    if frozenset() not in independent:
        raise AssertionError("empty set must be independent")
    for s in independent:
        for e in s:
            if s - {e} not in independent:
                raise AssertionError(f"hereditary axiom fails at {sorted(s)} minus {e}")
    for a in independent:
        for b in independent:
            if len(b) < len(a):
                if not any(b | {x} in independent for x in a - b):
                    raise AssertionError(
                        f"exchange axiom fails for {sorted(a)} and {sorted(b)}"
                    )
