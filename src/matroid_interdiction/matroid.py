"""Matroids behind a uniform independence-oracle interface.

Four concrete families: graphic (acyclic edge sets of a multigraph),
partition, uniform (the partition with one block of capacity k), and
explicit (all bases listed, tiny ground sets only).  Elements are
dense integer ids 0..m-1.  Deletion returns a new view sharing the
family; matroid objects never change an answer after construction (the
uniform family only records the ids it has been asked about), so they
are safe to share across solver runs.

Two kinds of independence test share one oracle-call counter.  A
one-shot query, Matroid.is_independent, tests a whole set from nothing,
given as a set or frozenset (the oracle's chosen sets, exchange's swap):
a graphic query costs O(|subset| + touched vertices), because the
family renumbers the vertices its edges touch once and each query runs
one fresh union-find over those alone.  The other tests run on a
family state that answers add(e) or fits(x, c), and only the Matroid
view loops over them, counting one oracle call per element tried and
refusing a deleted one, as the one-shot query it replaces did.

Matroid.grow is the one greedy scan: it grows an augment state, scan(),
along an order and yields each element it takes.  The state answers
add(e): does the set grown so far stay independent with e, an element
it does not hold yet, and if so it takes e.  Graphic keeps one
union-find with path halving, grown Kruskal style, so an augment test
costs two near-constant root finds; partition, uniform included, keeps
the room left in each block; explicit keeps the set itself and tests it
with e by one one-shot query.  Every state has copy(), which saves the
set grown so far without a test, so a caller that copies it after a
yield can resume a scan from any element it took.  An order offers
distinct elements the state does not hold: probe orders filtered by
deletion, available, or slices of the first-cell walk's order.
Matroid.greedy (minimum bases and rank) is one scan from nothing.  The
enumeration oracle keeps its own greedy on one-shot queries, as a
reference.

Matroid.replacement searches, for an independent basis B and some x in
it, for the first candidate c that makes B - x + c independent.  It
runs on an exchange state, Matroid.exchanges(B), built once per basis
and uncounted, that answers fits(x, c) for every x in B: graphic roots
the forest B once and records each vertex's tree and the basis edges on
its root path, so c fits when its ends lie in different trees or x lies
on the tree path between them (exactly one end lies below x); partition
grows its augment state over B, the room B leaves in each block, so c
fits when its block has room or is x's block.  Explicit families use
the same one-shot state as their augment state, holding B and testing
B - x + c.  The candidate tree's greedy layers are the only bases
searched, so B is always independent; the tree keeps each layer's state
from one cell to the next.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

EXPLICIT_MAX_GROUND = 16  # explicit families list every basis: test-scale ground sets only


class _GraphicFamily:
    kind = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        if num_vertices < 1:
            raise ValueError("graphic family needs at least one vertex")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{num_vertices - 1}")
        self.ground_size = len(edges)
        # endpoints renumbered densely over the touched vertices only
        index: dict[int, int] = {}
        self._ends = tuple((index.setdefault(u, len(index)), index.setdefault(v, len(index))) for u, v in edges)
        self._touched = len(index)

    def independent(self, subset: frozenset[int]) -> bool:
        """Union-find with path halving, one fresh parent list per query."""
        ends = self._ends
        parent = list(range(self._touched))
        for e in subset:
            u, v = ends[e]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:  # closes a cycle (self-loops included)
                return False
            parent[u] = v
        return True

    def scan(self) -> "_GraphicScan":
        return _GraphicScan(self)

    def exchanges(self, basis: frozenset[int]) -> "_ForestExchanges":
        return _ForestExchanges(self, basis)


class _ForestExchanges:
    """The forest B rooted once: per vertex its tree and its root path.

    path[w] holds, as bits, the basis edges between w and its root, so
    the tree path between u and v holds the bits of path[u] ^ path[v].
    Removing x from B separates u from v exactly when x lies on that
    path, that is, when exactly one of them lies below x.
    """

    __slots__ = ("_ends", "_tree", "_path")

    def __init__(self, family: _GraphicFamily, basis: frozenset[int]):
        ends, n = family._ends, family._touched
        adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e in basis:
            u, v = ends[e]
            adjacent[u].append((v, e))
            adjacent[v].append((u, e))
        tree, path = [-1] * n, [0] * n
        for root in range(n):
            if tree[root] >= 0:
                continue
            tree[root], stack = root, [root]
            while stack:
                u = stack.pop()
                for v, e in adjacent[u]:
                    if tree[v] < 0:
                        tree[v], path[v] = root, path[u] | 1 << e
                        stack.append(v)
        self._ends, self._tree, self._path = ends, tree, path

    def fits(self, x: int, c: int) -> bool:
        u, v = self._ends[c]
        tree, path = self._tree, self._path
        return tree[u] != tree[v] or bool((path[u] ^ path[v]) >> x & 1)


class _GraphicScan:
    """One union-find over the touched vertices, grown edge by edge."""

    __slots__ = ("_ends", "_parent")

    def __init__(self, family: _GraphicFamily):
        self._ends = family._ends
        self._parent = list(range(family._touched))

    def add(self, e: int) -> bool:
        parent = self._parent
        u, v = self._ends[e]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:  # closes a cycle (self-loops included)
            return False
        parent[u] = v
        return True

    def copy(self) -> "_GraphicScan":
        twin = object.__new__(_GraphicScan)
        twin._ends, twin._parent = self._ends, self._parent[:]
        return twin


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

    def scan(self) -> "_PartitionScan":
        return _PartitionScan(self)

    def exchanges(self, basis: frozenset[int]) -> "_PartitionScan":
        state = _PartitionScan(self)
        for e in basis:
            state.add(e)
        return state


class _UniformFamily(_PartitionFamily):
    """U(k, m): the partition matroid with one block of capacity k.

    Its block ids are a defaultdict(int), which answers 0 for every
    element without a Python-level call and stores only the ids queried,
    never one per ground element, so building the family does not grow
    with m; every test is the partition family's.
    """

    kind = "uniform"

    def __init__(self, m: int, k: int):
        if not 0 <= k <= m:
            raise ValueError(f"uniform family needs 0 <= k <= m, got m={m} k={k}")
        self.blocks = defaultdict(int)
        self.capacities = (k,)
        self.ground_size = m


class _PartitionScan:
    """The room left in each block.

    As an augment state it takes e while e's block has room.  Grown over
    an independent basis B it is B's exchange state: x frees one slot in
    its own block, so c fits when its block has room or is x's block.
    """

    __slots__ = ("_blocks", "_room")

    def __init__(self, family: _PartitionFamily):
        self._blocks = family.blocks
        self._room = list(family.capacities)

    def add(self, e: int) -> bool:
        b = self._blocks[e]
        if not self._room[b]:
            return False
        self._room[b] -= 1
        return True

    def fits(self, x: int, c: int) -> bool:
        b = self._blocks[c]
        return self._room[b] > 0 or b == self._blocks[x]

    def copy(self) -> "_PartitionScan":
        twin = object.__new__(_PartitionScan)
        twin._blocks, twin._room = self._blocks, self._room[:]
        return twin


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

    def scan(self) -> "_OneShot":
        return _OneShot(self)

    def exchanges(self, basis: frozenset[int]) -> "_OneShot":
        return _OneShot(self, basis)


class _OneShot:
    """The generic state: the set itself, each answer one one-shot query.

    add(e) tests the set with e, fits(x, c) tests B - x + c.
    """

    __slots__ = ("_members", "_independent")

    def __init__(self, family, members: Iterable[int] = ()):
        self._members = set(members)
        self._independent = family.independent

    def add(self, e: int) -> bool:
        if not self._independent(self._members | {e}):
            return False
        self._members.add(e)
        return True

    def fits(self, x: int, c: int) -> bool:
        return self._independent(self._members - {x} | {c})

    def copy(self) -> "_OneShot":
        twin = object.__new__(_OneShot)
        twin._members, twin._independent = set(self._members), self._independent
        return twin


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
    def available(self) -> tuple[int, ...]:
        """Element ids still present, ascending."""
        return tuple(e for e in range(self.ground_size) if e not in self.deleted)

    @property
    def oracle_calls(self) -> int:
        return self._counter[0]

    def with_fresh_counter(self) -> "Matroid":
        return Matroid(self._family, self.deleted, [0])

    def is_independent(self, subset: set[int] | frozenset[int]) -> bool:
        """One-shot query: one oracle call on the whole subset, a set."""
        if not self.deleted.isdisjoint(subset):
            raise _touches_deleted(subset, self.deleted)
        self._counter[0] += 1
        return self._family.independent(subset)

    def delete(self, removed: Iterable[int]) -> "Matroid":
        return Matroid(self._family, self.deleted.union(removed), self._counter)

    def greedy(self, order: Iterable[int]) -> frozenset[int]:
        """The independent set grown greedily along order from nothing.

        One grow() scan: each element tried costs one oracle call.  Along
        a weight order this is the minimum basis.
        """
        return frozenset(self.grow(self.scan(), order))

    def scan(self):
        """A fresh augment state of the family, holding nothing; see grow."""
        return self._family.scan()

    def grow(self, state, order: Iterable[int]) -> Iterator[int]:
        """Grow an augment state along order, yielding each element it takes.

        Each element tried costs one oracle call, and a deleted one
        raises before it is charged.  A caller that stops consuming
        spends no further call.  state is scan() or a state grown
        before, and order offers distinct elements that it does not
        hold; its copy() after a yield saves the set grown so far, from
        which a later grow resumes without a test.
        """
        add, deleted, counter = state.add, self.deleted, self._counter
        for e in order:
            if e in deleted:
                raise _touches_deleted({e}, deleted)
            counter[0] += 1
            if add(e):
                yield e

    def exchanges(self, basis: frozenset[int]):
        """The family's exchange state of an independent basis, built uncounted; see replacement."""
        if not self.deleted.isdisjoint(basis):
            raise _touches_deleted(basis, self.deleted)
        return self._family.exchanges(basis)

    def replacement(self, state, x: int, candidates: Iterable[int]) -> int | None:
        """The first candidate c with basis - x + c independent, or None.

        state is self.exchanges(basis) of an independent basis.
        Candidates come from outside the basis, and each one tried costs
        one oracle call; a deleted one raises when its turn comes,
        before it is charged.
        """
        fits, deleted, counter = state.fits, self.deleted, self._counter
        for c in candidates:
            if c in deleted:
                raise _touches_deleted({c}, deleted)
            counter[0] += 1
            if fits(x, c):
                return c
        return None

    def rank(self) -> int:
        """The size of the greedy set grown by id."""
        return len(self.greedy(self.available))

    def __repr__(self) -> str:
        return f"Matroid({self._family.kind}, m={self.ground_size}, deleted={sorted(self.deleted)})"


def _touches_deleted(subset, deleted: frozenset[int]) -> ValueError:
    return ValueError(f"subset touches deleted elements {sorted(deleted.intersection(subset))}")


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
