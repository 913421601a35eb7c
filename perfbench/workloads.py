"""Seeded instance generators for the benchmark workloads.

The generators live here, not in the program, so that a change to
`minterdict generate` cannot change what the benchmark measures.  Each
returns instance dicts in the program's JSON format; the program only
ever sees them through `cli.instance_from_dict`.

Instance j of a workload run with seed s is generated from the
instance seed s + 1000 * j, so instance 0 of seed s is the workload's
generator applied to s itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

INTERVAL = {"lo": "-5", "hi": "5"}
HEAVY_A = 10_000  # the padding weight `minterdict generate graphic` uses


def padded_graphic(seed: int, m: int, vertices: int, ell: int) -> dict:
    """Graphic matroid padded with ell heavy parallel copies of each edge.

    Reproduces `minterdict generate graphic --m m --k vertices --ell ell
    --seed seed` draw for draw: the rng key, the order of draws and the
    weight ranges are the same.
    """
    rng = random.Random(("graphic", m, vertices, ell, seed).__repr__())

    def rand_weight():
        return {"a": str(rng.randint(-20, 20)), "b": str(rng.randint(-10, 10))}

    base_budget = max(vertices - 1, m // (ell + 1))
    base_edges = []
    order = list(range(vertices))
    rng.shuffle(order)
    for i in range(1, vertices):
        base_edges.append((order[rng.randrange(i)], order[i]))
    while len(base_edges) < base_budget:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            base_edges.append((min(u, v), max(u, v)))
    edges, weights = [], []
    for u, v in base_edges:
        edges.append([u, v])
        weights.append(rand_weight())
        for _ in range(ell):
            edges.append([u, v])
            weights.append({"a": str(HEAVY_A), "b": "0"})
    return {
        "matroid": {"type": "graphic", "num_vertices": vertices, "edges": edges},
        "weights": weights,
        "ell": ell,
        "interval": dict(INTERVAL),
    }


def coincident_partition(seed: int, m: int, k: int, ell: int) -> dict:
    """Partition matroid, round-robin blocks of capacity 1, small integer weights.

    Slopes and intercepts from short integer ranges make many weight
    crossings share one lambda, which drives `uset` onto its rebuild path.
    """
    rng = random.Random(repr(("coincident-partition", m, k, ell, seed)))
    weights = [{"a": str(rng.randint(-20, 20)), "b": str(rng.randint(-10, 10))} for _ in range(m)]
    return {
        "matroid": {"type": "partition", "blocks": [i % k for i in range(m)], "capacities": [1] * k},
        "weights": weights,
        "ell": ell,
        "interval": dict(INTERVAL),
    }


def general_graphic(seed: int, m: int, vertices: int, ell: int) -> dict:
    """Union of ell + 1 random spanning trees plus random extra edges.

    Edge-disjoint spanning trees make the graph (ell + 1)-edge-connected,
    so no deletion within the budget kills the rank.  Rational slopes
    p/q put nearly every crossing at its own lambda.
    """
    if m < (ell + 1) * (vertices - 1):
        raise ValueError("general-graphic needs m >= (ell + 1) * (vertices - 1)")
    rng = random.Random(repr(("general-graphic", m, vertices, ell, seed)))
    edges = []
    for _ in range(ell + 1):
        order = list(range(vertices))
        rng.shuffle(order)
        for i in range(1, vertices):
            u, v = order[rng.randrange(i)], order[i]
            edges.append([min(u, v), max(u, v)])
    while len(edges) < m:
        u, v = rng.sample(range(vertices), 2)
        edges.append([min(u, v), max(u, v)])
    weights = [
        {"a": str(rng.randint(-50, 50)), "b": f"{rng.randint(-30, 30)}/{rng.randint(1, 9)}"}
        for _ in range(m)
    ]
    return {
        "matroid": {"type": "graphic", "num_vertices": vertices, "edges": edges},
        "weights": weights,
        "ell": ell,
        "interval": dict(INTERVAL),
    }


@dataclass(frozen=True)
class Workload:
    generator: Callable[..., dict]
    params: dict
    instances: int  # instances solved by every solver in one pass
    verify_every: int  # every verify_every-th instance has its uset solution verified

    def instance_dicts(self, seed: int) -> list[dict]:
        return [self.generator(seed + 1000 * j, **self.params) for j in range(self.instances)]


# Sizes keep brute and the verifier affordable on every workload, and
# the instance counts keep the sums over a pass steady from seed to seed.
WORKLOADS = {
    "padded-graphic": Workload(padded_graphic, {"m": 20, "vertices": 6, "ell": 3}, 16, 6),
    "coincident-partition": Workload(coincident_partition, {"m": 16, "k": 4, "ell": 2}, 20, 2),
    "general-graphic": Workload(general_graphic, {"m": 15, "vertices": 6, "ell": 2}, 30, 3),
}

SOLVERS = ("brute", "uset", "tree")

# The ROADMAP's profiled instance: `minterdict generate graphic --m 36
# --k 9 --ell 3 --seed 2`, with its recorded oracle calls and times.
ANCHOR = {"seed": 2, "m": 36, "vertices": 9, "ell": 3}
ANCHOR_CALLS = {"uset": 334_380, "tree": 33_782}
ANCHOR_ROADMAP_S = {"uset": 4.2, "tree": 0.73}
