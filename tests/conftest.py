"""Shared fixture graphs and independent checkers used across the test suite."""

import math
from collections import Counter

import numpy as np

from hexcover.aoi import AoiShape, classify_morphology
from hexcover.graphbuild import CoverageGraph, graph_from_coords
from hexcover.hexgeom import OffsetCoord, Point, PolygonWithHoles
from hexcover.metrics import (
    STATUS_COVERAGE,
    STATUS_FAIL,
    STATUS_HAMILTONIAN,
)


def aoi_from_ring(ring, holes=(), seed=0, family_hint="compact"):
    poly = PolygonWithHoles(tuple(ring), tuple(tuple(h) for h in holes))
    return AoiShape(poly, classify_morphology(poly), seed, family_hint)


def chain_graph(k=3, h=1.0):
    """Path graph: k cells in a single lattice row, base at one end, terminal at the other."""
    coords = [OffsetCoord(c, 0) for c in range(k)]
    return graph_from_coords(coords, h, [0], [k - 1], Point(-2.0, 0.0))


# Counterclockwise ring of the 6 cells around (0,0); the centre cell is absent.
RING6_COORDS = [
    OffsetCoord(1, 0),
    OffsetCoord(1, 1),
    OffsetCoord(0, 1),
    OffsetCoord(-1, 1),
    OffsetCoord(-1, 0),
    OffsetCoord(0, -1),
]


def ring6_graph(base_coord=OffsetCoord(0, 1), terminal_coord=OffsetCoord(1, 1), h=1.0):
    ordered = sorted(RING6_COORDS)
    base = ordered.index(base_coord)
    term = ordered.index(terminal_coord)
    return graph_from_coords(ordered, h, [base], [term], Point(0.0, 4.0))


def block_graph(cols, rows, h=1.0, base_links=None, terminal_links=None):
    coords = [OffsetCoord(c, r) for c in range(cols) for r in range(rows)]
    links = base_links if base_links is not None else [0]
    tlinks = terminal_links if terminal_links is not None else links
    return graph_from_coords(coords, h, links, tlinks, Point(-2.0, 0.0))


def random_small_graph(rng: np.random.Generator, max_cells=10) -> CoverageGraph:
    """Random connected-or-not lattice mask with random link sets (fixtures only)."""
    patch = [OffsetCoord(c, r) for c in range(4) for r in range(4)]
    k = int(rng.integers(1, max_cells + 1))
    idx = rng.choice(len(patch), size=k, replace=False)
    coords = sorted(patch[i] for i in idx)
    n = len(coords)
    n_base = int(rng.integers(1, min(3, n) + 1))
    n_term = int(rng.integers(1, min(3, n) + 1))
    base = sorted(int(i) for i in rng.choice(n, size=n_base, replace=False))
    term = sorted(int(i) for i in rng.choice(n, size=n_term, replace=False))
    return graph_from_coords(coords, 1.0, base, term, Point(-3.0, -3.0))


def random_walk(g: CoverageGraph, rng: np.random.Generator, max_len=60) -> list[int]:
    """Random adjacency-valid walk from the base node."""
    walk = [g.base_node]
    node = int(rng.choice(g.base_links))
    walk.append(node)
    for _ in range(int(rng.integers(0, max_len))):
        nbrs = [x for x in g.adjacency[node] if x != g.base_node]
        if not nbrs:
            break
        node = int(rng.choice(nbrs))
        walk.append(node)
        if node == g.terminal_node:
            break
    return walk


def naive_validate(g: CoverageGraph, walk) -> tuple[str, int]:
    """Independent re-implementation of walk grading using sets and counts."""
    assert walk[0] == g.base_node
    seen = Counter()
    for v in walk:
        if v < g.n:
            seen[v] += 1
    revisits = sum(seen.values()) - len(seen)
    covers = set(seen) == set(range(g.n))
    at_terminal = len(walk) > 1 and walk[-1] == g.terminal_node
    if covers and at_terminal:
        return (STATUS_HAMILTONIAN if revisits == 0 else STATUS_COVERAGE), revisits
    return STATUS_FAIL, revisits


def edge_lengths_ok(g: CoverageGraph) -> bool:
    """Every cell-cell edge passes the sqrt(3)*h centroid-distance test."""
    target = math.sqrt(3.0) * g.h
    for i in range(g.n):
        for j in g.internal_adjacency[i]:
            pi, pj = g.positions[i], g.positions[j]
            if abs(math.hypot(pj.x - pi.x, pj.y - pi.y) - target) > 1e-9 * target:
                return False
    return True
