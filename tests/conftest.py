"""Shared fixture graphs and independent checkers used across the test suite."""

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from hexcover.aoi import classify_morphology
from hexcover.graphbuild import HexMask, lattice_candidates, tessellate
from hexcover.hexgeom import PolygonWithHoles, min_rotated_rect
from hexcover.lattice import (
    _EVEN_COL_NEIGHBORS,
    _ODD_COL_NEIGHBORS,
    STATUS_COVERAGE,
    STATUS_FAIL,
    STATUS_HAMILTONIAN,
    CoverageGraph,
    LatticeFrame,
    OffsetCoord,
    Point,
    graph_from_coords,
)
from hexcover.metrics import _length_and_turns


def face_neighbors(c: OffsetCoord) -> list[OffsetCoord]:
    """The 6 face-adjacent lattice coordinates of `c`."""
    col, row = c
    steps = _ODD_COL_NEIGHBORS if col & 1 else _EVEN_COL_NEIGHBORS
    return [OffsetCoord(col + dc, row + dr) for dc, dr in steps]


def path_distance(g: CoverageGraph, walk) -> float:
    """Total walk length in the base-centred, radius-normalized frame."""
    return _length_and_turns(g, walk)[0] / g.base_radius


def path_turns(g: CoverageGraph, walk) -> float:
    """Cumulative absolute heading change in radians along the walk."""
    return _length_and_turns(g, walk)[1]


def read_results(path: Path) -> list[dict]:
    """The records of a results file, in file order."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def results_digest(path: Path) -> str:
    """SHA-256 of a results file's sorted non-latency lines."""
    rows = sorted(
        json.dumps(
            {k: v for k, v in json.loads(line).items() if k != "latency_ms"},
            sort_keys=True, separators=(",", ":"),
        )
        for line in path.read_text().splitlines()
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def morphology_of(polygon: PolygonWithHoles):
    """The morphology of `polygon`, classified with its outer ring's
    minimum rotated rectangle, as generation classifies it."""
    return classify_morphology(polygon, min_rotated_rect(polygon.outer))


def tessellate_one(polygon: PolygonWithHoles, h: float) -> HexMask:
    """The mask `tessellate` gives one AOI, in a block of its own, framed by
    its outer ring's minimum rotated rectangle."""
    return tessellate([lattice_candidates(polygon, min_rotated_rect(polygon.outer), h)], h)[0]


def aoi_from_ring(ring, holes=()):
    return PolygonWithHoles(tuple(ring), tuple(tuple(h) for h in holes))


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


PATCH_6X6 = [OffsetCoord(c, r) for c in range(6) for r in range(6)]


@st.composite
def lattice_graph_args(draw, max_cells=30):
    """`graph_from_coords` arguments for a random mask of up to `max_cells`
    cells in a 6x6 patch, in drawn order: random base and terminal link
    sets, circumradius, launch point and lattice frame. Half the masks are
    grown one face neighbour at a time, so they are connected."""
    if draw(st.booleans()):
        coords = draw(st.lists(st.sampled_from(PATCH_6X6), min_size=1, max_size=max_cells,
                               unique=True))
    else:
        coords = [draw(st.sampled_from(PATCH_6X6))]
        for k in draw(st.lists(st.integers(0, 35), max_size=max_cells - 1)):
            grown = {nb for c in coords for nb in face_neighbors(c)}
            frontier = sorted(grown.intersection(PATCH_6X6).difference(coords))
            if not frontier:
                break
            coords.append(frontier[k % len(frontier)])
    links = st.lists(st.integers(0, len(coords) - 1), min_size=1, max_size=4)
    coordinate = st.floats(-20.0, 20.0)
    return (
        coords,
        draw(st.floats(0.25, 4.0)),
        draw(links),
        draw(links),
        Point(draw(coordinate), draw(coordinate)),
        LatticeFrame(Point(draw(coordinate), draw(coordinate)),
                     draw(st.floats(-math.pi, math.pi))),
    )


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
            (xi, yi), (xj, yj) = g.positions[i], g.positions[j]
            if abs(math.hypot(xj - xi, yj - yi) - target) > 1e-9 * target:
                return False
    return True
