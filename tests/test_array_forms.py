"""The array forms of the ring predicates against their scalar references.

Each array form must evaluate its scalar test element by element, so the two
are compared for exact equality, crossing parameters included, on rings that
stress the floating-point corner cases: random rings, nearly collinear
vertices, horizontal edges, repeated vertices, and query points that sit on
ring vertices.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hexcover import hexgeom
from hexcover.hexgeom import (
    Point,
    crossing_matrix,
    point_array,
    point_in_ring,
    points_in_ring,
    ring_array,
    ring_crossing_params,
    ring_edges,
    ring_is_simple,
)

# ---------------------------------------------------------------------------
# Scalar references: the per-pair loops the array forms replaced.


def segments_cross(p0, p1, q0, q1) -> bool:
    """Proper-intersection test for open segments."""
    (px0, py0), (px1, py1), (qx0, qy0), (qx1, qy1) = p0, p1, q0, q1
    qx, qy = qx1 - qx0, qy1 - qy0
    d1 = qx * (py0 - qy0) - qy * (px0 - qx0)
    d2 = qx * (py1 - qy0) - qy * (px1 - qx0)
    if (d1 > 0) == (d2 > 0) or d1 == d2:
        return False
    px, py = px1 - px0, py1 - py0
    d3 = px * (qy0 - py0) - py * (qx0 - px0)
    d4 = px * (qy1 - py0) - py * (qx1 - px0)
    return (d3 > 0) != (d4 > 0) and d3 != d4


def scalar_ring_is_simple(ring) -> bool:
    edges = list(ring_edges(ring))
    n = len(edges)
    for i, (a0, a1) in enumerate(edges):
        # Every later edge but the next one, and for the first edge the last.
        for b0, b1 in edges[i + 2 : n - 1 if i == 0 else n]:
            if segments_cross(a0, a1, b0, b1):
                return False
    return True


def segment_ring_crossing_params(p0, p1, ring) -> list[float]:
    """Parameters t in (0,1) where segment p0->p1 properly crosses ring edges."""
    params = []
    (x0, y0), (x1, y1) = p0, p1
    px, py = x1 - x0, y1 - y0
    for (ax, ay), (bx, by) in ring_edges(ring):
        ex, ey = bx - ax, by - ay
        d0 = ex * (y0 - ay) - ey * (x0 - ax)
        d1 = ex * (y1 - ay) - ey * (x1 - ax)
        if (d0 > 0) == (d1 > 0) or d0 == d1:
            continue
        e0 = px * (ay - y0) - py * (ax - x0)
        e1 = px * (by - y0) - py * (bx - x0)
        if (e0 > 0) == (e1 > 0) or e0 == e1:
            continue
        params.append(d0 / (d0 - d1))
    return params


# ---------------------------------------------------------------------------
# Ring families


def random_ring(rng):
    n = int(rng.integers(3, 24))
    return tuple(Point(float(x), float(y)) for x, y in rng.uniform(-5.0, 5.0, (n, 2)))


def near_collinear_ring(rng):
    """Vertices on one line, each nudged off it by at most 1e-15."""
    n = int(rng.integers(3, 16))
    a, b = rng.uniform(-2.0, 2.0, 2)
    xs = rng.uniform(-3.0, 3.0, n)
    nudge = rng.choice([-1e-15, 0.0, 1e-15], n)
    return tuple(Point(float(x), float(a * x + b + e)) for x, e in zip(xs, nudge))


def grid_ring(rng):
    """Small-integer vertices: many horizontal edges and repeated vertices."""
    n = int(rng.integers(3, 16))
    pts = [Point(float(x), float(y)) for x, y in rng.integers(-2, 3, (n, 2))]
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(0, n))
        pts.insert(k, pts[k])
    return tuple(pts)


FAMILIES = {"random": random_ring, "near-collinear": near_collinear_ring, "grid": grid_ring}
CASES = [(name, seed) for name in FAMILIES for seed in range(40)]


def ring_pair(name, seed):
    rng = np.random.default_rng([seed, len(name)])
    return FAMILIES[name](rng), FAMILIES[name](rng), rng


def query_points(ring, other, rng):
    """The vertices of both rings plus random points in their box."""
    pts = [*ring, *other]
    xs, ys = [p.x for p in pts], [p.y for p in pts]
    box = rng.uniform((min(xs), min(ys)), (max(xs), max(ys)), (20, 2))
    return pts + [Point(float(x), float(y)) for x, y in box]


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, seed", CASES)
def test_crossing_matrix_matches_segments_cross(name, seed):
    a, b, _ = ring_pair(name, seed)
    for p_ring, q_ring in ((a, b), (b, a), (a, a)):
        got = crossing_matrix(ring_array(p_ring), ring_array(q_ring))
        want = [
            [segments_cross(p0, p1, q0, q1) for q0, q1 in ring_edges(q_ring)]
            for p0, p1 in ring_edges(p_ring)
        ]
        assert got.tolist() == want


@pytest.mark.parametrize("name, seed", CASES)
def test_ring_is_simple_matches_scalar(name, seed):
    a, b, _ = ring_pair(name, seed)
    for ring in (a, b):
        assert ring_is_simple(ring_array(ring)) == scalar_ring_is_simple(ring)


@pytest.mark.parametrize("name, seed", CASES)
def test_points_in_ring_matches_point_in_ring(name, seed):
    a, b, rng = ring_pair(name, seed)
    pts = query_points(a, b, rng)
    for ring in (a, b):
        got = points_in_ring(point_array(pts), ring_array(ring))
        assert got.tolist() == [point_in_ring(p, ring) for p in pts]


@pytest.mark.parametrize("name, seed", CASES)
def test_ring_crossing_params_match_scalar_in_order(name, seed):
    a, b, rng = ring_pair(name, seed)
    ends = query_points(a, b, rng)
    for ring in (a, b):
        for p0 in (ends[0], ends[-1], Point(-9.0, 0.5)):
            cross, params = ring_crossing_params(p0, point_array(ends), ring_array(ring))
            for k, p1 in enumerate(ends):
                want = segment_ring_crossing_params(p0, p1, ring)
                got = params[k, cross[k]].tolist()
                assert got == want
                # == does not tell 0.0 from -0.0; the sign must match too.
                assert [np.copysign(1.0, t) for t in got] == [np.copysign(1.0, t) for t in want]


def test_crossing_edge_cases_by_hand():
    square = (Point(0.0, 0.0), Point(2.0, 0.0), Point(2.0, 2.0), Point(0.0, 2.0))
    # A horizontal segment through the middle crosses the two vertical edges.
    cross, params = ring_crossing_params(
        Point(-1.0, 1.0), point_array([Point(3.0, 1.0)]), ring_array(square)
    )
    assert params[0, cross[0]].tolist() == [0.75, 0.25]
    bowtie = (Point(0.0, 0.0), Point(2.0, 2.0), Point(2.0, 0.0), Point(0.0, 2.0))
    assert ring_is_simple(ring_array(square))
    assert not ring_is_simple(ring_array(bowtie))


@pytest.mark.parametrize("module", ["hexcover.hexgeom", "hexcover.cli"])
def test_import_does_not_load_numpy(module):
    code = f"import sys, {module}; assert 'numpy' not in sys.modules, 'numpy was imported'"
    src = str(Path(hexgeom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
