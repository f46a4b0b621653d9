"""The array forms of the ring predicates, the hexagon clip, the hole
clearance test and the rotating calipers against their scalar references.

Each array form must evaluate its scalar test element by element, so the two
are compared for exact equality, crossing parameters, clipped areas and
rectangles included, on rings that stress the floating-point corner cases:
random rings, nearly collinear vertices, horizontal edges, repeated vertices,
query points that sit on ring vertices, subject vertices on hexagon edges,
clearances equal to a least distance, edges that tie on area, and vertices
at -0.0.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import morphology_of

from hexcover import aoi, graphbuild, hexgeom
from hexcover.aoi import _closer_than, _dist_point_segment, insert_obstacles, sample_aoi
from hexcover.graphbuild import GenerationConfig, choose_family
from hexcover.hexgeom import (
    MinRotatedRect,
    PolygonWithHoles,
    convex_hull,
    free_overlap_areas,
    hexagon_clip_areas,
    hexagon_ring,
    min_rotated_rect,
    point_array,
    points_in_ring,
    ring_array,
    ring_edges,
    ring_is_simple,
    ring_signed_area,
    segment_crossings,
)
from hexcover.lattice import Point

# ---------------------------------------------------------------------------
# Scalar references: the per-pair loops the array forms replaced.


def point_in_ring(pt, ring) -> bool:
    """Even-odd rule point-in-polygon test (boundary points are undefined)."""
    x, y = pt
    inside = False
    # The closing edge comes first: the parity does not depend on edge order,
    # and each edge is still evaluated from its first vertex.
    x0, y0 = ring[-1]
    for x1, y1 in ring:
        if (y0 > y) != (y1 > y):
            if x < x0 + (y - y0) / (y1 - y0) * (x1 - x0):
                inside = not inside
        x0, y0 = x1, y1
    return inside


def polygon_contains(polygon, pt) -> bool:
    """Whether `pt` lies in free space: inside the outer ring, outside every hole."""
    if not point_in_ring(pt, polygon.outer):
        return False
    return not any(point_in_ring(pt, hole) for hole in polygon.holes)


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


def clip_halfplane(ring, a, b):
    """Sutherland-Hodgman: the part of `ring` left of the line a->b."""
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    # _orient(a, b, p) of every vertex, the same expression written out.
    sides = [ex * (y - ay) - ey * (x - ax) for x, y in ring]
    if min(sides) >= 0:
        return ring  # every vertex kept, no edge leaves the half-plane
    if max(sides) < 0:
        return []
    out = []
    for p, q, ps, qs in zip(ring, ring[1:] + ring[:1], sides, sides[1:] + sides[:1]):
        if ps >= 0:
            out.append(p)
            if qs >= 0:
                continue
        elif qs < 0:
            continue
        # The edge crosses the clip line: add the crossing point.
        t = ps / (ps - qs)
        out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def clip_rings(ring, clip):
    """The subject ring after each clip edge of the convex counterclockwise
    `clip`, in order."""
    rings = []
    for a, b in ring_edges(clip):
        if not ring:
            break
        ring = clip_halfplane(ring, a, b)
        rings.append(ring)
    return rings


def clip_area_ccw(ring, clip) -> float:
    ring = clip_rings(ring, clip)[-1]
    if len(ring) < 3:
        return 0.0
    return max(ring_signed_area(ring), 0.0)


def counterclockwise(ring):
    return list(reversed(ring)) if ring_signed_area(ring) < 0 else ring


def clip_area_convex(subject, clip) -> float:
    """Area of subject ∩ clip where `clip` is convex and counterclockwise."""
    return clip_area_ccw(counterclockwise(subject), clip)


def free_overlap_area(center, h, polygon) -> float:
    """Area of the hexagon at `center` covered by free space (outer minus holes)."""
    hexagon = hexagon_ring(center, h)
    area = clip_area_convex(polygon.outer, hexagon)
    if area == 0.0:
        return 0.0
    for hole in polygon.holes:
        area -= clip_area_convex(list(reversed(hole)), hexagon)
    return max(area, 0.0)


def closer_than(p, ring, clearance: float, pad: float) -> bool:
    """Whether some edge of `ring` lies closer than `clearance` to `p`,
    stopping at the first closer edge and skipping an edge whose box,
    widened by `clearance + pad`, does not reach `p`."""
    px, py = p
    reach = clearance + pad
    for a, b in ring_edges(ring):
        (ax, ay), (bx, by) = a, b
        if px - reach > ax and px - reach > bx or px + reach < ax and px + reach < bx:
            continue
        if py - reach > ay and py - reach > by or py + reach < ay and py + reach < by:
            continue
        if _dist_point_segment(p, a, b) < clearance:
            return True
    return False


def hole_admissible(candidate, outer, holes, clearance: float, pad: float) -> bool:
    """The hole test vertex by vertex, each against one ring at a time."""
    ring, arr = candidate
    vertices = arr[:-1]
    outer_ring, outer_arr = outer
    for p, inside in zip(ring, points_in_ring(vertices, outer_arr)):
        if not inside or closer_than(p, outer_ring, clearance, pad):
            return False
    for other, other_arr in holes:
        for p, inside in zip(ring, points_in_ring(vertices, other_arr)):
            if inside or closer_than(p, other, clearance, pad):
                return False
        if points_in_ring(other_arr[:-1], arr).any():
            return False
    return True


def caliper_extremes(hull):
    """For each hull edge in order, with a non-zero length: its unit
    direction and the extremes (smin, smax, tmin, tmax) of the hull's
    projections on it and on its normal."""
    out = []
    m = len(hull)
    for i in range(m):
        px, py = hull[i]
        qx, qy = hull[(i + 1) % m]
        ex, ey = qx - px, qy - py
        norm = math.hypot(ex, ey)
        if norm == 0:
            continue
        ux, uy = ex / norm, ey / norm
        ss = [x * ux + y * uy for x, y in hull]
        ts = [-x * uy + y * ux for x, y in hull]
        out.append(((ux, uy), (min(ss), max(ss), min(ts), max(ts))))
    return out


def scalar_min_rotated_rect(points) -> MinRotatedRect:
    """Rotating calipers, one hull edge at a time; ties on area keep the
    first edge."""
    hull = convex_hull(points)
    best = None
    for (ux, uy), (smin, smax, tmin, tmax) in caliper_extremes(hull):
        area = (smax - smin) * (tmax - tmin)
        if best is None or area < best[0]:
            best = (area, ux, uy, smin, smax, tmin, tmax)
    _, ux, uy, smin, smax, tmin, tmax = best
    sc, tc = 0.5 * (smin + smax), 0.5 * (tmin + tmax)
    center = Point(sc * ux - tc * uy, sc * uy + tc * ux)
    ds, dt = smax - smin, tmax - tmin
    if ds >= dt:
        axis, long_side, short_side = (ux, uy), ds, dt
    else:
        axis, long_side, short_side = (-uy, ux), dt, ds
    ax, ay = axis
    if ay < 0 or (ay == 0 and ax < 0):
        ax, ay = -ax, -ay
    return MinRotatedRect(center, Point(ax, ay), long_side, short_side)


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


def crossing_params(p0, ends, ring):
    """segment_crossings from p0 to each row of `ends`, with the crossing
    parameters `line_of_sight` reads from its orientations."""
    cross, d0, d1 = segment_crossings(point_array([p0]), ends, ring)
    return cross, np.divide(d0, d0 - d1, out=np.zeros(cross.shape), where=cross)


@pytest.mark.parametrize("name, seed", CASES)
def test_crossing_matrix_matches_segments_cross(name, seed):
    a, b, _ = ring_pair(name, seed)
    for p_ring, q_ring in ((a, b), (b, a), (a, a)):
        p = ring_array(p_ring)
        got, _, _ = segment_crossings(p[:-1], p[1:], ring_array(q_ring))
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
            cross, params = crossing_params(p0, point_array(ends), ring_array(ring))
            for k, p1 in enumerate(ends):
                want = segment_ring_crossing_params(p0, p1, ring)
                got = params[k, cross[k]].tolist()
                assert got == want
                # == does not tell 0.0 from -0.0; the sign must match too.
                assert [np.copysign(1.0, t) for t in got] == [np.copysign(1.0, t) for t in want]


def test_crossing_edge_cases_by_hand():
    square = (Point(0.0, 0.0), Point(2.0, 0.0), Point(2.0, 2.0), Point(0.0, 2.0))
    # A horizontal segment through the middle crosses the two vertical edges.
    cross, params = crossing_params(
        Point(-1.0, 1.0), point_array([Point(3.0, 1.0)]), ring_array(square)
    )
    assert params[0, cross[0]].tolist() == [0.75, 0.25]
    bowtie = (Point(0.0, 0.0), Point(2.0, 2.0), Point(2.0, 0.0), Point(0.0, 2.0))
    assert ring_is_simple(ring_array(square))
    assert not ring_is_simple(ring_array(bowtie))


@pytest.mark.parametrize("name, seed", CASES)
def test_one_row_starts_match_the_row_repeated(name, seed):
    a, b, rng = ring_pair(name, seed)
    ends = point_array(query_points(a, b, rng))
    for ring in (a, b):
        for p0 in (ends[:1], ends[-1:], point_array([Point(-9.0, 0.5)])):
            one = segment_crossings(p0, ends, ring_array(ring))
            rows = segment_crossings(np.repeat(p0, len(ends), axis=0), ends, ring_array(ring))
            for got, want in zip(one, rows):
                # The bits, so that the sign of a zero orientation counts too.
                got = np.broadcast_to(got, want.shape)
                assert got.tobytes() == want.tobytes()


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


# ---------------------------------------------------------------------------
# The hexagon clip


def star_ring(rng):
    """A random star-shaped counterclockwise ring around a random centre."""
    n = int(rng.integers(3, 48))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.5, 4.0, n)
    cx, cy = rng.uniform(-3.0, 3.0, 2)
    return [
        Point(float(cx + r * np.cos(a)), float(cy + r * np.sin(a)))
        for a, r in zip(angles, radii)
    ]


def clip_centres(ring, rng):
    """Hexagon centres on the subject's vertices, across its edges, wholly
    inside it and wholly outside it, plus random ones near it."""
    xs, ys = [p.x for p in ring], [p.y for p in ring]
    cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
    centres = list(ring)
    for (x0, y0), (x1, y1) in ring_edges(ring):
        t = float(rng.uniform(0.1, 0.9))
        centres.append(Point(x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    centres.append(Point(cx, cy))
    centres.append(Point(max(xs) + 10.0, cy))
    box = rng.uniform((min(xs) - 1.0, min(ys) - 1.0), (max(xs) + 1.0, max(ys) + 1.0), (20, 2))
    return centres + [Point(float(x), float(y)) for x, y in box]


def assert_clips_match(ring, centres, h):
    got = hexagon_clip_areas([ring], [point_array(centres)], h)[0].tolist()
    want = [clip_area_ccw(ring, hexagon_ring(c, h)) for c in centres]
    assert got == want
    assert [np.copysign(1.0, a) for a in got] == [np.copysign(1.0, a) for a in want]


def hexes(values):
    """Each float as float.hex, so that -0.0 is not 0.0."""
    return [float(v).hex() for v in values]


def assert_joint_clip_matches(rings, centers, h):
    """One call over all of `rings`, each with its own array of `centers`,
    gives each ring the areas that a call of its own gives, bit for bit."""
    joint = hexagon_clip_areas(rings, centers, h)
    assert [len(row) for row in joint] == [len(c) for c in centers]
    for ring, cells, row in zip(rings, centers, joint):
        assert hexes(row) == hexes(hexagon_clip_areas([ring], [cells], h)[0])


@pytest.mark.parametrize("seed", range(20))
def test_one_clip_call_for_several_star_rings(seed):
    rng = np.random.default_rng([seed, 13])
    rings = [star_ring(rng) for _ in range(int(rng.integers(2, 6)))]
    own = [point_array(clip_centres(ring, rng)) for ring in rings]
    shared = np.concatenate(own)
    for h in (0.05, 0.7, float(rng.uniform(0.2, 2.0)), 12.0):
        assert_joint_clip_matches(rings, [shared] * len(rings), h)
        assert_joint_clip_matches(rings, own, h)


@pytest.mark.parametrize("seed", range(40))
def test_hexagon_clip_areas_match_scalar_on_star_rings(seed):
    rng = np.random.default_rng([seed, 7])
    ring = star_ring(rng)
    # A small hexagon fits inside the ring; a large one holds all of it.
    for h in (0.05, 0.7, float(rng.uniform(0.2, 2.0)), 12.0):
        assert_clips_match(ring, clip_centres(ring, rng), h)


def test_subject_vertices_on_hexagon_edges():
    # Subject vertices are the hexagon's own vertices and points of its
    # edges, so some orientations are exactly 0.0; some vertices repeat and
    # some are collinear.
    h, centre = 1.0, Point(0.25, -0.5)
    hexagon = hexagon_ring(centre, h)
    edge_points = [
        Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        for a, b in ring_edges(hexagon)
        for t in (0.25, 0.5)
    ]
    subjects = [
        hexagon,
        [*hexagon[:3], hexagon[2], *hexagon[3:]],
        edge_points,
        # Outside the hexagon, one edge on a hexagon edge.
        [hexagon[0], Point(hexagon[0].x + 2.0, hexagon[0].y - 1.0), hexagon[5]][::-1],
        # The hexagon's box, corners and edge midpoints.
        counterclockwise([Point(-0.75, -1.5), Point(1.25, -1.5), Point(1.25, 0.5),
                          Point(0.25, 0.5), Point(-0.75, 0.5)]),
    ]
    zero_sides = 0
    for ring in subjects:
        assert ring_signed_area(ring) > 0
        for a, b in ring_edges(hexagon):
            ex, ey = b[0] - a[0], b[1] - a[1]
            zero_sides += any(ex * (y - a[1]) - ey * (x - a[0]) == 0.0 for x, y in ring)
        shifted = [centre, Point(centre.x + 1.5 * h, centre.y), Point(centre.x, centre.y + h)]
        assert_clips_match(ring, shifted + list(ring), h)
    assert zero_sides >= 12


@pytest.mark.parametrize("seed", range(10))
def test_collinear_and_repeated_subject_vertices(seed):
    rng = np.random.default_rng([seed, 11])
    ring = star_ring(rng)
    padded = []
    for (x0, y0), (x1, y1) in ring_edges(ring):
        padded.append(Point(x0, y0))
        if rng.uniform() < 0.3:
            padded.append(Point(x0, y0))
        if rng.uniform() < 0.5:
            padded.append(Point(0.5 * (x0 + x1), 0.5 * (y0 + y1)))
    assert_clips_match(padded, clip_centres(padded, rng), 0.8)


def test_rows_that_empty_mid_clip_or_end_short():
    # Thin slivers and triangles touching the hexagon from outside lose
    # every vertex after a later stage for some centres. A clip stage turns
    # a ring of 3 or more vertices into none or into 3 or more, so only a
    # subject of 1 or 2 vertices ends the clip with 1 or 2.
    rng = np.random.default_rng(5)
    h = 1.0
    emptied_mid, short = 0, 0
    subjects = [
        [Point(-3.0, 0.0), Point(3.0, -0.01), Point(3.0, 0.01)],
        [Point(1.0, 0.0), Point(3.0, -1.0), Point(3.0, 1.0)],
        [Point(0.5, 0.8660254037844386), Point(-0.5, 3.0), Point(1.5, 3.0)],
        [Point(0.1, 0.2)],
        [Point(-0.3, 0.1), Point(0.4, -0.2)],
        [Point(-2.0, 0.1), Point(2.0, -0.2)],
    ]
    for ring in subjects:
        ring = counterclockwise(ring)
        centres = [Point(0.0, 0.0), *ring, *(
            Point(float(x), float(y)) for x, y in rng.uniform(-3.0, 3.0, (200, 2))
        )]
        for c in centres:
            rings = clip_rings(ring, hexagon_ring(c, h))
            emptied_mid += len(rings) < 6 and len(rings) > 1
            short += len(rings) == 6 and 0 < len(rings[-1]) < 3
        assert_clips_match(ring, centres, h)
    assert emptied_mid > 0 and short > 0


def test_free_overlap_areas_with_clipped_holes():
    outer = tuple(star_ring(np.random.default_rng(3)))
    box = lambda x, y, d: (Point(x, y), Point(x, y + d), Point(x + d, y + d), Point(x + d, y))
    cx = sum(p.x for p in outer) / len(outer)
    cy = sum(p.y for p in outer) / len(outer)
    poly = PolygonWithHoles(outer, (box(cx - 0.4, cy - 0.4, 0.5), box(cx + 0.2, cy, 0.3)))
    poly.validate()
    rng = np.random.default_rng(4)
    centres = [Point(cx, cy), *poly.holes[0], *poly.holes[1], *outer] + [
        Point(float(x), float(y)) for x, y in rng.uniform(cx - 2.0, cx + 2.0, (60, 2))
    ]
    rings = [outer, *(counterclockwise(list(reversed(hole))) for hole in poly.holes)]
    # A second polygon with no holes and cells of its own shares the call.
    other = PolygonWithHoles(tuple(star_ring(np.random.default_rng(5))), ())
    other_centres = clip_centres(other.outer, rng)
    for h in (0.2, 0.6):
        got, got_other = free_overlap_areas(
            [point_array(centres), point_array(other_centres)], h, [poly, other]
        )
        assert got.tolist() == [free_overlap_area(c, h, poly) for c in centres]
        assert got_other.tolist() == [free_overlap_area(c, h, other) for c in other_centres]
        assert_joint_clip_matches(rings, [point_array(centres)] * len(rings), h)


def test_every_candidate_cell_of_pipeline_seeds(monkeypatch):
    # One clip call per block of seeds decides every cell; no centre test does.
    calls = []
    real = graphbuild.free_overlap_areas

    def record(centers, h, polygons):
        areas = real(centers, h, polygons)
        calls.append((centers, h, polygons, areas))
        return areas

    def no_centre_test(*args):
        raise AssertionError("tessellate decided a cell by its centre")

    monkeypatch.setattr(graphbuild, "free_overlap_areas", record)
    monkeypatch.setattr(graphbuild, "points_in_ring", no_centre_test)
    config = GenerationConfig()
    h, size = config.hex_radius, graphbuild.BLOCK_SEEDS
    for start in range(0, 200, size):
        lattices = []
        for seed in range(start, start + size):
            polygon = sample_aoi(choose_family(seed, config), seed, config.scale)
            polygon = insert_obstacles(polygon, seed)
            rect = min_rotated_rect(polygon.outer)
            lattices.append(graphbuild.lattice_candidates(polygon, rect, h))
        graphbuild.tessellate(lattices, h)
    assert len(calls) == 200 // size
    polygons = [poly for _, _, polys, _ in calls for poly in polys]
    assert len(polygons) == 200
    assert sum(bool(poly.holes) for poly in polygons) >= 120
    for centers, h, polys, areas in calls:
        rings, ring_centers = [], []
        for cells, poly, got in zip(centers, polys, areas):
            want = [free_overlap_area(Point(x, y), h, poly) for x, y in cells.tolist()]
            assert got.tolist() == want
            holes = [counterclockwise(list(reversed(hole))) for hole in poly.holes]
            rings += [counterclockwise(poly.outer), *holes]
            ring_centers += [cells] * (1 + len(holes))
        # The pass's one kernel call gives each ring the areas of a call of its own.
        assert_joint_clip_matches(rings, ring_centers, h)


# ---------------------------------------------------------------------------
# Hole clearance


def pipeline_shapes(seeds=range(200)):
    config = GenerationConfig()
    for seed in seeds:
        yield seed, sample_aoi(choose_family(seed, config), seed, config.scale)


def min_distance(points, ring) -> float:
    return min(_dist_point_segment(p, a, b) for p in points for a, b in ring_edges(ring))


def test_closer_than_matches_minimum_distance():
    # The array pass must decide `min(distance) < clearance` over every
    # (point, edge) pair, also at a clearance equal to the minimum or one
    # float above it.
    rng = np.random.default_rng(9)
    for seed, polygon in pipeline_shapes(range(12)):
        polygon = insert_obstacles(polygon, seed)
        outer = polygon.outer
        pad = 1e-9 * (1.0 + max(abs(v) for p in outer for v in p))
        xs, ys = [p.x for p in outer], [p.y for p in outer]
        for ring in (outer, *polygon.holes):
            pair = (ring, ring_array(ring))
            for m in (1, 3, 14):
                for _ in range(10):
                    pts = [
                        Point(float(x), float(y))
                        for x, y in rng.uniform((min(xs), min(ys)), (max(xs), max(ys)), (m, 2))
                    ]
                    d = min_distance(pts, ring)
                    for c in (0.05, 0.4, 1.0, d, math.nextafter(d, math.inf)):
                        assert _closer_than((pts, ring_array(pts)), pair, c, pad) == (d < c)


def test_hole_admissible_matches_scalar_on_pipeline_candidates(monkeypatch):
    # Every candidate hole of seeds 0-199 that the outer-ring screen passes,
    # at the pipeline's clearance and at the candidate's own least
    # vertex-edge distance d and the float above it, where the decision
    # flips. The reference tests containment too, which these candidates pass.
    calls = []
    real = aoi._hole_admissible

    def record(candidate, outer, holes, clearance, pad):
        admitted = real(candidate, outer, holes, clearance, pad)
        calls.append((candidate, outer, list(holes), clearance, pad, admitted))
        return admitted

    monkeypatch.setattr(aoi, "_hole_admissible", record)
    for seed, polygon in pipeline_shapes():
        insert_obstacles(polygon, seed)
    admitted, flips = 0, 0
    for candidate, outer, holes, clearance, pad, got in calls:
        assert got == hole_admissible(candidate, outer, holes, clearance, pad)
        admitted += got
        d = min(min_distance(candidate[0], ring) for ring, _ in (outer, *holes))
        at_d = []
        for c in (d, math.nextafter(d, math.inf)):
            want = hole_admissible(candidate, outer, holes, c, pad)
            assert real(candidate, outer, holes, c, pad) == want
            at_d.append(want)
        flips += at_d == [True, False]
    assert len(calls) > 300 and 100 < admitted < len(calls)
    assert flips > 100


def ref_insert_obstacles(polygon, seed):
    """insert_obstacles drawing and testing one attempt at a time: its scalar
    draws, then the whole hole test, containment included."""
    rng = aoi.substream(seed, aoi.STREAM_HOLES)
    count = int(rng.choice(4, p=aoi._HOLE_COUNT_WEIGHTS))
    if count == 0:
        return polygon
    outer = polygon.outer
    cell_proxy = math.sqrt(ring_signed_area(outer) / (math.pi * 30.0))
    xs = [p.x for p in outer]
    ys = [p.y for p in outer]
    outer_pair = (outer, ring_array(outer))
    holes = [(hole, ring_array(hole)) for hole in polygon.holes]
    clearance = 0.65 * cell_proxy
    pad = 1e-9 * (clearance + max(map(abs, xs + ys)))
    for _ in range(count):
        for _attempt in range(aoi._HOLE_RETRIES):
            cells_eaten = rng.uniform(1.0, 3.2)
            rho = math.sqrt(cells_eaten * hexgeom.hexagon_area(cell_proxy) / math.pi)
            cx = rng.uniform(min(xs), max(xs))
            cy = rng.uniform(min(ys), max(ys))
            wobble = rng.uniform(0.88, 1.12, aoi._HOLE_VERTICES).tolist()
            ring = tuple(
                Point(cx + rho * w * ux, cy + rho * w * uy)
                for w, (ux, uy) in zip(wobble, aoi._HOLE_DIRECTIONS)
            )
            candidate = (ring, ring_array(ring))
            if hole_admissible(candidate, outer_pair, holes, clearance, pad):
                holes.append(candidate)
                break
    if len(holes) == len(polygon.holes):
        return polygon
    return PolygonWithHoles(outer, tuple(hole for hole, _ in holes))


def shape_fields(polygon):
    """Every hole vertex and the morphology of `polygon`, floats as float.hex."""
    m = morphology_of(polygon)
    holes = [hexes(v for p in hole for v in p) for hole in polygon.holes]
    return holes, m.label, m.compactness.hex(), m.aspect.hex()


def test_insert_obstacles_matches_one_attempt_at_a_time():
    counts = [0, 0, 0, 0]
    for seed, polygon in pipeline_shapes(range(1000)):
        got = insert_obstacles(polygon, seed)
        assert shape_fields(got) == shape_fields(ref_insert_obstacles(polygon, seed))
        counts[len(got.holes)] += 1
    # Every hole count occurs, and some seeds place fewer holes than drawn.
    assert min(counts) > 50


@pytest.mark.parametrize("seed", [0, 1, 2**64 + 5])
def test_one_uniform_draw_equals_scalar_draws(seed):
    # Row by row, one call with per-column bounds draws what the scalar
    # calls of each attempt draw in turn, on the Philox streams of each stage.
    width = 3 + aoi._HOLE_VERTICES
    for stage in range(4):
        bounds = np.random.default_rng([seed % 97, stage]).uniform(-50.0, 50.0, (2, 3))
        lows = [1.0, float(bounds[0].min()), float(bounds[1].min())] + [0.88] * (width - 3)
        highs = [3.2, float(bounds[0].max()), float(bounds[1].max())] + [1.12] * (width - 3)
        batched = aoi.substream(seed, stage).uniform(lows, highs, size=(12, width))
        rng = aoi.substream(seed, stage)
        scalar = []
        for _ in range(12):
            scalar += [rng.uniform(lows[k], highs[k]) for k in range(3)]
            scalar += rng.uniform(0.88, 1.12, width - 3).tolist()
        assert hexes(batched.ravel()) == hexes(scalar)


# ---------------------------------------------------------------------------
# Calipers


def rect_fields(rect):
    """Every float of a MinRotatedRect, as float.hex, so -0.0 is not 0.0."""
    return [float(v).hex() for v in (*rect.center, *rect.axis, rect.long_side, rect.short_side)]


def assert_rects_match(points):
    assert rect_fields(min_rotated_rect(points)) == rect_fields(
        scalar_min_rotated_rect(points)
    )


def test_min_rotated_rect_matches_scalar_on_pipeline_rings():
    for seed, polygon in pipeline_shapes():
        assert_rects_match(polygon.outer)
        for hole in insert_obstacles(polygon, seed).holes:
            assert_rects_match(hole)


def test_min_rotated_rect_ties_keep_the_first_edge():
    # Every edge of a square gives the same area, and each would give the
    # square another axis: (1, 0), (0, 1), (1, -0.0) or (-0.0, 1).
    for x0, y0, w, h in ((0.0, 0.0, 1.0, 1.0), (-0.5, -0.5, 1.0, 1.0), (0.1, 0.3, 2.0, 2.0),
                         (-3.0, 1.0, 3.0, 1.0), (2.0, -1.0, 1.0, 3.0), (-0.1, -0.2, 0.2, 0.4)):
        ring = [Point(x0, y0), Point(x0 + w, y0), Point(x0 + w, y0 + h), Point(x0, y0 + h)]
        areas = [
            (smax - smin) * (tmax - tmin)
            for _, (smin, smax, tmin, tmax) in caliper_extremes(convex_hull(ring))
        ]
        assert areas.count(min(areas)) >= 2
        assert_rects_match(ring)
    square = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
    assert min_rotated_rect(square).axis == (1.0, 0.0)


def test_min_rotated_rect_with_signed_zero_vertices():
    # Vertices at +-0.0 project to zeros of either sign; the extremes of
    # some edge are -0.0, yet the rectangle is the scalar one bit for bit.
    z, nz = 0.0, -0.0
    rings = [
        [Point(a, b), Point(1.0, c), Point(1.0, 1.0), Point(d, 1.0)]
        for a in (z, nz) for b in (z, nz) for c in (z, nz) for d in (z, nz)
    ]
    rings += [
        [Point(1.0, a), Point(b, 1.0), Point(-1.0, c), Point(d, -1.0)]
        for a in (z, nz) for b in (z, nz) for c in (z, nz) for d in (z, nz)
    ]
    rings += [[Point(-2.0, nz), Point(nz, -1.0), Point(2.0, z), Point(z, 1.0), Point(nz, 0.5)]]
    negative_zero_extremes = 0
    for ring in rings:
        for _, extremes in caliper_extremes(convex_hull(ring)):
            negative_zero_extremes += any(math.copysign(1.0, v) < 0 for v in extremes if v == 0)
        assert_rects_match(ring)
        assert_rects_match(ring[::-1])
    assert negative_zero_extremes > 0
