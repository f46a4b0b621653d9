import builtins
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import face_neighbors
from test_array_forms import clip_area_convex, free_overlap_area, point_in_ring

from hexcover.aoi import FAMILIES, insert_obstacles, sample_aoi
from hexcover.graphbuild import GenerationConfig, build_instance, choose_family
from hexcover.hexgeom import (
    GEOM_TOL,
    PolygonWithHoles,
    convex_hull,
    hexagon_area,
    hexagon_ring,
    min_rotated_rect,
    polygon_metrics,
    ring_signed_area,
)
from hexcover.lattice import (
    SQRT3,
    InvalidGeometryError,
    InvalidParameterError,
    OffsetCoord,
    Point,
    offset_to_center,
)
from hexcover.planners import _centroid


def square_ring(w=1.0, h=1.0, x0=0.0, y0=0.0):
    return (Point(x0, y0), Point(x0 + w, y0), Point(x0 + w, y0 + h), Point(x0, y0 + h))


def patch_coords(cols, rows):
    return [OffsetCoord(c, r) for c in range(cols) for r in range(rows)]


def dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


class TestLattice:
    def test_origin_cell_maps_to_origin(self):
        assert offset_to_center(OffsetCoord(0, 0), 1.0) == (0.0, 0.0)

    def test_rejects_nonpositive_circumradius(self):
        with pytest.raises(InvalidParameterError):
            offset_to_center(OffsetCoord(0, 0), 0.0)
        with pytest.raises(InvalidParameterError):
            offset_to_center(OffsetCoord(1, 1), -2.0)

    def test_column_pitch(self):
        # Frozen after checking against the adjacency-distance oracle below:
        # two columns over equals 3.0 for h=1.
        c = offset_to_center(OffsetCoord(2, 0), 1.0)
        assert c.x == pytest.approx(3.0, abs=GEOM_TOL)
        assert c.y == pytest.approx(0.0, abs=GEOM_TOL)

    def test_adjacency_distance_oracle_8x8(self):
        # Oracle: direct Euclidean distances across an 8x8 patch. Face
        # neighborship must coincide with centre distance sqrt(3)*h.
        h = 1.0
        coords = patch_coords(8, 8)
        centers = {c: offset_to_center(c, h) for c in coords}
        expected = SQRT3 * h
        for a in coords:
            nbrs = set(face_neighbors(a))
            for b in coords:
                if a == b:
                    continue
                d = dist(centers[a], centers[b])
                if b in nbrs:
                    assert d == pytest.approx(expected, rel=1e-9)
                else:
                    assert abs(d - expected) > 1e-6

    def test_six_distinct_neighbors(self):
        for c in patch_coords(6, 6):
            nbrs = face_neighbors(c)
            assert len(nbrs) == 6
            assert len(set(nbrs)) == 6
            assert c not in nbrs

    def test_neighbor_symmetry_6x6(self):
        coords = patch_coords(6, 6)
        for a in coords:
            for b in coords:
                assert (b in face_neighbors(a)) == (a in face_neighbors(b))

    def test_same_column_vertical_neighbor(self):
        assert OffsetCoord(0, 1) in face_neighbors(OffsetCoord(0, 0))

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_neighbors_at_lattice_distance(self, col, row):
        h = 0.75
        a = OffsetCoord(col, row)
        pa = offset_to_center(a, h)
        for b in face_neighbors(a):
            assert dist(pa, offset_to_center(b, h)) == pytest.approx(SQRT3 * h, rel=1e-9)
            assert a in face_neighbors(b)


class TestHexVertices:
    def test_angle_zero_vertex(self):
        vx = hexagon_ring(Point(0.0, 0.0), 1.0)
        assert vx[0] == pytest.approx((1.0, 0.0), abs=GEOM_TOL)

    def test_all_vertices_on_circumcircle(self):
        center = Point(2.0, -1.0)
        for v in hexagon_ring(center, 1.0):
            assert dist(v, center) == pytest.approx(1.0, abs=GEOM_TOL)

    def test_edge_length_equals_circumradius(self):
        # Regular hexagon: side equals circumradius.
        vx = hexagon_ring(Point(0.0, 0.0), 1.0)
        for i in range(6):
            assert dist(vx[i], vx[(i + 1) % 6]) == pytest.approx(1.0, abs=GEOM_TOL)

    def test_counterclockwise(self):
        assert ring_signed_area(hexagon_ring(Point(0.0, 0.0), 2.0)) > 0


class TestPolygonMetrics:
    def test_unit_square(self):
        p = PolygonWithHoles(square_ring())
        area, per = polygon_metrics(p)
        aspect = min_rotated_rect(p.outer).aspect
        assert area == pytest.approx(1.0, abs=GEOM_TOL)
        assert per == pytest.approx(4.0, abs=GEOM_TOL)
        assert aspect == pytest.approx(1.0, abs=GEOM_TOL)

    def test_three_by_one_rectangle(self):
        p = PolygonWithHoles(square_ring(3.0, 1.0))
        area, per = polygon_metrics(p)
        aspect = min_rotated_rect(p.outer).aspect
        assert area == pytest.approx(3.0, abs=GEOM_TOL)
        assert per == pytest.approx(8.0, abs=GEOM_TOL)
        assert aspect == pytest.approx(3.0, abs=GEOM_TOL)

    def test_regular_64gon_approximates_circle(self):
        # Oracle: analytic area of a regular n-gon, (n/2) R^2 sin(2 pi / n).
        n = 64
        ring = tuple(
            Point(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)
        )
        expected_area = 0.5 * n * math.sin(2 * math.pi / n)
        area, per = polygon_metrics(PolygonWithHoles(ring))
        aspect = min_rotated_rect(ring).aspect
        assert area == pytest.approx(expected_area, rel=1e-12)
        assert area < math.pi
        assert aspect == pytest.approx(1.0, abs=1e-2)

    def test_hole_reduces_area_but_not_perimeter(self):
        outer = square_ring(4.0, 4.0)
        hole = tuple(reversed(square_ring(1.0, 1.0, 1.5, 1.5)))
        p = PolygonWithHoles(outer, (hole,))
        p.validate()
        area, per = polygon_metrics(p)
        assert area == pytest.approx(15.0, abs=GEOM_TOL)
        assert per == pytest.approx(16.0, abs=GEOM_TOL)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(InvalidGeometryError):
            PolygonWithHoles((Point(0, 0), Point(1, 0), Point(2, 0)))

    def test_orientation_enforced(self):
        with pytest.raises(InvalidGeometryError):
            PolygonWithHoles(tuple(reversed(square_ring())))
        with pytest.raises(InvalidGeometryError):
            PolygonWithHoles(square_ring(4, 4), (square_ring(1, 1, 1, 1),))

    def test_nan_rejected(self):
        with pytest.raises(InvalidGeometryError):
            PolygonWithHoles((Point(0, 0), Point(1, 0), Point(float("nan"), 1)))


class TestMinRotatedRect:
    def test_axis_aligned_rectangle(self):
        rect = min_rotated_rect(square_ring(3.0, 1.0))
        assert rect.long_side == pytest.approx(3.0, abs=GEOM_TOL)
        assert rect.short_side == pytest.approx(1.0, abs=GEOM_TOL)
        assert abs(rect.axis.y) == pytest.approx(0.0, abs=GEOM_TOL)

    def test_rotated_rectangle_recovered(self):
        ang = 0.35
        ca, sa = math.cos(ang), math.sin(ang)
        pts = [Point(ca * x - sa * y, sa * x + ca * y) for x, y in square_ring(5.0, 2.0)]
        rect = min_rotated_rect(pts)
        assert rect.long_side == pytest.approx(5.0, rel=1e-9)
        assert rect.short_side == pytest.approx(2.0, rel=1e-9)
        assert rect.angle == pytest.approx(ang, abs=1e-9)

    def test_contains_all_points_and_beats_sweep_oracle(self):
        # Oracle: 1-degree rotation sweep of axis-aligned bounding boxes.
        pts = [
            Point(0.0, 0.0),
            Point(4.0, 1.0),
            Point(5.0, 3.5),
            Point(1.0, 4.0),
            Point(-1.0, 2.0),
            Point(2.5, -0.5),
        ]
        rect = min_rotated_rect(pts)
        area = rect.long_side * rect.short_side
        sweep_best = math.inf
        for deg in range(180):
            a = math.radians(deg)
            ca, sa = math.cos(a), math.sin(a)
            ss = [x * ca + y * sa for x, y in pts]
            ts = [-x * sa + y * ca for x, y in pts]
            sweep_best = min(sweep_best, (max(ss) - min(ss)) * (max(ts) - min(ts)))
        assert area <= sweep_best + 1e-9
        # Every point inside the rectangle (within tolerance).
        ax, ay = rect.axis
        for x, y in pts:
            dx, dy = x - rect.center.x, y - rect.center.y
            s = dx * ax + dy * ay
            t = -dx * ay + dy * ax
            assert abs(s) <= rect.long_side / 2 + 1e-9
            assert abs(t) <= rect.short_side / 2 + 1e-9

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False, width=32),
                st.floats(-10, 10, allow_nan=False, width=32),
            ),
            min_size=3,
            max_size=9,
            unique=True,
        )
    )
    def test_sweep_oracle_random(self, raw):
        pts = [Point(float(x), float(y)) for x, y in raw]
        if len(convex_hull(pts)) < 3:
            return
        rect = min_rotated_rect(pts)
        area = rect.long_side * rect.short_side
        for deg in range(0, 180, 2):
            a = math.radians(deg)
            ca, sa = math.cos(a), math.sin(a)
            ss = [x * ca + y * sa for x, y in pts]
            ts = [-x * sa + y * ca for x, y in pts]
            assert area <= (max(ss) - min(ss)) * (max(ts) - min(ts)) + 1e-7
        assert rect.aspect >= 1.0

    def test_list_and_tuple_input_agree(self):
        # Any sequence of the same points, and any repeat of a call, gives
        # the same rectangle: nothing is kept between calls.
        for seed in range(20):
            ring = sample_aoi(FAMILIES[seed % 3], seed, 1.0).outer
            fresh = min_rotated_rect(list(ring))
            assert min_rotated_rect(ring) == fresh
            assert min_rotated_rect(ring) == fresh
            assert min_rotated_rect(tuple(list(ring))) == fresh
            assert min_rotated_rect(list(ring)) == fresh


def hexagon_slice_area_right_of(t: float) -> float:
    """Analytic area of the unit flat-top hexagon right of the line x = t."""
    total = hexagon_area(1.0)
    if t <= -1.0:
        return total
    if t >= 1.0:
        return 0.0
    if t >= 0.5:
        return SQRT3 * (1.0 - t) ** 2
    if t >= -0.5:
        return SQRT3 * (0.5 - t) + SQRT3 / 4.0
    return total - SQRT3 * (1.0 + t) ** 2


class TestClipping:
    def test_full_containment(self):
        hexagon = hexagon_ring(Point(0, 0), 1.0)
        big = square_ring(10, 10, -5, -5)
        assert clip_area_convex(big, hexagon) == pytest.approx(hexagon_area(1.0), rel=1e-12)

    def test_disjoint(self):
        hexagon = hexagon_ring(Point(0, 0), 1.0)
        far = square_ring(1, 1, 5, 5)
        assert clip_area_convex(far, hexagon) == 0.0

    @pytest.mark.parametrize("t", [-0.9, -0.5, -0.2, 0.0, 0.3, 0.5, 0.8])
    def test_halfplane_slice_matches_analytic_oracle(self, t):
        hexagon = hexagon_ring(Point(0, 0), 1.0)
        slab = square_ring(10.0, 10.0, t, -5.0)
        got = clip_area_convex(slab, hexagon)
        assert got == pytest.approx(hexagon_slice_area_right_of(t), rel=1e-10)

    def test_free_overlap_subtracts_holes(self):
        outer = square_ring(10, 10, -5, -5)
        hole = tuple(reversed(square_ring(0.6, 0.6, -0.3, -0.3)))
        poly = PolygonWithHoles(outer, (hole,))
        got = free_overlap_area(Point(0, 0), 1.0, poly)
        assert got == pytest.approx(hexagon_area(1.0) - 0.36, rel=1e-10)

    def test_point_in_ring(self):
        ring = square_ring(2, 2)
        assert point_in_ring(Point(1, 1), ring)
        assert not point_in_ring(Point(3, 1), ring)


# ---------------------------------------------------------------------------
# Float sums

REAL_SUM = builtins.sum


def plain_sum(values) -> float:
    """Left to right from 0.0: Python 3.11's sum() of floats."""
    total = 0.0
    for v in values:
        total += v
    return total


def compensated_sum(values, start=0):
    """sum() as Python 3.12 and later compute it for floats: Neumaier's
    compensated sum. Any other input is summed as before."""
    values = list(values)
    if not values or not all(type(v) is float for v in values):
        return REAL_SUM(values, start)
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


def test_float_sums_do_not_depend_on_builtin_sum(monkeypatch):
    # The hole areas behind compactness and the spiral planners' centroids
    # must round the same on every Python version, so they may not use sum().
    config = GenerationConfig()
    polygons, graphs = [], []
    for seed in (251, 277):
        family = choose_family(seed, config)
        polygons.append(insert_obstacles(sample_aoi(family, seed, config.scale), seed))
        graphs.append(build_instance(family, seed, config).graph)
    # Hole areas -1, -1e-16 and -1e-16: 3.11 drops both small ones.
    tiny = (Point(0.5, 0.5), Point(0.5, 0.50000001), Point(0.50000002, 0.5))
    polygons.append(PolygonWithHoles(
        square_ring(2.0, 1.0), (tuple(reversed(square_ring(0.5, 2.0))), tiny, tiny)
    ))
    graphs.append(SimpleNamespace(positions=[Point(1e16, 0.0), Point(1.0, 1.0), Point(-1e16, 2.0)]))
    cell_sets = [[range(g.n), sorted(range(0, g.n, 3)), [g.n - 1, 0]] for g in graphs[:2]]
    cell_sets.append([range(3)])

    def hole_sums(poly):
        return [f([ring_signed_area(h) for h in poly.holes]) for f in (plain_sum, compensated_sum)]

    def centroid_sums(g, cells):
        return [(f(g.positions[i][0] for i in cells), f(g.positions[i][1] for i in cells))
                for f in (plain_sum, compensated_sum)]

    # The compensated sum rounds every case differently somewhere.
    for poly in polygons:
        want, other = hole_sums(poly)
        assert want.hex() != other.hex()
    for g, sets in zip(graphs, cell_sets):
        assert any(len(set(centroid_sums(g, cells))) == 2 for cells in sets)

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for poly in polygons:
        area, _ = polygon_metrics(poly)
        assert area.hex() == (ring_signed_area(poly.outer) + hole_sums(poly)[0]).hex()
    for g, sets in zip(graphs, cell_sets):
        for cells in sets:
            sx, sy = centroid_sums(g, cells)[0]
            got = _centroid(g, cells)
            assert [v.hex() for v in got] == [(sx / len(cells)).hex(), (sy / len(cells)).hex()]
