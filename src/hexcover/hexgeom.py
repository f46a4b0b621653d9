"""Planar polygon primitives and hexagon clipping for generation.

The lattice convention, the cell and point types and the neighbour tables
live in `hexcover.lattice`, the instance model every command reads; this
module holds the geometry only `generate` runs (rings and the one
segment-crossing kernel they share, hulls, the minimum rotated rectangle
and the hexagon clip), so `audit`, `run` and `report` never import it.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from hexcover.lattice import SQRT3, InvalidGeometryError, Point

# Absolute geometric tolerance in a unit-normalized frame (h on the order of 1).
GEOM_TOL = 1e-9


# Unit-circle vertex directions, k * 60 degrees for k = 0..5.
_HEX_UNIT = tuple((math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6))


def hexagon_ring(center: Point, h: float) -> list[Point]:
    """The 6 vertices of a flat-top hexagon in counterclockwise order, first
    vertex at angle 0."""
    cx, cy = center
    return [Point(cx + h * ux, cy + h * uy) for ux, uy in _HEX_UNIT]


HEX_AREA_UNIT = 1.5 * SQRT3  # area of a hexagon with circumradius 1


def hexagon_area(h: float) -> float:
    return HEX_AREA_UNIT * h * h


# ---------------------------------------------------------------------------
# Ring primitives


def ring_edges(ring: Sequence[Point]):
    """The edges (ring[i], ring[i + 1]) for i = 0..n-1, in order; the last
    one closes the ring."""
    return zip(ring, ring[1:] + ring[:1])


def ring_signed_area(ring: Sequence[Point]) -> float:
    """Shoelace signed area; positive for counterclockwise rings."""
    acc = 0.0
    for (x0, y0), (x1, y1) in ring_edges(ring):
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def ring_perimeter(ring: Sequence[Point]) -> float:
    acc = 0.0
    for (x0, y0), (x1, y1) in ring_edges(ring):
        acc += math.hypot(x1 - x0, y1 - y0)
    return acc


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


# ---------------------------------------------------------------------------
# Array forms of the ring predicates
#
# Each one evaluates a scalar test over whole numpy arrays: every element is
# the scalar expression over the same operands in the same order, and only
# boolean results are reduced (any, all, parity), so every orientation,
# crossing parameter and parity matches the scalar test bit for bit. The
# scalar tests that no caller needs any more are kept in the tests as the
# reference. numpy is imported inside the functions that call it, so that
# importing this module does not load it.


def point_array(points: Sequence[Point]):
    """The points as a float array of shape (m, 2)."""
    import numpy as np

    # A flat list converts several times faster than a list of Points.
    return np.array([v for p in points for v in p], dtype=float).reshape(-1, 2)


def ring_array(ring: Sequence[Point]):
    """The ring as a float array of shape (n + 1, 2) whose last row repeats
    the first: rows i and i + 1 are edge i of ring_edges. The array forms
    take rings in this form, so a ring tested many times is converted once."""
    return point_array([*ring, ring[0]])


def segment_crossings(starts, ends, ring):
    """Which edges of ring array `ring` the open segment from each row of
    `starts` to the same row of `ends` properly crosses, as a boolean (k, n)
    mask, and the orientations d0, d1 of each segment's ends about each edge;
    a one-row `starts` starts every segment. Where the mask is set, the
    crossing lies at d0 / (d0 - d1) along the segment, which only the sight
    lines need, so the simplicity checks do not pay for it."""
    x0, y0 = starts[:, 0, None], starts[:, 1, None]
    x1, y1 = ends[:, 0, None], ends[:, 1, None]
    ax, ay, bx, by = ring[:-1, 0], ring[:-1, 1], ring[1:, 0], ring[1:, 1]
    # The orientations of the segment's ends about each edge, then of each
    # edge's ends about the segment.
    ex, ey = bx - ax, by - ay
    d0 = ex * (y0 - ay) - ey * (x0 - ax)
    d1 = ex * (y1 - ay) - ey * (x1 - ax)
    px, py = x1 - x0, y1 - y0
    e0 = px * (ay - y0) - py * (ax - x0)
    e1 = px * (by - y0) - py * (bx - x0)
    cross = ((d0 > 0) != (d1 > 0)) & (d0 != d1) & ((e0 > 0) != (e1 > 0)) & (e0 != e1)
    return cross, d0, d1


def points_in_ring(points, ring):
    """Even-odd rule test of each row of the (m, 2) array `points` against
    ring array `ring`; boundary points are undefined."""
    import numpy as np

    x, y = points[:, 0, None], points[:, 1, None]
    x0, y0, x1, y1 = ring[:-1, 0], ring[:-1, 1], ring[1:, 0], ring[1:, 1]
    straddles = (y0 > y) != (y1 > y)
    # Only a straddling edge is tested, and its y1 - y0 is never zero.
    frac = np.divide(y - y0, y1 - y0, out=np.zeros(straddles.shape), where=straddles)
    flips = straddles & (x < x0 + frac * (x1 - x0))
    return np.count_nonzero(flips, axis=1) % 2 == 1


def ring_is_simple(ring) -> bool:
    """Whether no two edges of ring array `ring` cross, adjacent ones aside."""
    import numpy as np

    cross = np.triu(segment_crossings(ring[:-1], ring[1:], ring)[0], 2)
    cross[0, -1] = False  # the first and the last edge meet at vertex 0
    return not cross.any()


class _PolygonRings(NamedTuple):
    outer: tuple[Point, ...]
    holes: tuple[tuple[Point, ...], ...] = ()


class PolygonWithHoles(_PolygonRings):
    """Simple outer ring (counterclockwise) with disjoint interior holes (clockwise)."""

    __slots__ = ()

    def __new__(cls, outer: tuple[Point, ...], holes: tuple[tuple[Point, ...], ...] = ()):
        for ring in (outer, *holes):
            for p in ring:
                if not (math.isfinite(p[0]) and math.isfinite(p[1])):
                    raise InvalidGeometryError("non-finite coordinate in ring")
        if len(outer) < 3:
            raise InvalidGeometryError("outer ring needs at least 3 vertices")
        if ring_signed_area(outer) <= 0:
            raise InvalidGeometryError("outer ring must be counterclockwise")
        for hole in holes:
            if len(hole) < 3 or ring_signed_area(hole) >= 0:
                raise InvalidGeometryError("holes must be clockwise rings")
        return super().__new__(cls, outer, holes)

    def validate(self) -> None:
        """Full structural check: simplicity, containment, hole disjointness."""
        outer = ring_array(self.outer)
        if not ring_is_simple(outer):
            raise InvalidGeometryError("outer ring self-intersects")
        holes = [ring_array(hole) for hole in self.holes]
        for hole in holes:
            if not ring_is_simple(hole):
                raise InvalidGeometryError("hole ring self-intersects")
            if not points_in_ring(hole[:-1], outer).all():
                raise InvalidGeometryError("hole vertex outside outer ring")
            if segment_crossings(hole[:-1], hole[1:], outer)[0].any():
                raise InvalidGeometryError("hole crosses outer ring")
        for i in range(len(holes)):
            for j in range(i + 1, len(holes)):
                if _rings_interact(holes[i], holes[j]):
                    raise InvalidGeometryError("holes are not pairwise disjoint")


def _rings_interact(a, b) -> bool:
    """Whether ring arrays `a` and `b` overlap: a vertex of one inside the
    other, or crossing edges."""
    return (
        points_in_ring(a[:-1], b).any()
        or points_in_ring(b[:-1], a).any()
        or segment_crossings(a[:-1], a[1:], b)[0].any()
    )


# ---------------------------------------------------------------------------
# Convex hull and minimum rotated rectangle


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Monotone-chain hull in counterclockwise order, collinear points dropped."""
    pts = sorted(set((float(p[0]), float(p[1])) for p in points))
    if len(pts) < 3:
        return [Point(*p) for p in pts]
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return [Point(*p) for p in lower[:-1] + upper[:-1]]


class MinRotatedRect(NamedTuple):
    center: Point
    axis: Point  # unit direction of the long side, angle normalized to [0, pi)
    long_side: float
    short_side: float

    @property
    def aspect(self) -> float:
        if self.short_side <= 0:
            raise InvalidGeometryError("degenerate rectangle has no aspect ratio")
        return self.long_side / self.short_side

    @property
    def angle(self) -> float:
        return math.atan2(self.axis[1], self.axis[0])


def min_rotated_rect(points: Sequence[Point]) -> MinRotatedRect:
    """Minimum-area enclosing rectangle via rotating calipers on the hull.

    Deterministic: ties on area keep the first hull edge in hull order.
    Generation computes it once per seed, of the final polygon's outer ring,
    and hands it to the morphology label and the lattice frame.
    """
    import numpy as np

    hull = convex_hull(points)
    if len(hull) < 3:
        raise InvalidGeometryError("rotated rectangle needs non-collinear input")
    # The unit direction of every hull edge, in hull order.
    dirs = []
    for (px, py), (qx, qy) in ring_edges(hull):
        ex, ey = qx - px, qy - py
        norm = math.hypot(ex, ey)
        if norm != 0:
            dirs.append((ex / norm, ey / norm))
    # Row k holds the projections of every hull point on edge direction k
    # and on its normal, each the scalar expression. A min or max of floats
    # is exact in any order but for the sign of a zero, and a zero extreme
    # is only ever added to or subtracted from the other, non-zero one (a
    # hull's projections are never all equal), where its sign cannot show.
    u = np.array(dirs)
    ux, uy = u[:, 0, None], u[:, 1, None]
    x, y = point_array(hull).T
    ss = x * ux + y * uy
    ts = -x * uy + y * ux
    smin, smax, tmin, tmax = ss.min(axis=1), ss.max(axis=1), ts.min(axis=1), ts.max(axis=1)
    area = (smax - smin) * (tmax - tmin)
    # argmin keeps the first of equal areas: ties go to the first edge.
    k = int(np.argmin(area))
    ux, uy = dirs[k]
    smin, smax, tmin, tmax = (float(v[k]) for v in (smin, smax, tmin, tmax))
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


def polygon_metrics(p: PolygonWithHoles) -> tuple[float, float]:
    """(area, perimeter).

    Area subtracts holes; perimeter comes from the outer ring alone, so hole
    insertion never alters the outline's compactness input. The aspect ratio
    is the outer ring's `min_rotated_rect`, which the caller holds.
    """
    # The hole areas are added left to right from 0.0, not by sum(): from
    # Python 3.12 on, sum() of floats is compensated and may round differently.
    holes = 0.0
    for hole in p.holes:
        holes += ring_signed_area(hole)
    area = ring_signed_area(p.outer) + holes
    perimeter = ring_perimeter(p.outer)
    if area <= GEOM_TOL * GEOM_TOL or perimeter <= GEOM_TOL:
        raise InvalidGeometryError("degenerate polygon")
    return area, perimeter


# ---------------------------------------------------------------------------
# Hexagon clipping (cell/free-space overlap areas)
#
# Sutherland-Hodgman reentrant polygon clipping (Sutherland & Hodgman, CACM
# 17(1), 1974) of many rings, each against the hexagons of its own cells, at
# once. The vertices of every clipped ring sit in flat x/y arrays with a
# ring id per vertex, ring after ring. Each clip stage evaluates the scalar
# orientation and crossing expressions per vertex and compacts the output in
# ring order, so every clipped vertex is bit-identical to clipping one ring
# by one hexagon at a time. The shoelace sum is the one float reduction, and
# it runs one column at a time, in edge order, as ring_signed_area adds.


def _ring_layout(rid):
    """For flat ring storage with non-decreasing ring ids `rid`: the index
    of each vertex's successor in its own ring, and the index of each
    non-empty ring's first vertex and one past its last."""
    import numpy as np

    n = len(rid)
    new_ring = np.empty(n, dtype=bool)
    new_ring[:1] = True
    np.not_equal(rid[1:], rid[:-1], out=new_ring[1:])
    starts = np.flatnonzero(new_ring)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = n
    succ = np.arange(1, n + 1)
    succ[ends - 1] = starts
    return succ, starts, ends


def hexagon_clip_areas(rings: Sequence[Sequence[Point]], centers: Sequence, h: float) -> list:
    """Area of each counterclockwise ring of `rings` inside the hexagons of
    circumradius `h` at the rows of its own (m, 2) array of `centers`, as a
    list whose array r holds ring r's area in each of its hexagons.

    Every ring is clipped against every one of its hexagons in one pass: ring
    r's clip by its hexagon i has ring id o + i, where o counts the hexagons
    of the rings before it. A clipped ring of fewer than 3 vertices has area
    0.0, and a negative area of a degenerate output ring is taken as 0.0.
    """
    import numpy as np

    if not rings:
        return []
    subjects = [point_array(ring) for ring in rings]
    ms = [len(c) for c in centers]
    ids = sum(ms)
    # Each ring's vertices once per hexagon of its own, hexagon after hexagon.
    x, y = np.concatenate([np.tile(s, (m, 1)) for s, m in zip(subjects, ms)]).T
    rid = np.repeat(np.arange(ids), np.repeat([len(s) for s in subjects], ms))
    # The hexagon vertices as hexagon_ring computes them, once per ring id.
    cx, cy = np.concatenate(centers).T
    hx = [cx + h * ux for ux, _ in _HEX_UNIT]
    hy = [cy + h * uy for _, uy in _HEX_UNIT]
    for k in range(6):
        ax, ay = hx[k], hy[k]
        ex, ey = hx[(k + 1) % 6] - ax, hy[(k + 1) % 6] - ay
        # Gathered per vertex inside the expression, so that no array of one
        # value per vertex but `sides` outlives it.
        sides = ex[rid] * (y - ay[rid]) - ey[rid] * (x - ax[rid])
        succ, _, _ = _ring_layout(rid)
        succ_sides = sides[succ]
        keep = sides >= 0
        cross = keep != (succ_sides >= 0)
        # Each vertex emits itself if kept, then the point where its edge
        # crosses the clip line.
        emit = keep.astype(np.intp) + cross
        slot = np.cumsum(emit) - emit
        out_rid = np.repeat(rid, emit)
        out_x, out_y = np.empty(len(out_rid)), np.empty(len(out_rid))
        out_x[slot[keep]], out_y[slot[keep]] = x[keep], y[keep]
        p = np.flatnonzero(cross)
        q = succ[p]
        t = sides[p] / (sides[p] - succ_sides[p])
        at = slot[p] + keep[p]
        out_x[at] = x[p] + t * (x[q] - x[p])
        out_y[at] = y[p] + t * (y[q] - y[p])
        x, y, rid = out_x, out_y, out_rid

    succ, starts, ends = _ring_layout(rid)
    terms = x * y[succ] - x[succ] * y
    # Row j of the table holds term j of every ring, zero past its end.
    counts = np.bincount(rid, minlength=ids)
    table = np.zeros((counts.max(initial=0), ids))
    table[np.arange(len(rid)) - np.repeat(starts, ends - starts), rid] = terms
    acc = np.zeros(ids)
    for column in table:
        acc += column
    area = 0.5 * acc
    area[counts < 3] = 0.0
    return np.split(np.maximum(area, 0.0), np.cumsum(ms[:-1]))


def free_overlap_areas(centers: Sequence, h: float, polygons: Sequence[PolygonWithHoles]) -> list:
    """For each polygon of `polygons`, the area of the hexagon at each row of
    its own (m, 2) array of `centers` covered by its free space (outer minus
    holes), as one array of m areas per polygon.

    Every ring of every polygon, the outer ring and each reversed hole, is
    clipped against its polygon's hexagons in one hexagon_clip_areas call.
    `PolygonWithHoles` holds a counterclockwise outer ring and clockwise
    holes, so each of those rings is counterclockwise.
    """
    import numpy as np

    rings, ring_centers = [], []
    for polygon, cells in zip(polygons, centers):
        rings.append(polygon.outer)
        rings += [hole[::-1] for hole in polygon.holes]
        ring_centers += [cells] * (1 + len(polygon.holes))
    clipped = iter(hexagon_clip_areas(rings, ring_centers, h))
    out = []
    for polygon in polygons:
        area = next(clipped)
        rows = area != 0.0
        for _ in polygon.holes:
            hole = next(clipped)
            area[rows] -= hole[rows]
        out.append(np.maximum(area, 0.0))
    return out
