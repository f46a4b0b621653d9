"""Flat-top hexagonal lattice geometry and planar polygon primitives.

Lattice convention (fixed for the whole package): flat-top hexagons addressed
by (col, row) offset coordinates. Column pitch is 1.5*h, row pitch is
sqrt(3)*h, and odd columns sit half a row pitch below even columns, so the
cell (0, 0) is centred on the origin. Two cells are face-adjacent exactly when
their centres are sqrt(3)*h apart.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

SQRT3 = math.sqrt(3.0)

# Absolute geometric tolerance in a unit-normalized frame (h on the order of 1).
GEOM_TOL = 1e-9


class InvalidParameterError(ValueError):
    pass


class InvalidGeometryError(ValueError):
    pass


class OffsetCoord(NamedTuple):
    col: int
    row: int


class Point(NamedTuple):
    x: float
    y: float


# Neighbor offsets depend on column parity (odd columns are shifted down).
# Each table ascends in (dcol, drow), so a cell's neighbours come out in
# (col, row) order.
_EVEN_COL_NEIGHBORS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0), (1, 1))
_ODD_COL_NEIGHBORS = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, -1), (1, 0))


def offset_to_center(c: OffsetCoord, h: float) -> Point:
    """Centre of lattice cell `c` for circumradius `h`, origin cell at (0,0)."""
    if h <= 0:
        raise InvalidParameterError(f"circumradius must be positive, got {h}")
    x = 1.5 * h * c[0]
    y = SQRT3 * h * (c[1] - 0.5 * (c[0] & 1))
    return Point(x, y)


def neighbor_offsets(col: int) -> tuple[tuple[int, int], ...]:
    """The 6 (dcol, drow) steps from a cell in column `col` to its face
    neighbours, in ascending order."""
    return _ODD_COL_NEIGHBORS if (col & 1) else _EVEN_COL_NEIGHBORS


def face_neighbors(c: OffsetCoord) -> list[OffsetCoord]:
    """The 6 face-adjacent lattice coordinates of `c`."""
    col, row = c
    return [OffsetCoord(col + dc, row + dr) for dc, dr in neighbor_offsets(col)]


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


def _counterclockwise(ring: Sequence[Point]) -> Sequence[Point]:
    return list(reversed(ring)) if ring_signed_area(ring) < 0 else ring


def ring_perimeter(ring: Sequence[Point]) -> float:
    acc = 0.0
    for (x0, y0), (x1, y1) in ring_edges(ring):
        acc += math.hypot(x1 - x0, y1 - y0)
    return acc


def point_in_ring(pt: Point, ring: Sequence[Point]) -> bool:
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


def crossing_matrix(p_ring, q_ring):
    """Boolean matrix whose [i, j] is the proper-crossing test of edge i of
    ring array `p_ring` with edge j of ring array `q_ring` (open segments)."""
    px0, py0 = p_ring[:-1, 0, None], p_ring[:-1, 1, None]
    px1, py1 = p_ring[1:, 0, None], p_ring[1:, 1, None]
    qx0, qy0, qx1, qy1 = q_ring[:-1, 0], q_ring[:-1, 1], q_ring[1:, 0], q_ring[1:, 1]
    # The orientations of p's ends about q, then of q's ends about p.
    qx, qy = qx1 - qx0, qy1 - qy0
    d1 = qx * (py0 - qy0) - qy * (px0 - qx0)
    d2 = qx * (py1 - qy0) - qy * (px1 - qx0)
    px, py = px1 - px0, py1 - py0
    d3 = px * (qy0 - py0) - py * (qx0 - px0)
    d4 = px * (qy1 - py0) - py * (qx1 - px0)
    return ((d1 > 0) != (d2 > 0)) & (d1 != d2) & ((d3 > 0) != (d4 > 0)) & (d3 != d4)


def points_in_ring(points, ring):
    """Even-odd rule test of each row of the (m, 2) array `points` against
    ring array `ring`, as point_in_ring decides it; boundary points are
    undefined."""
    import numpy as np

    x, y = points[:, 0, None], points[:, 1, None]
    x0, y0, x1, y1 = ring[:-1, 0], ring[:-1, 1], ring[1:, 0], ring[1:, 1]
    straddles = (y0 > y) != (y1 > y)
    # Only a straddling edge is tested, and its y1 - y0 is never zero.
    frac = np.divide(y - y0, y1 - y0, out=np.zeros(straddles.shape), where=straddles)
    flips = straddles & (x < x0 + frac * (x1 - x0))
    return np.count_nonzero(flips, axis=1) % 2 == 1


def ring_crossing_params(p0: Point, targets, ring):
    """Which edges of ring array `ring` each open segment from p0 to a row
    of the (k, 2) array `targets` properly crosses, and where: a boolean
    (k, n) mask and, where it is set, the parameter t in (0, 1) of the
    crossing along the segment."""
    import numpy as np

    x0, y0 = p0
    x1, y1 = targets[:, 0, None], targets[:, 1, None]
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
    params = np.divide(d0, d0 - d1, out=np.zeros(cross.shape), where=cross)
    return cross, params


def ring_is_simple(ring) -> bool:
    """Whether no two edges of ring array `ring` cross, adjacent ones aside."""
    import numpy as np

    cross = np.triu(crossing_matrix(ring, ring), 2)
    cross[0, -1] = False  # the first and the last edge meet at vertex 0
    return not cross.any()


@dataclass(frozen=True)
class PolygonWithHoles:
    """Simple outer ring (counterclockwise) with disjoint interior holes (clockwise)."""

    outer: tuple[Point, ...]
    holes: tuple[tuple[Point, ...], ...] = ()

    def __post_init__(self) -> None:
        for ring in (self.outer, *self.holes):
            for p in ring:
                if not (math.isfinite(p[0]) and math.isfinite(p[1])):
                    raise InvalidGeometryError("non-finite coordinate in ring")
        if len(self.outer) < 3:
            raise InvalidGeometryError("outer ring needs at least 3 vertices")
        if ring_signed_area(self.outer) <= 0:
            raise InvalidGeometryError("outer ring must be counterclockwise")
        for hole in self.holes:
            if len(hole) < 3 or ring_signed_area(hole) >= 0:
                raise InvalidGeometryError("holes must be clockwise rings")

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
            if crossing_matrix(hole, outer).any():
                raise InvalidGeometryError("hole crosses outer ring")
        for i in range(len(holes)):
            for j in range(i + 1, len(holes)):
                if _rings_interact(holes[i], holes[j]):
                    raise InvalidGeometryError("holes are not pairwise disjoint")

    def contains(self, pt: Point) -> bool:
        """Point lies in free space: inside outer, outside every hole."""
        if not point_in_ring(pt, self.outer):
            return False
        return not any(point_in_ring(pt, hole) for hole in self.holes)


def _same_ring_memo(fn):
    """`fn(ring)`, computed once for as long as the same ring tuple comes back.

    A tuple of points cannot change, so the stored result is exactly what
    `fn` would compute again. Any other argument, an equal tuple included, is
    computed afresh: equal floats may still differ in the sign of a zero.
    """
    last: list = [None, None]

    @functools.wraps(fn)
    def memo(ring):
        if ring is last[0]:
            return last[1]
        result = fn(ring)
        if type(ring) is tuple:
            last[:] = ring, result
        return result

    return memo


def _rings_interact(a, b) -> bool:
    """Whether ring arrays `a` and `b` overlap: a vertex of one inside the
    other, or crossing edges."""
    return (
        points_in_ring(a[:-1], b).any()
        or points_in_ring(b[:-1], a).any()
        or crossing_matrix(a, b).any()
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


@dataclass(frozen=True)
class MinRotatedRect:
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


@_same_ring_memo
def min_rotated_rect(points: Sequence[Point]) -> MinRotatedRect:
    """Minimum-area enclosing rectangle via rotating calipers on the hull.

    Deterministic: ties on area keep the first hull edge in hull order. One
    outer ring's rectangle serves sampling, morphology after hole insertion
    and the lattice frame, so the last tuple's result is reused.
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


def polygon_metrics(p: PolygonWithHoles) -> tuple[float, float, float]:
    """(area, perimeter, aspect_ratio).

    Area subtracts holes; perimeter and aspect ratio come from the outer ring
    alone, so hole insertion never alters the outline compactness inputs.
    """
    area = ring_signed_area(p.outer) + sum(ring_signed_area(h) for h in p.holes)
    perimeter = ring_perimeter(p.outer)
    if area <= GEOM_TOL * GEOM_TOL or perimeter <= GEOM_TOL:
        raise InvalidGeometryError("degenerate polygon")
    rect = min_rotated_rect(p.outer)
    return area, perimeter, rect.aspect


# ---------------------------------------------------------------------------
# Hexagon clipping (cell/free-space overlap areas)
#
# Sutherland-Hodgman reentrant polygon clipping (Sutherland & Hodgman, CACM
# 17(1), 1974) of one subject ring against the hexagons of many cells at
# once. The vertices of every clipped ring sit in flat x/y arrays with a
# ring id per vertex, ring after ring. Each clip stage evaluates the scalar
# orientation and crossing expressions per vertex and compacts the output in
# ring order, so every clipped vertex is bit-identical to clipping one
# hexagon at a time. The shoelace sum is the one float reduction, and it
# runs one column at a time, in edge order, as ring_signed_area adds.


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


def hexagon_clip_areas(ring: Sequence[Point], centers, h: float):
    """Area of the counterclockwise `ring` inside the hexagon of circumradius
    `h` at each row of the (m, 2) array `centers`, as an array of m areas.

    A clipped ring of fewer than 3 vertices has area 0.0, and a negative
    area of a degenerate output ring is taken as 0.0.
    """
    import numpy as np

    m, n = len(centers), len(ring)
    sx, sy = point_array(ring).T
    x, y = np.tile(sx, m), np.tile(sy, m)
    rid = np.repeat(np.arange(m), n)
    # The hexagon vertices as hexagon_ring computes them.
    cx, cy = centers[:, 0], centers[:, 1]
    hx = [cx + h * ux for ux, _ in _HEX_UNIT]
    hy = [cy + h * uy for _, uy in _HEX_UNIT]
    for k in range(6):
        ax, ay = hx[k], hy[k]
        ex, ey = (hx[(k + 1) % 6] - ax)[rid], (hy[(k + 1) % 6] - ay)[rid]
        sides = ex * (y - ay[rid]) - ey * (x - ax[rid])
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
    counts = np.bincount(rid, minlength=m)
    table = np.zeros((counts.max(initial=0), m))
    table[np.arange(len(rid)) - np.repeat(starts, ends - starts), rid] = terms
    acc = np.zeros(m)
    for column in table:
        acc += column
    area = 0.5 * acc
    area[counts < 3] = 0.0
    return np.maximum(area, 0.0)


def free_overlap_areas(centers, h: float, polygon: PolygonWithHoles):
    """Area of the hexagon at each row of the (m, 2) array `centers` covered
    by free space (outer minus holes), as an array of m areas."""
    import numpy as np

    # The outer ring and each reversed hole, each counterclockwise, as
    # hexagon_clip_areas takes a subject.
    outer = _counterclockwise(polygon.outer)
    holes = [_counterclockwise(list(reversed(hole))) for hole in polygon.holes]
    area = hexagon_clip_areas(outer, centers, h)
    rows = np.flatnonzero(area != 0.0)
    if holes and len(rows):
        part, near = area[rows], centers[rows]
        for hole in holes:
            part -= hexagon_clip_areas(hole, near, h)
        area[rows] = part
    return np.maximum(area, 0.0)
