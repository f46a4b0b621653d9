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


@dataclass(frozen=True)
class HexCell:
    coord: OffsetCoord
    center: Point
    circumradius: float


# Neighbor offsets depend on column parity (odd columns are shifted down).
_EVEN_COL_NEIGHBORS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, 1))
_ODD_COL_NEIGHBORS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, -1))


def offset_to_center(c: OffsetCoord, h: float) -> Point:
    """Centre of lattice cell `c` for circumradius `h`, origin cell at (0,0)."""
    if h <= 0:
        raise InvalidParameterError(f"circumradius must be positive, got {h}")
    x = 1.5 * h * c[0]
    y = SQRT3 * h * (c[1] - 0.5 * (c[0] & 1))
    return Point(x, y)


def neighbor_offsets(col: int) -> tuple[tuple[int, int], ...]:
    """The 6 (dcol, drow) steps from a cell in column `col` to its face neighbours."""
    return _ODD_COL_NEIGHBORS if (col & 1) else _EVEN_COL_NEIGHBORS


def face_neighbors(c: OffsetCoord) -> list[OffsetCoord]:
    """The 6 face-adjacent lattice coordinates of `c`."""
    col, row = c
    return [OffsetCoord(col + dc, row + dr) for dc, dr in neighbor_offsets(col)]


# Unit-circle vertex directions, k * 60 degrees for k = 0..5.
_HEX_UNIT = tuple((math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6))


def hex_vertices(cell: HexCell) -> list[Point]:
    """The 6 vertices in counterclockwise order, first vertex at angle 0."""
    return hexagon_ring(cell.center, cell.circumradius)


def hexagon_ring(center: Point, h: float) -> list[Point]:
    """Vertex ring of a flat-top hexagon without building a HexCell."""
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


def segments_cross(p0: Point, p1: Point, q0: Point, q1: Point) -> bool:
    """Proper-intersection test for open segments."""
    # The four orientations are _orient's expression, written out: this test
    # runs hundreds of thousands of times per dataset.
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


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def ring_is_simple(ring: Sequence[Point]) -> bool:
    """Quadratic non-self-intersection check; fine for generator-sized rings."""
    edges = list(ring_edges(ring))
    n = len(edges)
    for i, (a0, a1) in enumerate(edges):
        # Every later edge but the next one, and for the first edge the last.
        for b0, b1 in edges[i + 2 : n - 1 if i == 0 else n]:
            if segments_cross(a0, a1, b0, b1):
                return False
    return True


def segment_ring_crossing_params(p0: Point, p1: Point, ring: Sequence[Point]) -> list[float]:
    """Parameters t in (0,1) where segment p0->p1 properly crosses ring edges."""
    params: list[float] = []
    (x0, y0), (x1, y1) = p0, p1
    px, py = x1 - x0, y1 - y0
    for (ax, ay), (bx, by) in ring_edges(ring):
        # _orient(a, b, p0), _orient(a, b, p1), _orient(p0, p1, a), _orient(p0, p1, b).
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
        if not _outer_ring_is_simple(self.outer):
            raise InvalidGeometryError("outer ring self-intersects")
        outer_edges = list(ring_edges(self.outer))
        for hole in self.holes:
            if not ring_is_simple(hole):
                raise InvalidGeometryError("hole ring self-intersects")
            for p in hole:
                if not point_in_ring(p, self.outer):
                    raise InvalidGeometryError("hole vertex outside outer ring")
            for a, b in ring_edges(hole):
                for c, d in outer_edges:
                    if segments_cross(a, b, c, d):
                        raise InvalidGeometryError("hole crosses outer ring")
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                if _rings_interact(self.holes[i], self.holes[j]):
                    raise InvalidGeometryError("holes are not pairwise disjoint")

    @functools.cached_property
    def _clip_subjects(self) -> tuple[Sequence[Point], ...]:
        """The outer ring and each reversed hole, oriented as clip_area_convex
        orients a subject; computed once per polygon, not once per clip."""
        rings = (self.outer, *(list(reversed(hole)) for hole in self.holes))
        return tuple(_counterclockwise(ring) for ring in rings)

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


# An AOI's outer ring is checked when it is sampled and again after its holes
# are inserted; this one memo serves outer rings only, so holes never evict it.
_outer_ring_is_simple = _same_ring_memo(ring_is_simple)


def _rings_interact(a: Sequence[Point], b: Sequence[Point]) -> bool:
    if any(point_in_ring(p, b) for p in a) or any(point_in_ring(p, a) for p in b):
        return True
    b_edges = list(ring_edges(b))
    return any(segments_cross(p, q, r, s) for p, q in ring_edges(a) for r, s in b_edges)


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
    hull = convex_hull(points)
    if len(hull) < 3:
        raise InvalidGeometryError("rotated rectangle needs non-collinear input")
    best = None
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
        smin, smax, tmin, tmax = min(ss), max(ss), min(ts), max(ts)
        area = (smax - smin) * (tmax - tmin)
        if best is None or area < best[0]:
            best = (area, ux, uy, smin, smax, tmin, tmax)
    assert best is not None
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
# Convex clipping (used for cell/free-space overlap areas)


def clip_area_convex(subject: Sequence[Point], clip: Sequence[Point]) -> float:
    """Area of subject ∩ clip where `clip` is convex and counterclockwise.

    Sutherland-Hodgman against each clip edge; the possibly-degenerate
    output ring still carries the exact intersection area, which is all
    callers need.
    """
    return _clip_area_ccw(_counterclockwise(subject), clip)


def _counterclockwise(ring: Sequence[Point]) -> Sequence[Point]:
    return list(reversed(ring)) if ring_signed_area(ring) < 0 else ring


def _clip_area_ccw(ring: Sequence[Point], clip: Sequence[Point]) -> float:
    for a, b in ring_edges(clip):
        if not ring:
            return 0.0
        ring = _clip_halfplane(ring, a, b)
    if len(ring) < 3:
        return 0.0
    return max(ring_signed_area(ring), 0.0)


def _clip_halfplane(ring: Sequence[Point], a: Point, b: Point) -> Sequence[Point]:
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    # _orient(a, b, p) of every vertex, the same expression written out.
    sides = [ex * (y - ay) - ey * (x - ax) for x, y in ring]
    if min(sides) >= 0:
        return ring  # every vertex kept, no edge leaves the half-plane
    if max(sides) < 0:
        return []
    out: list[Point] = []
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


def free_overlap_area(center: Point, h: float, polygon: PolygonWithHoles) -> float:
    """Area of the hexagon at `center` covered by free space (outer minus holes)."""
    hexagon = hexagon_ring(center, h)
    outer, *holes = polygon._clip_subjects
    area = _clip_area_ccw(outer, hexagon)
    if area == 0.0:
        return 0.0
    for hole in holes:
        area -= _clip_area_ccw(hole, hexagon)
    return max(area, 0.0)
