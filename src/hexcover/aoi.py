"""Synthetic area-of-interest sampling and morphology classification.

Three generator families produce outer rings as radial polygons around the
origin; obstacle holes are inserted afterwards. Everything is driven by a
single 64-bit seed split into independent Philox sub-streams, one per
generation stage, so each stage is reproducible in isolation.

Of the commands, only `generate` imports this module. numpy is imported by the functions
that draw, not by the module; the morphology label rule and its labels live
in `hexcover.lattice`, where a dataset record is checked against them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from hexcover.hexgeom import (
    MinRotatedRect,
    PolygonWithHoles,
    hexagon_area,
    points_in_ring,
    polygon_metrics,
    ring_array,
    ring_signed_area,
)
from hexcover.lattice import (
    InvalidGeometryError,
    InvalidParameterError,
    MorphologyClass,
    Point,
    label_from,
)

if TYPE_CHECKING:
    import numpy as np

FAMILY_COMPACT = "compact"
FAMILY_ELONGATED = "elongated"
FAMILY_IRREGULAR = "irregular"
FAMILIES = (FAMILY_COMPACT, FAMILY_ELONGATED, FAMILY_IRREGULAR)

# Philox sub-stream indices (counter-based derivation from one seed).
STREAM_FAMILY = 0
STREAM_POLYGON = 1
STREAM_HOLES = 2
STREAM_BASE = 3

_RING_VERTICES = 44
_HOLE_VERTICES = 14
_HOLE_RETRIES = 12
# Clockwise unit directions of a hole's vertices.
_HOLE_DIRECTIONS = tuple(
    (math.cos(-2.0 * math.pi * k / _HOLE_VERTICES), math.sin(-2.0 * math.pi * k / _HOLE_VERTICES))
    for k in range(_HOLE_VERTICES)
)
# Hole-free instances are disproportionately easy for every heuristic, so
# they are drawn less often than holed ones.
_HOLE_COUNT_WEIGHTS = (0.15, 0.35, 0.25, 0.25)

# Cells drawn per instance before boundary and hole losses; the size band
# [28, 46] is enforced downstream by rejection.
_TARGET_CELLS = (30.0, 50.0)


def substream(seed: int, stage: int) -> np.random.Generator:
    """Independent deterministic RNG stream for one generation stage."""
    import numpy as np

    if not 0 <= seed < 2**128:  # the Philox key is 128 bits
        raise InvalidParameterError(f"seed {seed} is outside [0, 2**128)")
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, stage]))


def classify_morphology(p: PolygonWithHoles, rect: MinRotatedRect) -> MorphologyClass:
    """The morphology of `p`, whose outer ring's minimum rotated rectangle is
    `rect`: compactness 4 pi A / P^2 and the rectangle's aspect ratio."""
    area, perimeter = polygon_metrics(p)
    c = 4.0 * math.pi * area / (perimeter * perimeter)
    aspect = rect.aspect
    return MorphologyClass(label_from(c, aspect), c, aspect)


def _radial_ring(rng: np.random.Generator, harmonics, rx: float, ry: float) -> tuple[Point, ...]:
    """Counterclockwise radial polygon (rx r cos t, ry r sin t), where r(t) =
    max(0.25, 1 + sum of amp cos(k t + phase)) over the (k, amp) `harmonics`;
    each phase is drawn as its harmonic comes up."""
    import numpy as np

    thetas = np.linspace(0.0, 2.0 * math.pi, _RING_VERTICES, endpoint=False)
    radii = np.full(_RING_VERTICES, 1.0)
    for k, amp in harmonics:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        radii += amp * np.cos(k * thetas + phase)
    radii = np.maximum(radii, 0.25)
    return tuple(
        Point(float(rx * r * math.cos(t)), float(ry * r * math.sin(t)))
        for r, t in zip(radii, thetas)
    )


def sample_aoi(family_hint: str, seed: int, scale: float) -> PolygonWithHoles:
    """Draw one outer polygon from the requested family.

    Deterministic per (family_hint, seed, scale). The polygon is sized so
    that tessellation at circumradius `scale` lands near the benchmark cell
    band. Only the constructor's checks (finite, counterclockwise) run here;
    simplicity, morphology and the cell band are checked downstream.
    """
    import numpy as np

    if scale <= 0:
        raise InvalidParameterError("scale must be positive")
    if family_hint not in FAMILIES:
        raise InvalidParameterError(f"unknown family hint {family_hint!r}")
    rng = substream(seed, STREAM_POLYGON)
    n_target = rng.uniform(*_TARGET_CELLS)
    area_target = n_target * hexagon_area(scale)
    if not 0.0 < area_target < math.inf:
        raise InvalidGeometryError(f"scale {scale} gives no finite positive AOI area")

    if family_hint == FAMILY_COMPACT:
        base_r = math.sqrt(area_target / math.pi)
        harmonics = [(k, rng.uniform(0.02, 0.09) * 2.0 / k) for k in (2, 3, 4)]
        ring = _radial_ring(rng, harmonics, base_r, base_r)
    elif family_hint == FAMILY_IRREGULAR:
        base_r = math.sqrt(area_target / math.pi)
        ks = rng.choice(np.arange(3, 8), size=3, replace=False)
        harmonics = [(int(k), rng.uniform(0.10, 0.24)) for k in ks]
        ring = _radial_ring(rng, harmonics, base_r, base_r)
    else:
        aspect_t = rng.uniform(2.15, 3.1)
        b = math.sqrt(area_target / (math.pi * aspect_t))
        # A generator, so each amplitude is drawn just before its phase; the
        # radii stay at or above 1 - 3 * 0.05, so the floor never applies.
        harmonics = ((k, rng.uniform(0.01, 0.05)) for k in (3, 4, 5))
        ring = _radial_ring(rng, harmonics, aspect_t * b, b)

    return PolygonWithHoles(ring)


def insert_obstacles(polygon: PolygonWithHoles, seed: int) -> PolygonWithHoles:
    """Punch up to 3 obstacle holes into the AOI; the outer ring never changes.

    Each hole is a perturbed circle sized to swallow roughly one to three
    hexagonal cells. Candidate holes violating containment, clearance or
    disjointness are re-sampled a bounded number of times and then skipped.
    The result is not validated here; a seed's final polygon is validated
    once, by the generation pipeline. `polygon` itself comes back when no
    hole is placed.
    """
    import numpy as np

    rng = substream(seed, STREAM_HOLES)
    count = int(rng.choice(4, p=_HOLE_COUNT_WEIGHTS))
    if count == 0:
        return polygon

    outer = polygon.outer
    outer_area = ring_signed_area(outer)
    cell_proxy = math.sqrt(outer_area / (math.pi * 30.0))  # rough circumradius unit
    xs = [p.x for p in outer]
    ys = [p.y for p in outer]
    # Every ring with its ring array, converted once for all candidates.
    outer_pair = (outer, ring_array(outer))
    holes = [(hole, ring_array(hole)) for hole in polygon.holes]
    # Clearance tuned so shoreline-hugging holes carve narrow rim corridors
    # without strangling audit feasibility.
    clearance = 0.65 * cell_proxy
    # Every point tested lies inside the outer ring, so this margin dwarfs
    # the rounding of any distance computed in _closer_than.
    pad = 1e-9 * (clearance + max(map(abs, xs + ys)))

    # Every attempt any hole may take, drawn at once. numpy fills the array
    # row by row, so row k holds what attempt k's scalar draws would: the
    # cells eaten, the centre's x and y, then the vertex wobbles. Nothing
    # reads this stream afterwards, so the unused rows change nothing.
    tries = count * _HOLE_RETRIES
    lows = [1.0, min(xs), min(ys)] + [0.88] * _HOLE_VERTICES
    highs = [3.2, max(xs), max(ys)] + [1.12] * _HOLE_VERTICES
    draws = rng.uniform(lows, highs, size=(tries, 3 + _HOLE_VERTICES))
    rho = np.sqrt(draws[:, 0] * hexagon_area(cell_proxy) / math.pi)
    wide = rho[:, None] * draws[:, 3:]
    ux, uy = np.array(_HOLE_DIRECTIONS).T
    vx = draws[:, 1, None] + wide * ux
    vy = draws[:, 2, None] + wide * uy
    # The outer-ring containment of every candidate's vertices in one test.
    vertices = np.stack([vx.ravel(), vy.ravel()], axis=1)
    inside = points_in_ring(vertices, outer_pair[1]).reshape(tries, -1).all(axis=1).tolist()

    first = 0  # the first attempt of the hole being placed
    for _ in range(count):
        for k in range(first, first + _HOLE_RETRIES):
            if not inside[k]:
                continue
            ring = tuple(map(Point, vx[k].tolist(), vy[k].tolist()))
            candidate = (ring, ring_array(ring))
            if _hole_admissible(candidate, outer_pair, holes, clearance, pad):
                holes.append(candidate)
                first = k + 1
                break
        else:
            first += _HOLE_RETRIES

    if len(holes) == len(polygon.holes):
        return polygon
    return PolygonWithHoles(outer, tuple(hole for hole, _ in holes))


def _hole_admissible(candidate, outer, holes, clearance: float, pad: float) -> bool:
    """Whether a candidate hole, whose vertices lie inside the outer ring,
    keeps `clearance` to it and lies outside every earlier hole, with
    `clearance` to each. The candidate, `outer` and each of `holes` is a
    (points, ring array) pair."""
    ring, arr = candidate
    vertices = arr[:-1]
    if _closer_than(candidate, outer, clearance, pad):
        return False
    for other in holes:
        other_arr = other[1]
        if points_in_ring(vertices, other_arr).any():
            return False
        if _closer_than(candidate, other, clearance, pad):
            return False
        if points_in_ring(other_arr[:-1], arr).any():
            return False
    return True


def _closer_than(candidate, ring, clearance: float, pad: float) -> bool:
    """Whether some edge of `ring` lies closer than `clearance` to some
    vertex of `candidate`; each is a (points, ring array) pair.

    The same decision as `min(distance of each vertex to each edge) <
    clearance`. One array pass skips every (vertex, edge) pair whose edge
    box, widened by `clearance + pad`, does not reach the vertex; only
    booleans are computed there. The pairs left are measured by the scalar
    distance. `pad` must exceed the rounding error of a computed distance,
    so that no skipped pair could have computed closer than `clearance`.
    """
    import numpy as np

    points, points_arr = candidate
    ring_points, arr = ring
    reach = clearance + pad
    px, py = points_arr[:-1, 0, None], points_arr[:-1, 1, None]
    ax, ay, bx, by = arr[:-1, 0], arr[:-1, 1], arr[1:, 0], arr[1:, 1]
    near = ~(
        (px - reach > ax) & (px - reach > bx)
        | (px + reach < ax) & (px + reach < bx)
        | (py - reach > ay) & (py - reach > by)
        | (py + reach < ay) & (py + reach < by)
    )
    n = len(ring_points)
    return any(
        _dist_point_segment(points[i], ring_points[j], ring_points[(j + 1) % n]) < clearance
        for i, j in np.argwhere(near).tolist()
    )


def _dist_point_segment(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))
