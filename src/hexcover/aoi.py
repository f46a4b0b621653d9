"""Synthetic area-of-interest sampling and morphology classification.

Three generator families produce outer rings as radial polygons around the
origin; obstacle holes are inserted afterwards. Everything is driven by a
single 64-bit seed split into independent Philox sub-streams, one per
generation stage, so each stage is reproducible in isolation.

numpy is imported by the functions that draw, not by the module: `audit`,
`run` and `report` import this module but never draw, and so never pay for
loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from hexcover.hexgeom import (
    InvalidParameterError,
    Point,
    PolygonWithHoles,
    hexagon_area,
    points_in_ring,
    polygon_metrics,
    ring_array,
    ring_signed_area,
)

if TYPE_CHECKING:
    import numpy as np

FAMILY_COMPACT = "compact"
FAMILY_ELONGATED = "elongated"
FAMILY_IRREGULAR = "irregular"
FAMILIES = (FAMILY_COMPACT, FAMILY_ELONGATED, FAMILY_IRREGULAR)

LABEL_COMPACT = "Compact"
LABEL_ELONGATED = "Elongated"
LABEL_IRREGULAR = "Irregular"

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


@dataclass(frozen=True)
class MorphologyClass:
    label: str
    compactness: float
    aspect: float


@dataclass(frozen=True)
class AoiShape:
    polygon: PolygonWithHoles
    morphology: MorphologyClass
    seed: int
    family_hint: str


def label_from(compactness: float, aspect: float) -> str:
    """Threshold partition: elongation wins, then compactness splits the rest."""
    if aspect >= 2.0:
        return LABEL_ELONGATED
    if compactness > 0.6:
        return LABEL_COMPACT
    return LABEL_IRREGULAR


def classify_morphology(p: PolygonWithHoles) -> MorphologyClass:
    area, perimeter, aspect = polygon_metrics(p)
    c = 4.0 * math.pi * area / (perimeter * perimeter)
    return MorphologyClass(label_from(c, aspect), c, aspect)


def _radial_ring(rng: np.random.Generator, base_r: float, harmonics) -> tuple[Point, ...]:
    """Counterclockwise radial polygon r(theta) = base_r * (1 + sum of cosines)."""
    import numpy as np

    thetas = np.linspace(0.0, 2.0 * math.pi, _RING_VERTICES, endpoint=False)
    radii = np.full(_RING_VERTICES, 1.0)
    for k, amp in harmonics:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        radii += amp * np.cos(k * thetas + phase)
    radii = np.maximum(radii, 0.25) * base_r
    return tuple(Point(float(r * math.cos(t)), float(r * math.sin(t))) for r, t in zip(radii, thetas))


def sample_aoi(family_hint: str, seed: int, scale: float) -> AoiShape:
    """Draw one outer polygon from the requested family.

    Deterministic per (family_hint, seed, scale). The polygon is sized so
    that tessellation at circumradius `scale` lands near the benchmark cell
    band; exact conformance is checked downstream, not here.
    """
    import numpy as np

    if scale <= 0:
        raise InvalidParameterError("scale must be positive")
    if family_hint not in FAMILIES:
        raise InvalidParameterError(f"unknown family hint {family_hint!r}")
    rng = substream(seed, STREAM_POLYGON)
    n_target = rng.uniform(*_TARGET_CELLS)
    area_target = n_target * hexagon_area(scale)

    if family_hint == FAMILY_COMPACT:
        base_r = math.sqrt(area_target / math.pi)
        harmonics = [(k, rng.uniform(0.02, 0.09) * 2.0 / k) for k in (2, 3, 4)]
        ring = _radial_ring(rng, base_r, harmonics)
    elif family_hint == FAMILY_IRREGULAR:
        base_r = math.sqrt(area_target / math.pi)
        ks = rng.choice(np.arange(3, 8), size=3, replace=False)
        harmonics = [(int(k), rng.uniform(0.10, 0.24)) for k in ks]
        ring = _radial_ring(rng, base_r, harmonics)
    else:
        aspect_t = rng.uniform(2.15, 3.1)
        b = math.sqrt(area_target / (math.pi * aspect_t))
        a = aspect_t * b
        thetas = np.linspace(0.0, 2.0 * math.pi, _RING_VERTICES, endpoint=False)
        radii = np.full(_RING_VERTICES, 1.0)
        for k in (3, 4, 5):
            amp = rng.uniform(0.01, 0.05)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            radii += amp * np.cos(k * thetas + phase)
        ring = tuple(
            Point(float(a * r * math.cos(t)), float(b * r * math.sin(t)))
            for r, t in zip(radii, thetas)
        )

    polygon = PolygonWithHoles(ring)
    polygon.validate()
    return AoiShape(polygon, classify_morphology(polygon), seed, family_hint)


def insert_obstacles(shape: AoiShape, seed: int) -> AoiShape:
    """Punch up to 3 obstacle holes into the AOI; the outer ring never changes.

    Each hole is a perturbed circle sized to swallow roughly one to three
    hexagonal cells. Candidate holes violating containment or disjointness
    are re-sampled a bounded number of times and then skipped, so the result
    always satisfies the polygon invariants.
    """
    rng = substream(seed, STREAM_HOLES)
    count = int(rng.choice(4, p=_HOLE_COUNT_WEIGHTS))
    if count == 0:
        return shape

    outer = shape.polygon.outer
    outer_area = ring_signed_area(outer)
    cell_proxy = math.sqrt(outer_area / (math.pi * 30.0))  # rough circumradius unit
    xs = [p.x for p in outer]
    ys = [p.y for p in outer]
    # Every ring with its ring array, converted once for all candidates.
    outer_pair = (outer, ring_array(outer))
    holes = [(hole, ring_array(hole)) for hole in shape.polygon.holes]
    # Clearance tuned so shoreline-hugging holes carve narrow rim corridors
    # without strangling audit feasibility.
    clearance = 0.65 * cell_proxy
    # Every point tested lies inside the outer ring, so this margin dwarfs
    # the rounding of any distance computed in _closer_than.
    pad = 1e-9 * (clearance + max(map(abs, xs + ys)))

    for _ in range(count):
        for _attempt in range(_HOLE_RETRIES):
            cells_eaten = rng.uniform(1.0, 3.2)
            rho = math.sqrt(cells_eaten * hexagon_area(cell_proxy) / math.pi)
            cx = rng.uniform(min(xs), max(xs))
            cy = rng.uniform(min(ys), max(ys))
            wobble = rng.uniform(0.88, 1.12, _HOLE_VERTICES).tolist()
            ring = tuple(
                Point(cx + rho * w * ux, cy + rho * w * uy)
                for w, (ux, uy) in zip(wobble, _HOLE_DIRECTIONS)
            )
            arr = ring_array(ring)
            if _hole_admissible((ring, arr), outer_pair, holes, clearance, pad):
                holes.append((ring, arr))
                break

    if len(holes) == len(shape.polygon.holes):
        return shape
    polygon = PolygonWithHoles(outer, tuple(hole for hole, _ in holes))
    polygon.validate()
    return AoiShape(polygon, classify_morphology(polygon), shape.seed, shape.family_hint)


def _hole_admissible(candidate, outer, holes, clearance: float, pad: float) -> bool:
    """Whether a candidate hole lies inside the outer ring and outside every
    earlier hole, with `clearance` to each. The candidate, `outer` and each
    of `holes` is a (points, ring array) pair."""
    ring, arr = candidate
    vertices = arr[:-1]
    if not points_in_ring(vertices, outer[1]).all():
        return False
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
