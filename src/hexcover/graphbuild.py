"""AOI tessellation, occupancy-mask post-processing, and graph assembly.

The lattice frame is anchored at the centre of the minimum rotated rectangle
of the outer ring, with the column axis along the rectangle's long side. A
cell is retained when at least half of its hexagon lies in free space. The
retained mask is cleaned up (largest component, iterated dead-end removal),
then the launch point and the two virtual nodes are attached and the result
is audited for Hamiltonian feasibility.

Of the commands, only `generate` imports this module. The graph and
instance types it builds, `CoverageGraph` and `Instance`, live in
`hexcover.lattice`, the model that `audit`, `run` and `report` load without
this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from hexcover.aoi import (
    FAMILIES,
    STREAM_BASE,
    STREAM_FAMILY,
    classify_morphology,
    insert_obstacles,
    sample_aoi,
    substream,
)
from hexcover.hexgeom import (
    MinRotatedRect,
    PolygonWithHoles,
    free_overlap_areas,
    hexagon_area,
    min_rotated_rect,
    point_array,
    points_in_ring,
    ring_array,
    segment_crossings,
)
from hexcover.lattice import (
    SQRT3,
    CellBoard,
    CoverageGraph,
    InvalidGeometryError,
    InvalidParameterError,
    Instance,
    LatticeFrame,
    MorphologyClass,
    OffsetCoord,
    Point,
    _json_number,
    exterior_boundary,
    graph_from_coords,
    offset_to_center,
)

RETENTION_FRACTION = 0.5
SIZE_BAND = (28, 46)
# Launch distance beyond the AOI bounding box, in circumradius units. This
# far standoff is what puts normalized path lengths on the benchmark scale
# (the per-instance normalization radius is dominated by the launch leg).
LAUNCH_STANDOFF_CELLS = 24.0


class DegenerateInstanceError(ValueError):
    pass


class BaseAttachmentError(ValueError):
    pass


class HexMask(NamedTuple):
    coords: frozenset[OffsetCoord]
    frame: LatticeFrame
    h: float


# ---------------------------------------------------------------------------
# Tessellation


class Lattice(NamedTuple):
    """A polygon's lattice candidates: its lattice frame, the polygon in
    lattice coordinates, and the candidate cells with the (m, 2) array of
    their centres in lattice coordinates."""

    frame: LatticeFrame
    polygon: PolygonWithHoles
    cells: list[tuple[int, int]]
    centers: object


def lattice_candidates(polygon: PolygonWithHoles, rect: MinRotatedRect, h: float) -> Lattice:
    """The lattice, mounted in the frame of `rect`, the minimum rotated
    rectangle of the outer ring (origin at the rectangle centre, columns
    along the long side), and every cell whose centre lies in the outer
    ring's box grown by `h`.
    """
    if h <= 0:
        raise InvalidParameterError("hex radius must be positive")
    frame = LatticeFrame(rect.center, rect.angle)

    local_outer = tuple(frame.to_local(p) for p in polygon.outer)
    local_holes = tuple(tuple(frame.to_local(p) for p in hole) for hole in polygon.holes)
    local_poly = PolygonWithHoles(local_outer, local_holes)

    xs = [p.x for p in local_outer]
    ys = [p.y for p in local_outer]
    x_lo, x_hi, y_lo, y_hi = min(xs) - h, max(xs) + h, min(ys) - h, max(ys) + h
    col_lo = math.floor(x_lo / (1.5 * h))
    col_hi = math.ceil(x_hi / (1.5 * h))
    row_lo = math.floor(y_lo / (SQRT3 * h)) - 1
    row_hi = math.ceil(y_hi / (SQRT3 * h)) + 1

    # Centres are offset_to_center's expressions on plain numbers; only the
    # kept cells become OffsetCoords.
    col_w, row_h = 1.5 * h, SQRT3 * h
    cells: list[tuple[int, int]] = []
    centers: list[tuple[float, float]] = []
    for col in range(col_lo, col_hi + 1):
        x = col_w * col
        if x < x_lo or x > x_hi:
            continue
        shift = 0.5 * (col & 1)
        for row in range(row_lo, row_hi + 1):
            y = row_h * (row - shift)
            if y < y_lo or y > y_hi:
                continue
            cells.append((col, row))
            centers.append((x, y))
    return Lattice(frame, local_poly, cells, point_array(centers))


def tessellate(lattices: Sequence[Lattice], h: float) -> list[HexMask]:
    """The occupancy mask of each lattice: its candidate cells with >= 50%
    free-space overlap.

    Every candidate cell of every lattice is clipped in one
    free_overlap_areas call, whose fixed cost a block of seeds so pays once,
    and kept when its free area is at least RETENTION_FRACTION of its
    hexagon. A lattice none of whose cells is kept has an empty mask.
    """
    areas = free_overlap_areas([lat.centers for lat in lattices], h,
                               [lat.polygon for lat in lattices])
    threshold = RETENTION_FRACTION * hexagon_area(h)
    return [
        HexMask(
            frozenset(
                OffsetCoord(*c) for c, keep in zip(lat.cells, (area >= threshold).tolist()) if keep
            ),
            lat.frame,
            h,
        )
        for lat, area in zip(lattices, areas)
    ]


# ---------------------------------------------------------------------------
# Mask post-processing


def postprocess_mask(mask) -> frozenset[OffsetCoord]:
    """Largest component, then iterated dead-end removal.

    Idempotent and strictly non-expanding. Both rules run on the mask's
    `CellBoard`. The components are flooded from the lowest set bit of what
    is left, in (col, row) order, and of equal-size largest components the
    one with the least cell is kept. Each dead-end round drops every cell
    with exactly one neighbour, counted over the six face-step images of the
    board, until none is left. Raises DegenerateInstanceError if the rules
    empty the mask.

    The result is face-connected (dead-end removal takes only leaves), so
    its exterior boundary is one ring: three hexagons meet at every lattice
    vertex, each two of them sharing a face, so the mask cells on
    consecutive edges of the connected curve between the mask and the
    unbounded complement are the same cell or face neighbours.
    """
    if not mask:
        raise DegenerateInstanceError("empty mask")
    cells = list(mask)
    board = CellBoard(cells)

    rest, kept = board.occupied, 0
    while rest:
        comp = board.flood(rest & -rest, rest)
        if comp.bit_count() > kept.bit_count():
            kept = comp
        rest &= ~comp

    # Dead-end stubs: removing one can expose another, so run to a fixed
    # point. `one` and `two` are the bit-sliced neighbour counts, saturated
    # at two.
    while True:
        one = two = 0
        for step in board.steps(kept):
            two |= one & step
            one |= step
        dead = kept & one & ~two
        if not dead:
            break
        kept &= ~dead
    if not kept:
        raise DegenerateInstanceError("dead-end removal emptied the mask")
    return frozenset(OffsetCoord(*c) for c, i in zip(cells, board.bits) if kept >> i & 1)


# ---------------------------------------------------------------------------
# Base attachment


def line_of_sight(
    launch: Point, targets: Sequence[Point], polygon: PolygonWithHoles, h: float
) -> list[bool]:
    """Whether each launch->target segment reaches its target cell cleanly.

    The launch sits outside the survey area and approaches over open water,
    which is never an obstruction. Sight is blocked by coastline occlusion
    (the segment would cross the outer ring more than the one unavoidable
    entry) and by obstacle holes (measurable segment length inside one).
    """
    import numpy as np

    start, ends = point_array([launch]), point_array(targets)
    outer_cross, _, _ = segment_crossings(start, ends, ring_array(polygon.outer))
    clear = (outer_cross.sum(axis=1) <= 1).tolist()
    if not polygon.holes:
        return clear
    holes = [ring_array(hole) for hole in polygon.holes]
    # Where each segment crosses each hole edge: the parameter t in (0, 1).
    crossings = []
    for hole in holes:
        cross, d0, d1 = segment_crossings(start, ends, hole)
        crossings.append((cross, np.divide(d0, d0 - d1, out=np.zeros(cross.shape), where=cross)))
    # The midpoint of every measurable piece between crossings, and its target.
    mids: list[tuple[float, float]] = []
    owners: list[int] = []
    for k, target in enumerate(targets):
        if not clear[k]:
            continue
        params = [0.0, 1.0]
        for cross, t in crossings:
            params.extend(t[k, cross[k]].tolist())
        params.sort()
        seg_len = math.hypot(target.x - launch.x, target.y - launch.y)
        tol = 1e-7 * max(h, seg_len)
        for t0, t1 in zip(params, params[1:]):
            if (t1 - t0) * seg_len <= tol:
                continue
            tm = 0.5 * (t0 + t1)
            mids.append((
                launch.x + tm * (target.x - launch.x),
                launch.y + tm * (target.y - launch.y),
            ))
            owners.append(k)
    if mids:
        mid_points = point_array(mids)
        for hole in holes:
            for k, inside in zip(owners, points_in_ring(mid_points, hole)):
                if inside:
                    clear[k] = False
    return clear


def default_launch_point(polygon: PolygonWithHoles, h: float, seed: int) -> Point:
    """Launch position on a seed-chosen side of the AOI bounding box."""
    rng = substream(seed, STREAM_BASE)
    side = int(rng.integers(0, 4))
    xs = [p.x for p in polygon.outer]
    ys = [p.y for p in polygon.outer]
    cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))
    d = LAUNCH_STANDOFF_CELLS * h
    if side == 0:
        return Point(cx, min(ys) - d)
    if side == 1:
        return Point(max(xs) + d, cy)
    if side == 2:
        return Point(cx, max(ys) + d)
    return Point(min(xs) - d, cy)


def attach_base(
    mask: HexMask,
    polygon: PolygonWithHoles,
    seed: int,
    launch: Point | None = None,
) -> CoverageGraph:
    """Place the launch point and wire up base/terminal links.

    Both virtual nodes share the launch position and link to the same set of
    exterior-ring cells with a clear line of sight from the launch.
    """
    coords = sorted(mask.coords)
    if launch is None:
        launch = default_launch_point(polygon, mask.h, seed)
    index = {c: i for i, c in enumerate(coords)}
    outer_cells = sorted(exterior_boundary(mask.coords))
    centers = [mask.frame.to_world(offset_to_center(c, mask.h)) for c in outer_cells]
    sight = line_of_sight(launch, centers, polygon, mask.h)
    links = [index[c] for c, clear in zip(outer_cells, sight) if clear]
    if not links:
        raise BaseAttachmentError("no outer-ring cell has line of sight from the launch")
    return graph_from_coords(coords, mask.h, links, links, launch, mask.frame)


# ---------------------------------------------------------------------------
# Full instance pipeline


class GenerationConfig(NamedTuple):
    hex_radius: float = 1.0
    scale: float = 1.0
    size_band: tuple[int, int] = SIZE_BAND
    family_mix: tuple[tuple[str, float], ...] = (
        ("compact", 0.56),
        ("irregular", 0.32),
        ("elongated", 0.12),
    )

    def validate(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.hex_radius, self.scale)):
            raise InvalidParameterError("hex_radius and scale must be positive and finite")
        # A cell area past the double range (h above about 8.32e153) is
        # refused here: from about 2e154 the clip's products of coordinates
        # overflow, and numpy would warn ahead of the error line.
        if not math.isfinite(hexagon_area(self.hex_radius)):
            raise InvalidParameterError(
                f"hex_radius {self.hex_radius!r} is too large: its cell area is not finite"
            )
        if len(self.size_band) != 2 or not 0 < self.size_band[0] <= self.size_band[1]:
            raise InvalidParameterError(f"invalid size_band {list(self.size_band)}")
        if any(family not in FAMILIES for family, _ in self.family_mix):
            raise InvalidParameterError(f"family_mix families must be among {FAMILIES}")
        if not all(math.isfinite(w) and w >= 0 for _, w in self.family_mix):
            raise InvalidParameterError("family_mix weights must be finite and non-negative")
        total = sum(w for _, w in self.family_mix)
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError("family mix weights must sum to 1")

    def to_dict(self) -> dict:
        return {
            "hex_radius": self.hex_radius,
            "scale": self.scale,
            "size_band": list(self.size_band),
            "family_mix": [[f, w] for f, w in self.family_mix],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GenerationConfig":
        """The config a JSON object describes; an absent key keeps its default.

        A non-object, an unknown key, or a value of the wrong shape or type
        raises InvalidParameterError, as does a config `validate` refuses.
        """
        if not isinstance(d, dict):
            raise InvalidParameterError("generation config must be a JSON object")
        convert = {
            "hex_radius": lambda value: _json_number(value, "hex_radius"),
            "scale": lambda value: _json_number(value, "scale"),
            "size_band": lambda band: tuple(_json_number(b, "size_band", int) for b in band),
            "family_mix": lambda mix: tuple((f, _json_number(w, "family_mix")) for f, w in mix),
        }
        kwargs = {}
        for key, value in d.items():
            if key not in convert:
                raise InvalidParameterError(f"unknown generation config key {key!r}")
            try:
                kwargs[key] = convert[key](value)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(f"bad generation config {key}: {value!r}") from exc
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


class Rejection(NamedTuple):
    seed: int
    family_hint: str
    reason: str  # degenerate | size-band | base-attachment | infeasible
    detail: str = ""


def choose_family(seed: int, config: GenerationConfig) -> str:
    u = float(substream(seed, STREAM_FAMILY).random())
    acc = 0.0
    for family, weight in config.family_mix:
        acc += weight
        if u < acc:
            return family
    return config.family_mix[-1][0]


# The most seeds one block of generation takes. A block clips the candidate
# cells of all its seeds in one pass, which pays the clip kernel's fixed cost
# (six stages of some 50 numpy calls each) once; that pass's arrays, and the
# peak RSS with them, grow with the seeds in it.
BLOCK_SEEDS = 4


def _finish(family_hint: str, seed: int, polygon: PolygonWithHoles,
            morphology: MorphologyClass, mask: HexMask, config):
    """The pipeline of one seed from its tessellated mask on: an audited
    Instance or a typed Rejection."""
    from hexcover.oracle import hamiltonian_audit

    try:
        coords = postprocess_mask(mask.coords)
    except DegenerateInstanceError as exc:
        return Rejection(seed, family_hint, "degenerate", str(exc))

    lo, hi = config.size_band
    if not (lo <= len(coords) <= hi):
        return Rejection(seed, family_hint, "size-band", f"{len(coords)} cells")

    try:
        graph = attach_base(mask._replace(coords=coords), polygon, seed)
    except BaseAttachmentError as exc:
        return Rejection(seed, family_hint, "base-attachment", str(exc))

    audit = hamiltonian_audit(graph)
    if not audit.feasible:
        return Rejection(seed, family_hint, "infeasible")
    return Instance(seed, family_hint, morphology, graph, audit.witness)


def build_block(seeds: Sequence[tuple[str, int]], config: GenerationConfig) -> list:
    """Run the full generation pipeline for each (family hint, seed) of
    `seeds`: an audited Instance or a typed Rejection for each, in order;
    nothing is silently dropped.

    Each seed is sampled and gets its holes. Its final polygon is then
    validated, its outer ring's minimum rotated rectangle computed and its
    morphology classified, each once and only here; the rectangle also
    frames its lattice candidates. One tessellate call then clips the
    candidate cells of the whole block, and each seed goes on through its
    own mask, post-processing, size band, base attachment and audit.
    """
    config.validate()
    out: list = [None] * len(seeds)
    shaped: list[tuple[int, PolygonWithHoles, MorphologyClass]] = []
    lattices: list[Lattice] = []
    for k, (family_hint, seed) in enumerate(seeds):
        try:
            polygon = insert_obstacles(sample_aoi(family_hint, seed, config.scale), seed)
            polygon.validate()
            rect = min_rotated_rect(polygon.outer)
            morphology = classify_morphology(polygon, rect)
            lattices.append(lattice_candidates(polygon, rect, config.hex_radius))
        except InvalidGeometryError as exc:
            out[k] = Rejection(seed, family_hint, "degenerate", str(exc))
            continue
        shaped.append((k, polygon, morphology))
    for (k, polygon, morphology), mask in zip(shaped, tessellate(lattices, config.hex_radius)):
        out[k] = _finish(*seeds[k], polygon, morphology, mask, config)
    return out


def build_instance(family_hint: str, seed: int, config: GenerationConfig):
    """Run the full generation pipeline for one seed: build_block on a block
    of one. Returns an audited Instance or a typed Rejection."""
    return build_block([(family_hint, seed)], config)[0]
