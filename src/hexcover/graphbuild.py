"""AOI tessellation, occupancy-mask post-processing, and graph assembly.

The lattice frame is anchored at the centre of the minimum rotated rectangle
of the outer ring, with the column axis along the rectangle's long side. A
cell is retained when at least half of its hexagon lies in free space. The
retained mask is cleaned up (largest component, iterated dead-end removal),
then the launch point and the two virtual nodes are attached and the result
is audited for Hamiltonian feasibility.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

from hexcover.aoi import (
    FAMILIES,
    STREAM_BASE,
    STREAM_FAMILY,
    AoiShape,
    MorphologyClass,
    insert_obstacles,
    sample_aoi,
    substream,
)
from hexcover.hexgeom import (
    SQRT3,
    InvalidGeometryError,
    InvalidParameterError,
    OffsetCoord,
    Point,
    PolygonWithHoles,
    free_overlap_areas,
    hexagon_area,
    min_rotated_rect,
    neighbor_offsets,
    offset_to_center,
    point_array,
    points_in_ring,
    ring_array,
    ring_crossing_params,
    ring_edges,
)

RETENTION_FRACTION = 0.5
SIZE_BAND = (28, 46)
# Launch distance beyond the AOI bounding box, in circumradius units. This
# far standoff is what puts normalized path lengths on the benchmark scale
# (the per-instance normalization radius is dominated by the launch leg).
LAUNCH_STANDOFF_CELLS = 24.0


class EmptyTessellationError(ValueError):
    pass


class DegenerateInstanceError(ValueError):
    pass


class BaseAttachmentError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeFrame:
    """Rigid transform between lattice-local and world coordinates."""

    origin: Point
    angle: float

    @functools.cached_property
    def _cos_sin(self) -> tuple[float, float]:
        # A graph load maps every cell through one frame: one cos and sin.
        return math.cos(self.angle), math.sin(self.angle)

    def to_world(self, p: Point) -> Point:
        ca, sa = self._cos_sin
        (ox, oy), (x, y) = self.origin, p
        return Point(ox + ca * x - sa * y, oy + sa * x + ca * y)

    def to_local(self, p: Point) -> Point:
        ca, sa = self._cos_sin
        dx, dy = p.x - self.origin.x, p.y - self.origin.y
        return Point(ca * dx + sa * dy, -sa * dx + ca * dy)


@dataclass(frozen=True)
class HexMask:
    coords: frozenset[OffsetCoord]
    frame: LatticeFrame
    h: float


class CoverageGraph:
    """Immutable benchmark graph: indexed cells plus virtual base/terminal nodes.

    Cells are indexed 0..n-1 in (col, row) lexicographic order, and two cells
    are joined exactly when they are face-adjacent. The base node is n and
    the terminal node n+1. Both virtual nodes share one physical position and
    one set of linked outer-ring cells. `coords` holds the lattice coordinate
    of every cell and `positions` the point of every node id, the two virtual
    nodes included. `adjacency[v]` holds the ascending neighbours of node v,
    and `internal_adjacency[i]` the neighbour cells of cell i.
    """

    def __init__(
        self,
        coords,
        h: float,
        base_links,
        terminal_links,
        base_pos: Point,
        frame: LatticeFrame,
    ):
        self.coords = coords = tuple(sorted(OffsetCoord(*c) for c in coords))
        self.h = h
        self.frame = frame
        self.base_pos = base_pos
        self.base_links = tuple(sorted(set(base_links)))
        self.terminal_links = tuple(sorted(set(terminal_links)))
        self.n = n = len(coords)
        self.base_node = n
        self.terminal_node = n + 1
        if coords and h <= 0:
            raise InvalidParameterError(f"circumradius must be positive, got {h}")
        # offset_to_center, then frame.to_world, expression for expression.
        col_w, row_h = 1.5 * h, SQRT3 * h
        (ox, oy), (ca, sa) = frame.origin, frame._cos_sin
        centers = []
        for col, row in coords:
            x, y = col_w * col, row_h * (row - 0.5 * (col & 1))
            centers.append(Point(ox + ca * x - sa * y, oy + sa * x + ca * y))
        self.positions = (*centers, base_pos, base_pos)
        if not self.base_links or not self.terminal_links:
            raise InvalidParameterError("base and terminal must link to at least one cell")
        links = self.base_links + self.terminal_links
        if min(links) < 0 or max(links) >= n:
            raise InvalidParameterError("link index out of range")

        # Plain (col, row) tuples hash and compare as the OffsetCoord keys do.
        # The offsets ascend and so do the indices of ascending coordinates,
        # so each row of neighbours comes out ascending.
        index = {c: i for i, c in enumerate(coords)}
        if len(index) < n:
            raise InvalidParameterError("repeated cell coordinate")
        internal = []
        for col, row in coords:
            nbrs = []
            for dc, dr in neighbor_offsets(col):
                j = index.get((col + dc, row + dr))
                if j is not None:
                    nbrs.append(j)
            internal.append(tuple(nbrs))
        self.internal_adjacency = tuple(internal)

        # A linked cell's row ends with the base, then the terminal.
        full = [*internal, self.base_links, self.terminal_links]
        for i in self.base_links:
            full[i] += (n,)
        for i in self.terminal_links:
            full[i] += (n + 1,)
        self.adjacency = tuple(full)

    @functools.cached_property
    def base_radius(self) -> float:
        """Largest cell-to-base distance, the scale of normalised path
        lengths; computed on first use, which no planner makes."""
        bx, by = self.base_pos
        return max(math.hypot(x - bx, y - by) for x, y in self.positions[: self.n])


def graph_from_coords(
    coords,
    h: float,
    base_links,
    terminal_links,
    base_pos: Point,
    frame: LatticeFrame | None = None,
) -> CoverageGraph:
    """Build a graph straight from lattice coordinates (fixtures, file loads)."""
    fr = frame or LatticeFrame(Point(0.0, 0.0), 0.0)
    return CoverageGraph(coords, h, base_links, terminal_links, base_pos, fr)


# ---------------------------------------------------------------------------
# Tessellation


def tessellate(aoi: AoiShape, h: float) -> HexMask:
    """Occupancy mask of lattice cells with >= 50% free-space overlap.

    The lattice is mounted in the minimum-rotated-rectangle frame of the
    outer ring: origin at the rectangle centre, columns along the long side.
    Only the cells near some ring edge are clipped (see _cells_near_rings),
    all in one free_overlap_areas call; every other cell lies wholly inside
    or outside each ring, so its overlap is its whole hexagon or nothing,
    and its centre decides it.
    """
    if h <= 0:
        raise InvalidParameterError("hex radius must be positive")
    rect = min_rotated_rect(aoi.polygon.outer)
    frame = LatticeFrame(rect.center, rect.angle)

    local_outer = tuple(frame.to_local(p) for p in aoi.polygon.outer)
    local_holes = tuple(tuple(frame.to_local(p) for p in hole) for hole in aoi.polygon.holes)
    local_poly = PolygonWithHoles(local_outer, local_holes)

    xs = [p.x for p in local_outer]
    ys = [p.y for p in local_outer]
    x_lo, x_hi, y_lo, y_hi = min(xs) - h, max(xs) + h, min(ys) - h, max(ys) + h
    col_lo = math.floor(x_lo / (1.5 * h))
    col_hi = math.ceil(x_hi / (1.5 * h))
    row_lo = math.floor(y_lo / (SQRT3 * h)) - 1
    row_hi = math.ceil(y_hi / (SQRT3 * h)) + 1
    # A margin far above the rounding error of any coordinate in the frame.
    pad = 1e-9 * (h + max(map(abs, xs + ys)))
    near = _cells_near_rings((local_outer, *local_holes), h, pad)

    # Centres are offset_to_center's expressions on plain numbers; only the
    # kept cells become OffsetCoords.
    col_w, row_h = 1.5 * h, SQRT3 * h
    kept = set()
    clipped: list[tuple[int, int]] = []
    clipped_centers: list[tuple[float, float]] = []
    far: list[tuple[int, int]] = []
    far_centers: list[tuple[float, float]] = []
    for col in range(col_lo, col_hi + 1):
        x = col_w * col
        if x < x_lo or x > x_hi:
            continue
        shift = 0.5 * (col & 1)
        for row in range(row_lo, row_hi + 1):
            y = row_h * (row - shift)
            if y < y_lo or y > y_hi:
                continue
            if (col, row) in near:
                clipped.append((col, row))
                clipped_centers.append((x, y))
            else:
                far.append((col, row))
                far_centers.append((x, y))
    if clipped:
        areas = free_overlap_areas(point_array(clipped_centers), h, local_poly)
        retained = areas >= RETENTION_FRACTION * hexagon_area(h)
        kept.update(OffsetCoord(*c) for c, keep in zip(clipped, retained) if keep)
    if far:
        # Free space is inside the outer ring and outside every hole.
        centers = point_array(far_centers)
        free = points_in_ring(centers, ring_array(local_outer))
        for hole in local_holes:
            free &= ~points_in_ring(centers, ring_array(hole))
        kept.update(OffsetCoord(*c) for c, keep in zip(far, free) if keep)
    if not kept:
        raise EmptyTessellationError("no cell reaches the retention threshold")
    return HexMask(frozenset(kept), frame, h)


def _cells_near_rings(rings, h: float, pad: float) -> set[tuple[int, int]]:
    """Every lattice cell whose hexagon's box, widened by `pad`, meets the box
    of some ring edge.

    A cell outside this set has no ring edge within `pad` of its hexagon.
    """
    col_w, row_w = 1.5 * h, SQRT3 * h
    half_w, half_h = h + pad, 0.5 * SQRT3 * h + pad
    near = set()
    for ring in rings:
        for (x0, y0), (x1, y1) in ring_edges(ring):
            lo_x, hi_x = min(x0, x1) - half_w, max(x0, x1) + half_w
            lo_y, hi_y = min(y0, y1) - half_h, max(y0, y1) + half_h
            for col in range(math.ceil(lo_x / col_w), math.floor(hi_x / col_w) + 1):
                # Centre y of (col, row) is row_w * (row - shift).
                shift = 0.5 * (col & 1)
                for row in range(
                    math.ceil(lo_y / row_w + shift), math.floor(hi_y / row_w + shift) + 1
                ):
                    near.add((col, row))
    return near


# ---------------------------------------------------------------------------
# Mask post-processing


def _neighbor_table(cells) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Each cell's face neighbours in `cells`, as (col, row) tuples."""
    return {
        (col, row): [
            nb for dc, dr in neighbor_offsets(col) if (nb := (col + dc, row + dr)) in cells
        ]
        for col, row in cells
    }


def _components(cells, table) -> list[set[tuple[int, int]]]:
    """The face-connected components of `cells`, walked over their neighbour table."""
    unseen = set(cells)
    comps = []
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for c in frontier:
                for nb in table[c]:
                    if nb in unseen and nb not in comp:
                        comp.add(nb)
                        nxt.append(nb)
            frontier = nxt
        comps.append(comp)
        unseen -= comp
    return comps


def exterior_boundary(cells: frozenset[OffsetCoord] | set[OffsetCoord]) -> set[OffsetCoord]:
    """Mask cells adjacent to the unbounded complement region.

    The complement is flood-filled inside the cells' bounding box grown by
    one, held as one integer: box column k takes bits k*s .. k*s + height - 1
    with s = height + 1, and the bit left over between columns stays clear,
    so no shift carries a row off one column into the next. A cell's
    neighbours are 1 and s bits away, and s + 1 or s - 1 bits away as its
    column is even or odd (`neighbor_offsets`).
    """
    if not cells:
        return set()
    cells = list(cells)  # one order for cols, rows and bits
    cols = [c[0] for c in cells]
    rows = [c[1] for c in cells]
    lo_c, lo_r = min(cols) - 1, min(rows) - 1
    height = max(rows) - lo_r + 2
    s = height + 1
    bits = [(col - lo_c) * s + row - lo_r for col, row in zip(cols, rows)]
    column = (1 << height) - 1
    even = odd = 0
    for k in range(max(cols) - lo_c + 2):
        if (lo_c + k) & 1:
            odd |= column << k * s
        else:
            even |= column << k * s
    occupied = 0
    for i in bits:
        occupied |= 1 << i
    free = (even | odd) & ~occupied

    def grow(x: int) -> int:
        e, o = x & even, x & odd
        return (
            x | x << 1 | x >> 1 | x << s | x >> s
            | e << (s + 1) | e >> (s - 1) | o << (s - 1) | o >> (s + 1)
        )

    outside, seen = 1, 0  # bit 0 is the box corner (lo_c, lo_r), never a cell
    while outside != seen:
        seen, outside = outside, grow(outside) & free
    touched = grow(outside)
    return {c for c, i in zip(cells, bits) if touched >> i & 1}


def postprocess_mask(mask) -> frozenset[OffsetCoord]:
    """Largest component, then iterated dead-end removal.

    Idempotent and strictly non-expanding. Both rules read one table of each
    cell's neighbours in the mask. Of equal-size largest components the one
    with the least cell is kept. Raises DegenerateInstanceError if the rules
    empty the mask.

    The result is face-connected (dead-end removal takes only leaves), so
    its exterior boundary is one ring: three hexagons meet at every lattice
    vertex, each two of them sharing a face, so the mask cells on
    consecutive edges of the connected curve between the mask and the
    unbounded complement are the same cell or face neighbours.
    """
    cells = {(col, row) for col, row in mask}
    if not cells:
        raise DegenerateInstanceError("empty mask")
    table = _neighbor_table(cells)

    comps = sorted(_components(cells, table), key=lambda comp: (-len(comp), min(comp)))
    cells = comps[0]

    # Dead-end stubs: removing one can expose another, so run to a fixed point.
    while True:
        dead = [c for c in cells if sum(nb in cells for nb in table[c]) == 1]
        if not dead:
            break
        cells -= set(dead)
    if not cells:
        raise DegenerateInstanceError("dead-end removal emptied the mask")
    return frozenset(OffsetCoord(col, row) for col, row in cells)


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
    ends = point_array(targets)
    outer_cross, _ = ring_crossing_params(launch, ends, ring_array(polygon.outer))
    clear = (outer_cross.sum(axis=1) <= 1).tolist()
    if not polygon.holes:
        return clear
    holes = [ring_array(hole) for hole in polygon.holes]
    crossings = [ring_crossing_params(launch, ends, hole) for hole in holes]
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


def default_launch_point(aoi: AoiShape, h: float, seed: int) -> Point:
    """Launch position on a seed-chosen side of the AOI bounding box."""
    rng = substream(seed, STREAM_BASE)
    side = int(rng.integers(0, 4))
    xs = [p.x for p in aoi.polygon.outer]
    ys = [p.y for p in aoi.polygon.outer]
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
    aoi: AoiShape,
    seed: int,
    launch: Point | None = None,
) -> CoverageGraph:
    """Place the launch point and wire up base/terminal links.

    Both virtual nodes share the launch position and link to the same set of
    exterior-ring cells with a clear line of sight from the launch.
    """
    coords = sorted(mask.coords)
    if launch is None:
        launch = default_launch_point(aoi, mask.h, seed)
    index = {c: i for i, c in enumerate(coords)}
    outer_cells = sorted(exterior_boundary(mask.coords))
    centers = [mask.frame.to_world(offset_to_center(c, mask.h)) for c in outer_cells]
    sight = line_of_sight(launch, centers, aoi.polygon, mask.h)
    links = [index[c] for c, clear in zip(outer_cells, sight) if clear]
    if not links:
        raise BaseAttachmentError("no outer-ring cell has line of sight from the launch")
    return graph_from_coords(coords, mask.h, links, links, launch, mask.frame)


# ---------------------------------------------------------------------------
# Full instance pipeline


def _json_number(value, kind=(int, float)):
    """`value` if it is a JSON number of Python type `kind`: JSON true and
    false load as bools, which Python counts as ints."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{value!r} is not a JSON number of the right type")
    return value


@dataclass(frozen=True)
class GenerationConfig:
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
            "hex_radius": lambda value: float(_json_number(value)),
            "scale": lambda value: float(_json_number(value)),
            "size_band": lambda band: tuple(_json_number(b, int) for b in band),
            "family_mix": lambda mix: tuple((f, float(_json_number(w))) for f, w in mix),
        }
        kwargs = {}
        for key, value in d.items():
            if key not in convert:
                raise InvalidParameterError(f"unknown generation config key {key!r}")
            try:
                kwargs[key] = convert[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidParameterError(f"bad generation config {key}: {value!r}") from exc
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class Instance:
    """An admitted instance: what a dataset record holds, and all it holds."""

    seed: int
    family_hint: str
    morphology: MorphologyClass
    hex_radius: float
    graph: CoverageGraph

    @property
    def id(self) -> str:
        """`hx` and the seed in ten digits: the name records, results and
        reports give the instance."""
        return f"hx{self.seed:010d}"


@dataclass(frozen=True)
class Rejection:
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


def build_instance(family_hint: str, seed: int, config: GenerationConfig):
    """Run the full generation pipeline for one seed.

    Returns an audited Instance or a typed Rejection; nothing is silently
    dropped.
    """
    from hexcover.oracle import hamiltonian_audit

    config.validate()
    shape = sample_aoi(family_hint, seed, config.scale)
    try:
        shape = insert_obstacles(shape, seed)
        mask = tessellate(shape, config.hex_radius)
        coords = postprocess_mask(mask.coords)
    except (InvalidGeometryError, EmptyTessellationError, DegenerateInstanceError) as exc:
        return Rejection(seed, family_hint, "degenerate", str(exc))

    lo, hi = config.size_band
    if not (lo <= len(coords) <= hi):
        return Rejection(seed, family_hint, "size-band", f"{len(coords)} cells")

    try:
        graph = attach_base(replace(mask, coords=coords), shape, seed)
    except BaseAttachmentError as exc:
        return Rejection(seed, family_hint, "base-attachment", str(exc))

    if not hamiltonian_audit(graph).feasible:
        return Rejection(seed, family_hint, "infeasible")
    return Instance(seed, shape.family_hint, shape.morphology, config.hex_radius, graph)
