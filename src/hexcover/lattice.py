"""The instance model: lattice cells, the coverage graph and the instance.

Every command reads this module, and it imports nothing but the standard
library, so `audit`, `run` and `report` load the model without the
generation modules (`hexgeom`, `aoi`, `graphbuild`) or numpy. It also holds
the morphology label rule, which a dataset record is checked against, and
the package's error types, which `cli` maps to exit codes.

Lattice convention (fixed for the whole package): flat-top hexagons addressed
by (col, row) offset coordinates. Column pitch is 1.5*h, row pitch is
sqrt(3)*h, and odd columns sit half a row pitch below even columns, so the
cell (0, 0) is centred on the origin. Two cells are face-adjacent exactly when
their centres are sqrt(3)*h apart.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

SQRT3 = math.sqrt(3.0)


class InvalidParameterError(ValueError):
    pass


class InvalidGeometryError(ValueError):
    pass


class IncompleteMatrixError(ValueError):
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


class _FramePose(NamedTuple):
    origin: Point
    angle: float


class LatticeFrame(_FramePose):
    """Rigid transform between lattice-local and world coordinates.

    No `__slots__`: the instance dict holds the cached cos and sin.
    """

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


# ---------------------------------------------------------------------------
# Morphology labels and the instance

LABEL_COMPACT = "Compact"
LABEL_ELONGATED = "Elongated"
LABEL_IRREGULAR = "Irregular"


class MorphologyClass(NamedTuple):
    label: str
    compactness: float
    aspect: float


def label_from(compactness: float, aspect: float) -> str:
    """Threshold partition: elongation wins, then compactness splits the rest."""
    if aspect >= 2.0:
        return LABEL_ELONGATED
    if compactness > 0.6:
        return LABEL_COMPACT
    return LABEL_IRREGULAR


class Instance(NamedTuple):
    """An admitted instance: what a dataset record holds, and all it holds.

    `witness` is the base->terminal walk through every cell once that the
    admission audit found: the certificate a loader checks the instance's
    feasibility by, in one pass over the walk.
    """

    seed: int
    family_hint: str
    morphology: MorphologyClass
    graph: CoverageGraph
    witness: tuple[int, ...]

    @property
    def id(self) -> str:
        """`hx` and the seed in ten digits: the name records, results and
        reports give the instance."""
        return f"hx{self.seed:010d}"


def _json_number(value, field: str, kind=(int, float)):
    """`value` of field `field` if it is a JSON number of Python type `kind`,
    read as a float unless `kind` is int, and then refused unless finite.
    JSON true and false load as bools, which Python counts as ints; NaN,
    Infinity and 1e999 load as floats, and an integer past the double range
    reads as an infinite one."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{field!r} is {value!r}, not a JSON number of the right type")
    if kind is int:
        return value
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise ValueError(f"{field!r} is {x!r}, not a finite number")
    return x
