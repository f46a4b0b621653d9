"""The instance model: lattice cells, the coverage graph and the instance.

Every command reads this module, and it imports nothing but the standard
library, so `audit`, `run` and `report` load the model without the
generation modules (`hexgeom`, `aoi`, `graphbuild`) or numpy. It also holds
the morphology label rule, which a dataset record is checked against, the
walk grader (`validate_path`), which checks a record's witness and a
result's walk, and the package's error types, which `cli` maps to exit
codes.

Lattice convention (fixed for the whole package): flat-top hexagons addressed
by (col, row) offset coordinates. Column pitch is 1.5*h, row pitch is
sqrt(3)*h, and odd columns sit half a row pitch below even columns, so the
cell (0, 0) is centred on the origin. Two cells are face-adjacent exactly when
their centres are sqrt(3)*h apart.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Sequence

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
# The last three of each: the steps to the neighbours after a cell in
# (col, row) order.
_EVEN_COL_GREATER = _EVEN_COL_NEIGHBORS[3:]
_ODD_COL_GREATER = _ODD_COL_NEIGHBORS[3:]


def offset_to_center(c: OffsetCoord, h: float) -> Point:
    """Centre of lattice cell `c` for circumradius `h`, origin cell at (0,0)."""
    if h <= 0:
        raise InvalidParameterError(f"circumradius must be positive, got {h}")
    x = 1.5 * h * c[0]
    y = SQRT3 * h * (c[1] - 0.5 * (c[0] & 1))
    return Point(x, y)


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
    of every cell as a plain `(col, row)` tuple, and `positions` the world
    point of every node id as a plain `(x, y)` tuple, the two virtual nodes
    included (both are `base_pos`). A plain tuple compares and hashes as the
    OffsetCoord or Point of the same values does, and costs a fraction of
    one to build. `adjacency[v]` holds the ascending neighbours of node v,
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
        self.coords = coords = tuple(sorted((col, row) for col, row in coords))
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
            centers.append((ox + ca * x - sa * y, oy + sa * x + ca * y))
        self.positions = (*centers, base_pos, base_pos)
        if not self.base_links or not self.terminal_links:
            raise InvalidParameterError("base and terminal must link to at least one cell")
        links = self.base_links + self.terminal_links
        if min(links) < 0 or max(links) >= n:
            raise InvalidParameterError("link index out of range")

        # Each edge is looked up once, from its lesser cell. Cell i gets its
        # lesser neighbours, ascending, while the cells before it are
        # walked, and then its greater ones, whose offsets ascend as their
        # indices do, so each row of neighbours comes out ascending.
        index = {c: i for i, c in enumerate(coords)}
        if len(index) < n:
            raise InvalidParameterError("repeated cell coordinate")
        get = index.get
        neighbours = [[] for _ in coords]
        for i, (col, row) in enumerate(coords):
            for dc, dr in _ODD_COL_GREATER if col & 1 else _EVEN_COL_GREATER:
                j = get((col + dc, row + dr))
                if j is not None:
                    neighbours[i].append(j)
                    neighbours[j].append(i)
        self.internal_adjacency = internal = tuple(map(tuple, neighbours))

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


class CellBoard:
    """A cell set as bits of one integer, and the face steps between bits.

    The board is the cells' bounding box grown by one cell on every side.
    Box column k takes bits k*s .. k*s + height - 1 with s = height + 1, and
    the guard bit left over between columns is never a cell, so no shift
    carries a row off one column into the next. A cell's neighbours are 1
    and s bits away, and s + 1 or s - 1 bits away as its column is even or
    odd (`_EVEN_COL_NEIGHBORS`, `_ODD_COL_NEIGHBORS`). Bit order is (col,
    row) order. `bits[k]` is the bit of the k-th cell given, and `occupied`
    the set of all of them.
    """

    __slots__ = ("bits", "occupied", "_s", "_even", "_odd", "_rim")

    def __init__(self, cells: Sequence[tuple[int, int]]):
        cols = [c[0] for c in cells]
        rows = [c[1] for c in cells]
        lo_c, lo_r = min(cols) - 1, min(rows) - 1
        height = max(rows) - lo_r + 2
        width = max(cols) - lo_c + 2
        self._s = s = height + 1
        self.bits = bits = [(col - lo_c) * s + row - lo_r for col, row in zip(cols, rows)]
        column = (1 << height) - 1
        ends = 1 | 1 << (height - 1)
        even = odd = 0
        rim = column | column << (width - 1) * s
        for k in range(width):
            if (lo_c + k) & 1:
                odd |= column << k * s
            else:
                even |= column << k * s
            rim |= ends << k * s
        self._even, self._odd, self._rim = even, odd, rim
        occupied = 0
        for i in bits:
            occupied |= 1 << i
        self.occupied = occupied

    def steps(self, x: int) -> tuple[int, ...]:
        """The six images of bit set `x` one face step away, one per
        direction, so a box bit is set in as many of them as it has
        neighbours in `x`. Guard and out-of-box bits may be set too."""
        s, e, o = self._s, x & self._even, x & self._odd
        return (
            x << 1, x >> 1, x << s, x >> s,
            e << (s + 1) | o << (s - 1), e >> (s - 1) | o >> (s + 1),
        )

    def grow(self, x: int) -> int:
        """`x` and every bit one face step from it."""
        a, b, c, d, e, f = self.steps(x)
        return x | a | b | c | d | e | f

    def flood(self, seed: int, within: int) -> int:
        """The bits of `within` face-connected to `seed` through `within`."""
        reached, seen = seed & within, 0
        while reached != seen:
            seen, reached = reached, self.grow(reached) & within
        return reached

    def exterior(self) -> int:
        """The bits of the cells adjacent to the unbounded complement: the
        free box bits flooded from the box's rim, which no cell is on, then
        grown one step onto the cells.

        The flood takes time with the box, not the cell count, so a caller
        that cannot bound the box checks the cells connected first.
        """
        outside = self.flood(self._rim, (self._even | self._odd) & ~self.occupied)
        return self.grow(outside) & self.occupied


def exterior_boundary(cells: Iterable[tuple[int, int]]) -> set:
    """The cells of `cells` adjacent to the unbounded complement region (see
    `CellBoard.exterior`), as the elements of `cells` they are: OffsetCoords
    for a mask."""
    if not cells:
        return set()
    cells = list(cells)  # one order for cells and bits
    board = CellBoard(cells)
    touched = board.exterior()
    return {c for c, i in zip(cells, board.bits) if touched >> i & 1}


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


# ---------------------------------------------------------------------------
# Walk grading

STATUS_HAMILTONIAN = "HamiltonianSuccess"
STATUS_COVERAGE = "CoverageSuccess"
STATUS_FAIL = "Fail"


class MalformedWalkError(ValueError):
    pass


def validate_path(g: CoverageGraph, walk: Sequence[int]) -> tuple[str, int]:
    """Grade a walk and count its revisits.

    Revisits count internal cells only: total cell visit events minus
    distinct cells visited. A structurally broken walk (wrong start, virtual
    node in the middle, non-adjacent consecutive pair) raises
    MalformedWalkError rather than returning Fail, because it indicates a
    planner bug, not a planner failure. A virtual node anywhere in the body
    is reported before the first non-adjacent pair.
    """
    if not walk or walk[0] != g.base_node:
        raise MalformedWalkError("walk must start at the base node")
    n = g.n
    adjacency = g.adjacency
    a = walk[0]
    gap = None
    for b in walk[1:-1]:
        if b >= n:
            raise MalformedWalkError("virtual node inside the walk body")
        if gap is None and b not in adjacency[a]:
            gap = (a, b)
        a = b
    end = walk[-1]
    if gap is None and len(walk) > 1 and end not in adjacency[a]:
        gap = (a, end)
    if gap is not None:
        raise MalformedWalkError(f"nodes {gap[0]} and {gap[1]} are not adjacent")

    # Only the first node (the base) and the last can be virtual.
    visits = len(walk) - 1 - (len(walk) > 1 and end >= n)
    distinct = len(set(walk)) - 1 - (end == g.terminal_node)
    revisits = visits - distinct
    if distinct == n and end == g.terminal_node:
        return (STATUS_HAMILTONIAN, 0) if revisits == 0 else (STATUS_COVERAGE, revisits)
    return STATUS_FAIL, revisits
