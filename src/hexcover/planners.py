"""The 17 deterministic coverage heuristics behind one dispatch interface.

Seven families: linear sweeps, interleaved sweeps, contour/spiral traversals,
spanning-tree coverage, graph-based local search (four Warnsdorff variants
plus DFS-Backtrack), wavefront descent, and a Morton space-filling order.
Everything is a pure function of the graph; where a rule needs a tie-break
the package-wide default is ascending node index.

Sweep rows deserve a note: the tessellation lattice is mounted with columns
along the long axis of the instance, so a "row" in the sweep sense is simply
the offset row index, and ordering a row by column equals ordering it by the
principal-axis projection.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from hexcover.graphbuild import CoverageGraph
from hexcover.hexgeom import InvalidParameterError

FAMILY_LINEAR_SWEEP = "LinearSweep"
FAMILY_INTERLEAVED = "Interleaved"
FAMILY_CONTOUR = "Contour"
FAMILY_STC = "STC"
FAMILY_GRAPH = "Graph"
FAMILY_WAVEFRONT = "Wavefront"
FAMILY_SPACE_FILLING = "SpaceFilling"


@dataclass(frozen=True)
class PlanResult:
    """A planned walk; `metrics.validate_path` grades it.

    `fail_reason` names why a planner gave up before reaching the terminal.
    """

    walk: tuple[int, ...]
    fail_reason: str | None = None


@dataclass(frozen=True)
class WarnsdorffConfig:
    tie_break: str  # "index" | "distance"
    policy: str  # "EP" | "TI"


# ---------------------------------------------------------------------------
# Shared primitives


def _bfs(
    g: CoverageGraph, frm: int, targets, allowed: Callable[[int], bool]
) -> list[int] | None:
    """Minimum-hop path from `frm` to the nearest node in `targets`.

    Layers expand in adjacency (ascending index) order and ties between
    equally near targets go to the lowest index. `allowed` constrains the
    intermediate nodes only; a target is always admissible. Returns None
    when no target is reachable.
    """
    parent: dict[int, int | None] = {frm: None}
    hits = [frm] if frm in targets else []
    layer = [frm]
    while layer and not hits:
        nxt = []
        for u in layer:
            for w in g.neighbors(u):
                if w in parent:
                    continue
                if w in targets:
                    hits.append(w)
                elif not allowed(w):
                    continue
                parent[w] = u
                nxt.append(w)
        layer = nxt
    if not hits:
        return None
    path = []
    node: int | None = min(hits)
    while node is not None:
        path.append(node)
        node = parent[node]
    return path[::-1]


def bfs_shortest_path(
    g: CoverageGraph,
    frm: int,
    to: int,
    traversable: Callable[[int], bool] | None = None,
) -> list[int] | None:
    """Minimum-hop path; BFS layers expand in ascending node index.

    `traversable` constrains intermediate nodes only; the endpoints are
    always admissible. Returns None when unreachable.
    """
    return _bfs(g, frm, (to,), traversable or (lambda _node: True))


def _internal_only(g: CoverageGraph) -> Callable[[int], bool]:
    n = g.n
    return lambda node: node < n


def _euclid(g: CoverageGraph, a: int, b: int) -> float:
    pa, pb = g.positions[a], g.positions[b]
    return math.hypot(pb.x - pa.x, pb.y - pa.y)


def _extend_to(g: CoverageGraph, walk: list[int], targets) -> bool:
    """Append the shortest internal path from walk head to the nearest target."""
    path = _bfs(g, walk[-1], targets, _internal_only(g))
    if path is None:
        return False
    walk.extend(path[1:])
    return True


def _visit_order_walk(g: CoverageGraph, order: Sequence[int]) -> PlanResult:
    """Enter from base, honour `order` with shortest-path reconnections, exit."""
    walk = [g.base_node]
    for target in order:
        if target == walk[-1]:
            continue
        if target in g.neighbors(walk[-1]) and walk[-1] != g.base_node:
            walk.append(target)
        elif not _extend_to(g, walk, (target,)):
            return PlanResult(tuple(walk), "unreachable-cell")
    if not _extend_to(g, walk, (g.terminal_node,)):
        return PlanResult(tuple(walk), "terminal-unreachable")
    return PlanResult(tuple(walk))


# ---------------------------------------------------------------------------
# Families 1 and 2: linear and interleaved sweeps


def sweep_rows(g: CoverageGraph) -> list[list[int]]:
    """Sweep rows bottom-up, each ordered by principal-axis (column) position."""
    rows: dict[int, list[int]] = {}
    for i, cell in enumerate(g.cells):
        rows.setdefault(cell.coord.row, []).append(i)
    out = []
    for r in sorted(rows):
        out.append(sorted(rows[r], key=lambda i: (g.cells[i].coord.col, i)))
    return out


def _first_row_left_start(g: CoverageGraph, rows: list[list[int]]) -> bool:
    first = rows[0]
    d_left = _euclid(g, g.base_node, first[0])
    d_right = _euclid(g, g.base_node, first[-1])
    return d_left <= d_right


def _segments(g: CoverageGraph, row: list[int]) -> list[list[int]]:
    """Maximal runs of face-adjacent cells within one column-ordered row."""
    segs: list[list[int]] = []
    for i in row:
        if segs and i in g.cell_neighbors(segs[-1][-1]):
            segs[-1].append(i)
        else:
            segs.append([i])
    return segs


def _row_order(row: list[int], leftward: bool) -> list[int]:
    return row if leftward else list(reversed(row))


def _snake_segments_order(g: CoverageGraph, rows: list[list[int]], row_sequence) -> list[int]:
    """Visit each row's segments nearest-end-first from the current position."""
    order: list[int] = []
    pos = g.base_node
    for ri in row_sequence:
        pending = _segments(g, rows[ri])
        while pending:
            best = None
            for k, seg in enumerate(pending):
                d_head = _euclid(g, pos, seg[0])
                d_tail = _euclid(g, pos, seg[-1])
                forward = d_head <= d_tail
                d = min(d_head, d_tail)
                key = (d, seg[0])
                if best is None or key < best[0]:
                    best = (key, k, forward)
            _, k, forward = best
            seg = pending.pop(k)
            seg = seg if forward else list(reversed(seg))
            order.extend(seg)
            pos = seg[-1]
    return order


def linear_sweep_order(g: CoverageGraph, variant: str) -> list[int]:
    rows = sweep_rows(g)
    leftward = _first_row_left_start(g, rows)
    if variant == "boustrophedon":
        order = []
        for k, row in enumerate(rows):
            order.extend(_row_order(row, leftward if k % 2 == 0 else not leftward))
        return order
    if variant == "row-oneway":
        # Fixed row direction; the fly-back is the reconnection between rows.
        order = []
        for row in rows:
            order.extend(_row_order(row, leftward))
        return order
    if variant == "segment-snake":
        return _snake_segments_order(g, rows, range(len(rows)))
    raise InvalidParameterError(f"unknown linear sweep variant {variant!r}")


def plan_linear_sweep(g: CoverageGraph, variant: str) -> PlanResult:
    return _visit_order_walk(g, linear_sweep_order(g, variant))


def interleaved_row_sequence(k: int) -> list[int]:
    """Even-indexed rows ascending, then odd-indexed rows ascending."""
    return list(range(0, k, 2)) + list(range(1, k, 2))


def interleaved_sweep_order(g: CoverageGraph, variant: str) -> list[int]:
    rows = sweep_rows(g)
    seq = interleaved_row_sequence(len(rows))
    if variant == "row-interleave":
        leftward = _first_row_left_start(g, rows)
        order = []
        for pos, ri in enumerate(seq):
            order.extend(_row_order(rows[ri], leftward if pos % 2 == 0 else not leftward))
        return order
    if variant == "seg-interleave":
        return _snake_segments_order(g, rows, seq)
    raise InvalidParameterError(f"unknown interleaved variant {variant!r}")


def plan_interleaved(g: CoverageGraph, variant: str) -> PlanResult:
    return _visit_order_walk(g, interleaved_sweep_order(g, variant))


# ---------------------------------------------------------------------------
# Family 3: contour / spiral


def onion_rings(g: CoverageGraph) -> list[list[int]]:
    """Peel boundary layers: cells with fewer than 6 remaining neighbors."""
    remaining = set(range(g.n))
    rings = []
    while remaining:
        ring = sorted(
            i for i in remaining if sum(j in remaining for j in g.cell_neighbors(i)) < 6
        )
        rings.append(ring)
        remaining -= set(ring)
    return rings


def _centroid(g: CoverageGraph, cells) -> tuple[float, float]:
    xs = [g.positions[i].x for i in cells]
    ys = [g.positions[i].y for i in cells]
    return sum(xs) / len(xs), sum(ys) / len(ys)


def _angular_ring_order(g: CoverageGraph, ring: list[int], around, start_near: int) -> list[int]:
    cx, cy = around
    keyed = sorted(
        ring,
        key=lambda i: (math.atan2(g.positions[i].y - cy, g.positions[i].x - cx), i),
    )
    start = min(keyed, key=lambda i: (_euclid(g, start_near, i), i))
    k = keyed.index(start)
    return keyed[k:] + keyed[:k]


def spiral_order(g: CoverageGraph, variant: str) -> list[int]:
    """Ring visit order for the two spiral variants (inward or outward)."""
    rings = onion_rings(g)
    if variant == "spiral-inward":
        sequence = rings
        prev = g.base_node
    elif variant == "spiral-outward":
        sequence = list(reversed(rings))
        cx, cy = _centroid(g, range(g.n))
        prev = min(
            sequence[0],
            key=lambda i: (math.hypot(g.positions[i].x - cx, g.positions[i].y - cy), i),
        )
    else:
        raise InvalidParameterError(f"unknown spiral variant {variant!r}")
    order: list[int] = []
    not_traversed = set(range(g.n))
    for ring in sequence:
        ordered = _angular_ring_order(g, ring, _centroid(g, sorted(not_traversed)), prev)
        order.extend(ordered)
        prev = ordered[-1]
        not_traversed -= set(ring)
    return order


def plan_contour(g: CoverageGraph, variant: str) -> PlanResult:
    if variant in ("spiral-inward", "spiral-outward"):
        return _visit_order_walk(g, spiral_order(g, variant))

    if variant == "boundary-peel":
        rings = onion_rings(g)
        # Adjacency-first layer traversal with BFS reconnections.
        walk = [g.base_node]
        for ring in rings:
            pending = set(ring)
            while pending:
                v = walk[-1]
                nxt = None
                if v != g.base_node:
                    for j in g.cell_neighbors(v):
                        if j in pending:
                            nxt = j
                            break
                if nxt is not None:
                    walk.append(nxt)
                elif not _extend_to(g, walk, pending):
                    return PlanResult(tuple(walk), "unreachable-cell")
                pending.discard(walk[-1])
        if not _extend_to(g, walk, (g.terminal_node,)):
            return PlanResult(tuple(walk), "terminal-unreachable")
        return PlanResult(tuple(walk))

    raise InvalidParameterError(f"unknown contour variant {variant!r}")


# ---------------------------------------------------------------------------
# Family 4: spanning-tree coverage


def _stc_root(g: CoverageGraph) -> int:
    return min(range(g.n), key=lambda i: (_euclid(g, g.base_node, i), i))


def _bfs_tree(g: CoverageGraph, root: int) -> tuple[dict[int, list[int]], set[int]]:
    children: dict[int, list[int]] = {root: []}
    reached = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.cell_neighbors(u):
            if w in reached:
                continue
            reached.add(w)
            children[u].append(w)
            children.setdefault(w, [])
            queue.append(w)
    return children, reached


def _distance_biased_tree(g: CoverageGraph, root: int) -> tuple[dict[int, list[int]], set[int]]:
    """Grow the tree nearest-cell-first, measured from the root position."""
    children: dict[int, list[int]] = {root: []}
    reached = {root}
    heap: list[tuple[float, int, int]] = []
    for w in g.cell_neighbors(root):
        heapq.heappush(heap, (_euclid(g, root, w), w, root))
    while heap:
        _, w, parent = heapq.heappop(heap)
        if w in reached:
            continue
        reached.add(w)
        children[parent].append(w)
        children.setdefault(w, [])
        for x in g.cell_neighbors(w):
            if x not in reached:
                heapq.heappush(heap, (_euclid(g, root, x), x, w))
    for u in children:
        children[u].sort()
    return children, reached


def _circumnavigate(children: dict[int, list[int]], root: int) -> list[int]:
    """Depth-first tree walk that retraces every edge on backtrack."""
    seq: list[int] = []

    def visit(u: int) -> None:
        seq.append(u)
        for c in children[u]:
            visit(c)
            seq.append(u)

    visit(root)
    return seq


def plan_stc(g: CoverageGraph, variant: str) -> PlanResult:
    root = _stc_root(g)
    if variant == "stc-tree":
        children, reached = _bfs_tree(g, root)
        if len(reached) != g.n:
            return PlanResult((g.base_node,), "tree-not-spanning")
    elif variant == "stc-like":
        children, reached = _distance_biased_tree(g, root)
    else:
        raise InvalidParameterError(f"unknown STC variant {variant!r}")

    walk = [g.base_node]
    if not _extend_to(g, walk, (root,)):
        return PlanResult(tuple(walk), "unreachable-cell")
    walk.extend(_circumnavigate(children, root)[1:])

    if variant == "stc-like":
        uncovered = set(range(g.n)) - set(walk)
        while uncovered:
            if not _extend_to(g, walk, uncovered):
                return PlanResult(tuple(walk), "unreachable-cell")
            uncovered -= set(walk)

    if not _extend_to(g, walk, (g.terminal_node,)):
        return PlanResult(tuple(walk), "terminal-unreachable")
    return PlanResult(tuple(walk))


# ---------------------------------------------------------------------------
# Family 5: Warnsdorff variants and DFS-Backtrack


def plan_warnsdorff(g: CoverageGraph, cfg: WarnsdorffConfig) -> PlanResult:
    """Greedy minimum-residual-degree traversal; no backtracking.

    The terminal stays out of the candidate set while targets remain. The
    policy decides whether terminal adjacency still counts inside the
    residual degree (TI) or is suppressed until the endgame (EP). Because a
    dead end terminates immediately, its walk never grades as
    CoverageSuccess: it either finishes revisit-free or fails.
    """
    if cfg.tie_break not in ("index", "distance") or cfg.policy not in ("EP", "TI"):
        raise InvalidParameterError(f"bad Warnsdorff config {cfg}")
    term = g.terminal_node
    visited = {g.base_node}
    walk = [g.base_node]
    v = g.base_node
    targets_left = g.n
    while targets_left > 0:
        cands = [j for j in g.neighbors(v) if j not in visited and j != term]
        if not cands:
            return PlanResult(tuple(walk), "dead-end")
        best_key = None
        best = -1
        for j in cands:
            d = 0
            for k in g.neighbors(j):
                if k in visited or k == v:
                    continue
                if k == term and cfg.policy == "EP" and targets_left > 1:
                    continue
                d += 1
            tie = j if cfg.tie_break == "index" else _euclid(g, v, j)
            key = (d, tie, j)
            if best_key is None or key < best_key:
                best_key, best = key, j
        visited.add(best)
        walk.append(best)
        v = best
        targets_left -= 1
    if term in g.neighbors(v):
        walk.append(term)
        return PlanResult(tuple(walk))
    return PlanResult(tuple(walk), "terminal-unreachable")


def plan_dfs_backtrack(g: CoverageGraph) -> PlanResult:
    """Greedy extension with BFS backtracking over the visited subgraph."""
    visited: set[int] = set()
    walk = [g.base_node]
    v = g.base_node
    while len(visited) < g.n:
        cands = [j for j in g.neighbors(v) if j < g.n and j not in visited]
        if cands:
            best = min(
                cands,
                key=lambda j: (
                    sum(
                        1
                        for k in g.cell_neighbors(j)
                        if k not in visited and k != v
                    ),
                    j,
                ),
            )
            visited.add(best)
            walk.append(best)
            v = best
            continue
        # Dead end: hop back through visited cells to the nearest node that
        # still has an unexplored branch.
        anchors = {
            u
            for u in visited
            if any(w not in visited for w in g.cell_neighbors(u))
        }
        path = _bfs(g, v, anchors, lambda node: node < g.n and node in visited)
        if path is None:
            return PlanResult(tuple(walk), "unreachable-cells")
        walk.extend(path[1:])
        v = path[-1]
    if not _extend_to(g, walk, (g.terminal_node,)):
        return PlanResult(tuple(walk), "terminal-unreachable")
    return PlanResult(tuple(walk))


# ---------------------------------------------------------------------------
# Family 6: wavefront descent


def wavefront_labels(g: CoverageGraph) -> list[int]:
    """BFS hop distance from the terminal frontier (terminal-linked cells)."""
    labels = [-1] * g.n
    queue = deque()
    for t in g.terminal_links:
        labels[t] = 0
        queue.append(t)
    while queue:
        u = queue.popleft()
        for w in g.cell_neighbors(u):
            if labels[w] == -1:
                labels[w] = labels[u] + 1
                queue.append(w)
    return labels


def plan_wavefront(g: CoverageGraph) -> PlanResult:
    """Greedy descent of a terminal-seeded distance field, with connectors.

    Moves to the unvisited neighbor with the highest wavefront label; ties
    fall through residual unvisited degree, Euclidean step length, and node
    index. When stuck, a BFS connector bridges to the highest-label remaining
    cell, marking traversed cells as covered.
    """
    labels = wavefront_labels(g)
    entry = min(g.base_links, key=lambda j: (-labels[j], j))
    walk = [g.base_node, entry]
    visited = {entry}
    v = entry
    while len(visited) < g.n:
        cands = [j for j in g.cell_neighbors(v) if j not in visited]
        if cands:
            best = min(
                cands,
                key=lambda j: (
                    -labels[j],
                    sum(1 for k in g.cell_neighbors(j) if k not in visited and k != v),
                    _euclid(g, v, j),
                    j,
                ),
            )
            visited.add(best)
            walk.append(best)
            v = best
            continue
        # The connector goes to the highest label that is still reachable.
        remaining = [j for j in range(g.n) if j not in visited]
        for top in sorted({labels[j] for j in remaining}, reverse=True):
            path = _bfs(g, v, {j for j in remaining if labels[j] == top},
                        _internal_only(g))
            if path is not None:
                break
        else:
            return PlanResult(tuple(walk), "unreachable-cells")
        walk.extend(path[1:])
        visited.update(path[1:])
        v = path[-1]
    if not _extend_to(g, walk, (g.terminal_node,)):
        return PlanResult(tuple(walk), "terminal-unreachable")
    return PlanResult(tuple(walk))


# ---------------------------------------------------------------------------
# Family 7: Morton space-filling order


def morton_code(qx: int, qy: int) -> int:
    """Interleave the bits of `qx` (even positions) and `qy` (odd positions)."""
    code = 0
    for b in range(max(qx, qy).bit_length()):
        code |= ((qx >> b) & 1) << (2 * b)
        code |= ((qy >> b) & 1) << (2 * b + 1)
    return code


def morton_order(g: CoverageGraph, bits: int = 16) -> list[int]:
    xs = [g.positions[i].x for i in range(g.n)]
    ys = [g.positions[i].y for i in range(g.n)]
    lo_x, lo_y = min(xs), min(ys)
    span_x = max(xs) - lo_x
    span_y = max(ys) - lo_y
    top = (1 << bits) - 1

    def quantize(v: float, lo: float, span: float) -> int:
        if span <= 0.0:
            return 0
        return int(math.floor((v - lo) / span * top + 0.5))

    keyed = []
    for i in range(g.n):
        qx = quantize(xs[i], lo_x, span_x)
        qy = quantize(ys[i], lo_y, span_y)
        keyed.append((morton_code(qx, qy), i))
    keyed.sort()
    return [i for _, i in keyed]


def plan_morton(g: CoverageGraph) -> PlanResult:
    return _visit_order_walk(g, morton_order(g))


# ---------------------------------------------------------------------------
# Registry and dispatch


@dataclass(frozen=True)
class PlannerSpec:
    slug: str
    family: str
    display: str
    run: Callable[[CoverageGraph], PlanResult]


def _registry() -> dict[str, PlannerSpec]:
    entries = [
        ("boustrophedon", FAMILY_LINEAR_SWEEP, "Boustrophedon",
         lambda g: plan_linear_sweep(g, "boustrophedon")),
        ("row-oneway", FAMILY_LINEAR_SWEEP, "Row-OneWay",
         lambda g: plan_linear_sweep(g, "row-oneway")),
        ("segment-snake", FAMILY_LINEAR_SWEEP, "Segment-Snake",
         lambda g: plan_linear_sweep(g, "segment-snake")),
        ("row-interleave", FAMILY_INTERLEAVED, "Row-Interleave",
         lambda g: plan_interleaved(g, "row-interleave")),
        ("seg-interleave", FAMILY_INTERLEAVED, "Seg.-Interleave",
         lambda g: plan_interleaved(g, "seg-interleave")),
        ("spiral-inward", FAMILY_CONTOUR, "Spiral-Inward",
         lambda g: plan_contour(g, "spiral-inward")),
        ("spiral-outward", FAMILY_CONTOUR, "Spiral-Outward",
         lambda g: plan_contour(g, "spiral-outward")),
        ("boundary-peel", FAMILY_CONTOUR, "Boundary-Peel",
         lambda g: plan_contour(g, "boundary-peel")),
        ("stc-tree", FAMILY_STC, "STC-Tree", lambda g: plan_stc(g, "stc-tree")),
        ("stc-like", FAMILY_STC, "STC-Like", lambda g: plan_stc(g, "stc-like")),
        ("warnsdorff-ep-index", FAMILY_GRAPH, "Warnsdorff-EP (index)",
         lambda g: plan_warnsdorff(g, WarnsdorffConfig("index", "EP"))),
        ("warnsdorff-ep-dist", FAMILY_GRAPH, "Warnsdorff-EP (dist.)",
         lambda g: plan_warnsdorff(g, WarnsdorffConfig("distance", "EP"))),
        ("warnsdorff-ti-index", FAMILY_GRAPH, "Warnsdorff-TI (index)",
         lambda g: plan_warnsdorff(g, WarnsdorffConfig("index", "TI"))),
        ("warnsdorff-ti-dist", FAMILY_GRAPH, "Warnsdorff-TI (dist.)",
         lambda g: plan_warnsdorff(g, WarnsdorffConfig("distance", "TI"))),
        ("dfs-backtrack", FAMILY_GRAPH, "DFS-Backtrack", plan_dfs_backtrack),
        ("wavefront-hex", FAMILY_WAVEFRONT, "Wavefront-Hex", plan_wavefront),
        ("morton", FAMILY_SPACE_FILLING, "Morton Z-order", plan_morton),
    ]
    return {slug: PlannerSpec(slug, fam, disp, fn) for slug, fam, disp, fn in entries}


PLANNERS = _registry()
METHOD_ORDER = list(PLANNERS)

WARNSDORFF_SLUGS = (
    "warnsdorff-ti-index",
    "warnsdorff-ti-dist",
    "warnsdorff-ep-index",
    "warnsdorff-ep-dist",
)

# Planners whose reconnection mechanism guarantees relaxed coverage.
RECONNECTION_SLUGS = tuple(
    s for s in PLANNERS if s not in WARNSDORFF_SLUGS and s != "dfs-backtrack"
)


def _spec(slug: str) -> PlannerSpec:
    spec = PLANNERS.get(slug)
    if spec is None:
        raise InvalidParameterError(
            f"unknown planner {slug!r}; valid: {', '.join(PLANNERS)}"
        )
    return spec


def plan(g: CoverageGraph, slug: str) -> PlanResult:
    """Dispatch one heuristic on one graph."""
    return _spec(slug).run(g)


def timed_plan(g: CoverageGraph, slug: str) -> tuple[PlanResult, float]:
    """plan() wrapped in a monotonic clock around the planner body only."""
    spec = _spec(slug)
    t0 = time.perf_counter()
    result = spec.run(g)
    return result, (time.perf_counter() - t0) * 1000.0
