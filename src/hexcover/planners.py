"""The 17 deterministic coverage heuristics behind one dispatch interface.

Seven families: linear sweeps, interleaved sweeps, contour/spiral traversals,
spanning-tree coverage, graph-based local search (four Warnsdorff variants
plus DFS-Backtrack), wavefront descent, and a Morton space-filling order.
Everything is a pure function of the graph, and no planner keeps anything
between calls: each computes its own sweep rows, onion rings or tree, so its
latency covers all the work its walk needs, whichever methods ran before it.
Where a rule needs a tie-break the package-wide default is ascending node
index. The registry at the end maps each slug of the method table
(`hexcover.methods`) to the one planner call that makes its variant; the
import fails if a row or an entry is left without the other.

Within a family the members differ along one or two axes. A sweep is a row
sequence (all rows bottom-up, or `interleaved_row_sequence`) times a row
traversal (serpentine, one-way, or segment by segment). Warnsdorff,
DFS-Backtrack and Wavefront share one greedy loop, which takes the candidate
of least score, an integer rank plus residual degree. Each gives its rank
per cell (1 on a terminal link under TI, 0 under EP and DFS-Backtrack, -8 x
label for Wavefront), whether a score tie goes to the shorter step before
the lower index, its dead-end rule (stop, hop back through visited cells, or
bridge to the highest remaining label) and the nodes it may leave through to
the terminal. DFS-Backtrack is Warnsdorff-EP (index) that backtracks at a
dead end instead of stopping. EP counts the terminal in a candidate's
residual degree only at the last move, when a single candidate is left, so
never counting it picks the same cell.

Every order-driven planner runs on one walker, the two STC planners included
(over the circumnavigation of their tree). The walker steps to the next
target when it is adjacent, and otherwise takes the lexicographically least
minimum-hop path through cells. Two hops away, that path goes through the
first cell neighbour of the head adjacent to the target, which needs no
search.

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
from typing import Callable, NamedTuple, Sequence

from hexcover.lattice import CoverageGraph
from hexcover.methods import METHODS, method_row


class PlanResult(NamedTuple):
    """A planned walk; `lattice.validate_path` grades it.

    `fail_reason` names why a planner gave up before reaching the terminal.
    """

    walk: tuple[int, ...]
    fail_reason: str | None = None


# ---------------------------------------------------------------------------
# Shared primitives


def _bfs(g: CoverageGraph, frm: int, targets, through) -> list[int] | None:
    """Minimum-hop path from `frm` to the nearest node in `targets` whose
    intermediate nodes all lie in `through`; a target is always admissible.

    Layers expand in adjacency (ascending index) order, so a node's first
    discoverer is its parent on the lexicographically least minimum-hop
    path, and a single target is done once discovered. Of several equally
    near targets the lowest index wins, so the layer that finds the first is
    finished before one is chosen. Returns None when no target is reachable.
    """
    if frm in targets:
        return [frm]
    adjacency = g.adjacency
    single = len(targets) == 1
    # parent[w] is w's discoverer, -1 until w is discovered; frm is its own.
    parent = [-1] * len(adjacency)
    parent[frm] = frm
    hits: list[int] = []
    layer = [frm]
    while layer and not hits:
        nxt = []
        for u in layer:
            for w in adjacency[u]:
                if parent[w] != -1:
                    continue
                if w in targets:
                    parent[w] = u
                    if single:
                        return _path_back(parent, w)
                    hits.append(w)
                elif w in through:
                    parent[w] = u
                    nxt.append(w)
        layer = nxt
    return _path_back(parent, min(hits)) if hits else None


def _path_back(parent: list[int], node: int) -> list[int]:
    path = [node]
    while parent[node] != node:
        node = parent[node]
        path.append(node)
    return path[::-1]


def _euclid(g: CoverageGraph, a: int, b: int) -> float:
    # Bit for bit the hypot of the coordinate differences.
    return math.dist(g.positions[a], g.positions[b])


def _extend_to(g: CoverageGraph, walk: list[int], targets, through=None) -> bool:
    """Append the shortest path from walk head to the nearest target whose
    intermediate nodes lie in `through` (by default, any cell)."""
    path = _bfs(g, walk[-1], targets, range(g.n) if through is None else through)
    if path is None:
        return False
    walk.extend(path[1:])
    return True


def _two_hop_via(g: CoverageGraph, head: int, target: int) -> int:
    """For a `target` not adjacent to `head`: the middle of the path
    `_bfs(g, head, (target,), range(g.n))` returns if that path has two
    hops, else -1 (the target is the head, farther, or unreachable).

    That middle is the first cell neighbour of the head (ascending) that is
    adjacent to the target, so no search is needed to find it.
    """
    adjacency = g.adjacency
    if target != head:
        for via in adjacency[head]:
            if via < g.n and target in adjacency[via]:
                return via
    return -1


def _visit_order_walk(g: CoverageGraph, order: Sequence[int]) -> PlanResult:
    """Enter from base, honour `order` with shortest-path reconnections, exit."""
    adjacency = g.adjacency
    walk = [g.base_node]
    for target in order:
        head = walk[-1]
        if target in adjacency[head]:
            walk.append(target)
            continue
        via = _two_hop_via(g, head, target)
        if via >= 0:
            walk += (via, target)
        elif not _extend_to(g, walk, (target,)):
            return PlanResult(tuple(walk), "unreachable-cell")
    if not _extend_to(g, walk, (g.terminal_node,)):
        return PlanResult(tuple(walk), "terminal-unreachable")
    return PlanResult(tuple(walk))


# ---------------------------------------------------------------------------
# Families 1 and 2: linear and interleaved sweeps


def sweep_rows(g: CoverageGraph) -> list[list[int]]:
    """Sweep rows bottom-up, each ordered by principal-axis (column) position.

    Cells are indexed in (col, row) order, so each row comes out in column
    order as it is collected.
    """
    rows: dict[int, list[int]] = {}
    for i, c in enumerate(g.coords):
        rows.setdefault(c[1], []).append(i)
    return [rows[r] for r in sorted(rows)]


def _first_row_left_start(g: CoverageGraph, rows) -> bool:
    return _euclid(g, g.base_node, rows[0][0]) <= _euclid(g, g.base_node, rows[0][-1])


def _segments(g: CoverageGraph, row: Sequence[int]) -> list[list[int]]:
    """Maximal runs of face-adjacent cells within one column-ordered row."""
    segs: list[list[int]] = []
    for i in row:
        if segs and i in g.internal_adjacency[segs[-1][-1]]:
            segs[-1].append(i)
        else:
            segs.append([i])
    return segs


def _row_order(row: Sequence[int], leftward: bool) -> Sequence[int]:
    return row if leftward else row[::-1]


def interleaved_row_sequence(k: int) -> list[int]:
    """Even-indexed rows ascending, then odd-indexed rows ascending."""
    return list(range(0, k, 2)) + list(range(1, k, 2))


def serpentine_order(g: CoverageGraph, row_sequence: Callable[[int], Sequence[int]]) -> list[int]:
    """Rows in `row_sequence(row count)` order, alternating direction.

    The first row runs from its end nearer the base.
    """
    rows = sweep_rows(g)
    leftward = _first_row_left_start(g, rows)
    order = []
    for pos, ri in enumerate(row_sequence(len(rows))):
        order.extend(_row_order(rows[ri], leftward == (pos % 2 == 0)))
    return order


def row_oneway_order(g: CoverageGraph) -> list[int]:
    """Every row bottom-up in the first row's direction; the fly-back is the
    reconnection between rows."""
    rows = sweep_rows(g)
    leftward = _first_row_left_start(g, rows)
    return [i for row in rows for i in _row_order(row, leftward)]


def segment_order(g: CoverageGraph, row_sequence: Callable[[int], Sequence[int]]) -> list[int]:
    """Visit each row's segments nearest-end-first from the current position."""
    rows = sweep_rows(g)
    order: list[int] = []
    pos = g.base_node
    for ri in row_sequence(len(rows)):
        pending = _segments(g, rows[ri])
        while pending:
            # Segments start at distinct cells, so s[0] settles every tie.
            picks = []
            for k, s in enumerate(pending):
                to_first, to_last = _euclid(g, pos, s[0]), _euclid(g, pos, s[-1])
                picks.append((min(to_first, to_last), s[0], to_first > to_last, k))
            _, _, backward, k = min(picks)
            seg = pending.pop(k)
            order.extend(seg[::-1] if backward else seg)
            pos = order[-1]
    return order


# ---------------------------------------------------------------------------
# Family 3: contour / spiral


def onion_rings(g: CoverageGraph) -> list[list[int]]:
    """Peel boundary layers: cells with fewer than 6 remaining neighbors,
    each layer in ascending index order."""
    degree = [len(nbrs) for nbrs in g.internal_adjacency]
    remaining: Sequence[int] = range(g.n)
    rings = []
    while remaining:
        ring = [i for i in remaining if degree[i] < 6]
        remaining = [i for i in remaining if degree[i] == 6]
        for i in ring:
            for j in g.internal_adjacency[i]:
                degree[j] -= 1
        rings.append(ring)
    return rings


def _centroid(g: CoverageGraph, cells) -> tuple[float, float]:
    # Added left to right from 0.0, not by sum(): from Python 3.12 on, sum()
    # of floats is compensated and may round differently.
    sx = sy = 0.0
    for i in cells:
        x, y = g.positions[i]
        sx += x
        sy += y
    return sx / len(cells), sy / len(cells)


def _angular_ring_order(g: CoverageGraph, ring: Sequence[int], around, start_near: int) -> list[int]:
    cx, cy = around
    keyed = sorted(
        ring,
        key=lambda i: (math.atan2(g.positions[i][1] - cy, g.positions[i][0] - cx), i),
    )
    start = min(keyed, key=lambda i: (_euclid(g, start_near, i), i))
    k = keyed.index(start)
    return keyed[k:] + keyed[:k]


def _spiral_order(g: CoverageGraph, rings, prev: int) -> list[int]:
    """Each ring in angular order around the centroid of the cells not yet
    traversed, starting at the cell nearest the previous ring's last cell
    (`prev` for the first ring)."""
    order: list[int] = []
    not_traversed = set(range(g.n))
    for ring in rings:
        ordered = _angular_ring_order(g, ring, _centroid(g, sorted(not_traversed)), prev)
        order.extend(ordered)
        prev = ordered[-1]
        not_traversed -= set(ring)
    return order


def spiral_inward_order(g: CoverageGraph) -> list[int]:
    """Outermost ring first, entered nearest the base."""
    return _spiral_order(g, onion_rings(g), g.base_node)


def spiral_outward_order(g: CoverageGraph) -> list[int]:
    """Innermost ring first, entered at its cell nearest the centroid."""
    rings = onion_rings(g)[::-1]
    cx, cy = _centroid(g, range(g.n))
    start = min(
        rings[0],
        key=lambda i: (math.dist(g.positions[i], (cx, cy)), i),
    )
    return _spiral_order(g, rings, start)


def plan_boundary_peel(g: CoverageGraph) -> PlanResult:
    """Adjacency-first layer traversal with BFS reconnections."""
    walk = [g.base_node]
    for ring in onion_rings(g):
        pending = set(ring)
        while pending:
            v = walk[-1]
            nxt = None
            if v != g.base_node:
                nxt = next((j for j in g.internal_adjacency[v] if j in pending), None)
            if nxt is not None:
                walk.append(nxt)
            elif not _extend_to(g, walk, pending):
                return PlanResult(tuple(walk), "unreachable-cell")
            pending.discard(walk[-1])
    if not _extend_to(g, walk, (g.terminal_node,)):
        return PlanResult(tuple(walk), "terminal-unreachable")
    return PlanResult(tuple(walk))


# ---------------------------------------------------------------------------
# Family 4: spanning-tree coverage


def _stc_root(g: CoverageGraph) -> int:
    # min keeps the first of equal keys, so ties go to the lowest index.
    return min(range(g.n), key=lambda i: _euclid(g, g.base_node, i))


def _bfs_tree(g: CoverageGraph, root: int) -> dict[int, list[int]]:
    """Children of every cell reached from `root`, in BFS order."""
    children: dict[int, list[int]] = {root: []}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.internal_adjacency[u]:
            if w not in children:
                children[u].append(w)
                children[w] = []
                queue.append(w)
    return children


def _distance_biased_tree(g: CoverageGraph, root: int) -> dict[int, list[int]]:
    """Grow the tree nearest-cell-first, measured from the root position."""
    children: dict[int, list[int]] = {root: []}
    heap: list[tuple[float, int, int]] = []
    for w in g.internal_adjacency[root]:
        heapq.heappush(heap, (_euclid(g, root, w), w, root))
    while heap:
        _, w, parent = heapq.heappop(heap)
        if w in children:
            continue
        children[parent].append(w)
        children[w] = []
        for x in g.internal_adjacency[w]:
            if x not in children:
                heapq.heappush(heap, (_euclid(g, root, x), x, w))
    for u in children:
        children[u].sort()
    return children


def _circumnavigate(children: dict[int, list[int]], root: int) -> list[int]:
    """Depth-first tree walk that retraces every edge on backtrack: a node,
    then after each child's walk the node again.

    An explicit stack of what is left to write, so a tree of any depth is
    walked: a node `u` to enter, or `~u` (negative) to write `u` again.
    """
    seq: list[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        if u < 0:
            seq.append(~u)
            continue
        seq.append(u)
        for c in reversed(children[u]):
            stack += (~u, c)
    return seq


def _stc_walk(g: CoverageGraph, root: int, children: dict[int, list[int]]) -> PlanResult:
    """Around the tree from `root`, then every cell the tree missed.

    A tree spans the component of its root, so a missed cell lies in another
    component and the walk fails there as `unreachable-cell`.
    """
    missed = [i for i in range(g.n) if i not in children]
    return _visit_order_walk(g, _circumnavigate(children, root) + missed)


def plan_stc_tree(g: CoverageGraph) -> PlanResult:
    """Circumnavigate a BFS spanning tree; fails when the tree cannot span."""
    root = _stc_root(g)
    children = _bfs_tree(g, root)
    if len(children) != g.n:
        return PlanResult((g.base_node,), "tree-not-spanning")
    return _stc_walk(g, root, children)


def plan_stc_like(g: CoverageGraph) -> PlanResult:
    """Circumnavigate a distance-biased tree, then reconnect to what it missed."""
    root = _stc_root(g)
    return _stc_walk(g, root, _distance_biased_tree(g, root))


# ---------------------------------------------------------------------------
# Families 5 and 6: Warnsdorff variants, DFS-Backtrack and wavefront descent


# A visit sets a cell's score to _VISITED. Its neighbours' later visits take
# at most 6 off that, so a score is below _OPEN exactly while it is an
# unvisited cell's. No rank comes near either bound, and both fit in one
# 30-bit digit, which CPython subtracts and compares on its fast path.
_VISITED = 1 << 20
_OPEN = _VISITED >> 1


def _greedy(
    g: CoverageGraph,
    walk: list[int],
    rank: Sequence[int],
    by_distance: bool,
    reconnect: Callable[[int, set[int]], list[int] | None] | None,
    leave_via,
) -> PlanResult:
    """Extend `walk` one cell at a time until every cell is visited, then exit.

    From the walk head `v`, the next cell is the unvisited neighbour `j` of
    least score `rank[j] + d`, where `d` is the residual degree of `j`: its
    unvisited neighbour cells. Scores are kept as cells are visited. A tie
    goes to the shorter Euclidean step when `by_distance`, and otherwise (or
    on equal steps) to the lower index. At a dead end, `reconnect(v,
    visited)` gives a path from `v` whose cells count as visited. Without
    `reconnect` the walk fails as a `dead-end`; when it finds no path, with
    `unreachable-cells`. The exit is the shortest path to the terminal whose
    intermediate nodes lie in `leave_via`.
    """
    n = g.n
    adjacency, cells = g.adjacency, g.internal_adjacency
    visited: set[int] = set()
    # Indexed by node: the two virtual nodes are never candidates.
    score = [r + len(nbrs) for r, nbrs in zip(rank, cells)] + [_VISITED, _VISITED]

    def visit(u: int) -> None:
        visited.add(u)
        score[u] = _VISITED
        for k in cells[u]:
            score[k] -= 1

    for u in walk[1:]:
        visit(u)
    v = walk[-1]
    while len(visited) < n:
        best, best_score = -1, _OPEN
        for j in adjacency[v]:
            s = score[j]
            if s < best_score:
                best, best_score = j, s
            elif s == best_score and by_distance and _euclid(g, v, j) < _euclid(g, v, best):
                best = j
        if best >= 0:
            visit(best)
            walk.append(best)
            v = best
            continue
        path = reconnect(v, visited) if reconnect else None
        if path is None:
            return PlanResult(tuple(walk), "unreachable-cells" if reconnect else "dead-end")
        for u in path[1:]:
            if u not in visited:
                visit(u)
        walk.extend(path[1:])
        v = path[-1]
    if not _extend_to(g, walk, (g.terminal_node,), leave_via):
        return PlanResult(tuple(walk), "terminal-unreachable")
    return PlanResult(tuple(walk))


def plan_warnsdorff(g: CoverageGraph, terminal_inclusive: bool, by_distance: bool) -> PlanResult:
    """Greedy minimum-residual-degree traversal; no backtracking.

    The terminal stays out of the candidate set while targets remain, and
    the walk must step from its last cell straight onto the terminal.
    Terminal adjacency counts inside the residual degree under TI (rank 1 on
    a terminal-linked cell) and not under EP (rank 0 everywhere). (The EP
    rule counts it at the last move only, where a single candidate is left,
    so it never changes a choice.) The tie-break is node index, or Euclidean
    step length when `by_distance`. Because a dead end terminates
    immediately, its walk never grades as CoverageSuccess: it either
    finishes revisit-free or fails.
    """
    rank = [0] * g.n
    if terminal_inclusive:
        for t in g.terminal_links:
            rank[t] = 1
    return _greedy(g, [g.base_node], rank, by_distance, None, ())


def plan_dfs_backtrack(g: CoverageGraph) -> PlanResult:
    """Warnsdorff-EP (index) with BFS backtracking over the visited subgraph."""

    def backtrack(v: int, visited: set[int]) -> list[int] | None:
        # Hop back through visited cells to the nearest one that still has
        # an unexplored branch.
        anchors = {u for u in visited if any(w not in visited for w in g.internal_adjacency[u])}
        return _bfs(g, v, anchors, visited)

    return _greedy(g, [g.base_node], [0] * g.n, False, backtrack, range(g.n))


def wavefront_labels(g: CoverageGraph) -> list[int]:
    """BFS hop distance from the terminal frontier (terminal-linked cells)."""
    labels = [-1] * g.n
    queue = deque()
    for t in g.terminal_links:
        labels[t] = 0
        queue.append(t)
    while queue:
        u = queue.popleft()
        for w in g.internal_adjacency[u]:
            if labels[w] == -1:
                labels[w] = labels[u] + 1
                queue.append(w)
    return labels


def plan_wavefront(g: CoverageGraph) -> PlanResult:
    """Greedy descent of a terminal-seeded distance field, with connectors.

    Moves to the unvisited neighbor with the highest wavefront label; ties
    fall through residual unvisited degree, Euclidean step length, and node
    index. The rank -8 x label does this: a residual degree is at most 6, so
    the label decides first. When stuck, a BFS connector bridges to the
    highest-label remaining cell, marking traversed cells as covered.
    """
    labels = wavefront_labels(g)

    def connector(v: int, visited: set[int]) -> list[int] | None:
        # The connector goes to the highest label that is still reachable.
        remaining = [j for j in range(g.n) if j not in visited]
        for top in sorted({labels[j] for j in remaining}, reverse=True):
            path = _bfs(g, v, {j for j in remaining if labels[j] == top}, range(g.n))
            if path is not None:
                return path
        return None

    entry = min(g.base_links, key=lambda j: (-labels[j], j))
    return _greedy(
        g, [g.base_node, entry], [-8 * label for label in labels], True, connector, range(g.n)
    )


# ---------------------------------------------------------------------------
# Family 7: Morton space-filling order


def _spread_byte(b: int) -> int:
    """The byte `b` with its bit i moved to bit 2i."""
    b = (b | b << 4) & 0x0F0F
    b = (b | b << 2) & 0x3333
    return (b | b << 1) & 0x5555


_BYTE_SPREAD = tuple(map(_spread_byte, range(256)))


def morton_code(qx: int, qy: int) -> int:
    """Interleave the bits of non-negative `qx` (even positions) and `qy`
    (odd positions), a byte of each at a time."""
    code = 0
    for s in range(0, max(qx, qy).bit_length(), 8):
        code |= (_BYTE_SPREAD[qx >> s & 255] | _BYTE_SPREAD[qy >> s & 255] << 1) << 2 * s
    return code


def morton_order(g: CoverageGraph, bits: int = 16) -> list[int]:
    xs = [g.positions[i][0] for i in range(g.n)]
    ys = [g.positions[i][1] for i in range(g.n)]
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


# ---------------------------------------------------------------------------
# Registry and dispatch


def _registry() -> dict[str, Callable[[CoverageGraph], PlanResult]]:
    """One run function per row of the method table, in its order: the
    planner call that makes the variant."""
    runs = {
        "boustrophedon": lambda g: _visit_order_walk(g, serpentine_order(g, range)),
        "row-oneway": lambda g: _visit_order_walk(g, row_oneway_order(g)),
        "segment-snake": lambda g: _visit_order_walk(g, segment_order(g, range)),
        "row-interleave":
            lambda g: _visit_order_walk(g, serpentine_order(g, interleaved_row_sequence)),
        "seg-interleave":
            lambda g: _visit_order_walk(g, segment_order(g, interleaved_row_sequence)),
        "spiral-inward": lambda g: _visit_order_walk(g, spiral_inward_order(g)),
        "spiral-outward": lambda g: _visit_order_walk(g, spiral_outward_order(g)),
        "boundary-peel": plan_boundary_peel,
        "stc-tree": plan_stc_tree,
        "stc-like": plan_stc_like,
        "warnsdorff-ep-index":
            lambda g: plan_warnsdorff(g, terminal_inclusive=False, by_distance=False),
        "warnsdorff-ep-dist":
            lambda g: plan_warnsdorff(g, terminal_inclusive=False, by_distance=True),
        "warnsdorff-ti-index":
            lambda g: plan_warnsdorff(g, terminal_inclusive=True, by_distance=False),
        "warnsdorff-ti-dist":
            lambda g: plan_warnsdorff(g, terminal_inclusive=True, by_distance=True),
        "dfs-backtrack": plan_dfs_backtrack,
        "wavefront-hex": plan_wavefront,
        "morton": lambda g: _visit_order_walk(g, morton_order(g)),
    }
    unpaired = runs.keys() ^ METHODS.keys()
    if unpaired:
        raise ImportError(f"methods and planners do not pair up: {sorted(unpaired)}")
    return {slug: runs[slug] for slug in METHODS}


PLANNERS = _registry()


def plan(g: CoverageGraph, slug: str) -> PlanResult:
    """Dispatch one heuristic on one graph."""
    return PLANNERS[method_row(slug).slug](g)


def timed_plan(g: CoverageGraph, slug: str) -> tuple[PlanResult, float]:
    """plan() wrapped in a monotonic clock around the planner body only."""
    run = PLANNERS[method_row(slug).slug]
    t0 = time.perf_counter()
    result = run(g)
    return result, (time.perf_counter() - t0) * 1000.0
