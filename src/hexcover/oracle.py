"""Exact Hamiltonian-path feasibility decision for coverage graphs.

`hamiltonian_audit` is the dataset admission gate: depth-first search with
backtracking over bitmask states, accelerated by soundness-preserving pruning
rules and a low-residual-degree child ordering. The cut-cell rule follows
F. Rubin, "A Search Procedure for Hamilton Paths and Circuits", J. ACM 21(4),
1974. `brute_force_enumerate` is an independent cross-check that walks every
adjacency-valid cell permutation with no ordering heuristics and no pruning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from hexcover.graphbuild import CoverageGraph
from hexcover.hexgeom import InvalidParameterError

PRUNE_CONNECTIVITY = "connectivity"
PRUNE_LOW_DEGREE = "low-degree"
PRUNE_TERMINAL = "terminal-reach"
PRUNE_CUT = "cut-cell"
ALL_PRUNES = frozenset({PRUNE_CONNECTIVITY, PRUNE_LOW_DEGREE, PRUNE_TERMINAL, PRUNE_CUT})

BRUTE_FORCE_MAX_CELLS = 12


@dataclass(frozen=True)
class AuditResult:
    feasible: bool | None  # None means the search budget ran out
    witness: tuple[int, ...] | None
    nodes_expanded: int
    elapsed_ms: float


class _Budget(Exception):
    pass


def _adjacency_masks(g: CoverageGraph) -> list[int]:
    masks = []
    for i in range(g.n):
        m = 0
        for j in g.cell_neighbors(i):
            m |= 1 << j
        masks.append(m)
    return masks


def _connected(adj: list[int], n: int) -> bool:
    if n == 0:
        return False
    full = (1 << n) - 1
    reach = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= adj[b.bit_length() - 1]
            m ^= b
        frontier = nxt & ~reach
        reach |= frontier
    return reach == full


def _cut_cells_admit(v: int, unvisited: int, adj: list[int], term_mask: int) -> bool:
    """One Tarjan low-point pass over the unvisited cells plus the current one.

    The rest of the path starts at `v` and passes each cut cell once, so it
    can never come back through one. Hence, rooted at `v`: every cell must
    be reached, `v` may have at most one DFS child, and any other cut cell
    may separate at most one subtree from `v`, which must hold a
    terminal-link cell because the path ends inside it.
    """
    alive = unvisited | (1 << v)
    disc = {v: 0}
    low = {v: 0}
    has_term: dict[int, int] = {}
    cuts: set[int] = set()
    seen = 1 << v
    stack = [[v, adj[v] & alive]]
    while True:
        top = stack[-1]
        u, pending = top
        if pending:
            b = pending & -pending
            top[1] = pending ^ b
            w = b.bit_length() - 1
            if seen & b:
                if disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                seen |= b
                disc[w] = low[w] = len(disc)
                has_term[w] = term_mask >> w & 1
                stack.append([w, adj[w] & alive])
            continue
        stack.pop()
        if len(stack) <= 1:
            # The first subtree of `v` is complete. A cell still unseen is
            # either unreachable or a second child of `v`: both are fatal.
            return seen == alive
        p = stack[-1][0]
        if low[u] < low[p]:
            low[p] = low[u]
        has_term[p] |= has_term[u]
        if low[u] >= disc[p]:
            if not has_term[u] or p in cuts:
                return False
            cuts.add(p)


def hamiltonian_audit(
    g: CoverageGraph, budget: int | None = None, prunes: frozenset = ALL_PRUNES
) -> AuditResult:
    """Decide whether a base->terminal path visiting every cell once exists.

    Exact when run to completion. With a node-expansion budget the result may
    be inconclusive (feasible=None) but never a false negative. The pruning
    set only discards provably dead branches:

    - connectivity: every unvisited cell must stay reachable from the current
      cell through unvisited cells;
    - low-degree: among unvisited cells, only the next move and the final
      cell may have at most one unvisited neighbor, and only the final cell
      may have none;
    - terminal-reach: some unvisited cell adjacent to the terminal must
      remain, or the path cannot end;
    - cut-cell: see `_cut_cells_admit`. Its Tarjan pass costs more than the
      other rules together, and a search that never backtracks gains nothing
      from it, so it runs only once some child has returned False.

    Children are ordered by ascending residual degree, then index, which
    makes nodes_expanded reproducible.
    """
    start = time.perf_counter()
    n = g.n
    adj = _adjacency_masks(g)
    if not _connected(adj, n):
        return AuditResult(False, None, 0, _ms(start))

    full = (1 << n) - 1
    term_mask = 0
    for t in g.terminal_links:
        term_mask |= 1 << t

    expanded = 0
    backtracked = False
    path: list[int] = []

    def dfs(v: int, visited: int) -> bool:
        nonlocal expanded, backtracked
        expanded += 1
        if budget is not None and expanded > budget:
            raise _Budget
        if visited == full:
            return bool(term_mask >> v & 1)

        unvisited = full & ~visited
        if PRUNE_TERMINAL in prunes and not (unvisited & term_mask):
            return False

        if PRUNE_LOW_DEGREE in prunes:
            zero = low = 0
            m = unvisited
            while m:
                b = m & -m
                u = b.bit_length() - 1
                m ^= b
                d = (adj[u] & unvisited & ~b).bit_count()
                if d == 0:
                    zero += 1
                if d <= 1:
                    low += 1
            if zero >= 2 or low > 2:
                return False

        if PRUNE_CONNECTIVITY in prunes:
            frontier = adj[v] & unvisited
            reach = frontier
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    b = m & -m
                    nxt |= adj[b.bit_length() - 1]
                    m ^= b
                frontier = nxt & unvisited & ~reach
                reach |= frontier
            if reach != unvisited:
                return False

        if backtracked and PRUNE_CUT in prunes and not _cut_cells_admit(
            v, unvisited, adj, term_mask
        ):
            return False

        cands = []
        m = adj[v] & unvisited
        while m:
            b = m & -m
            j = b.bit_length() - 1
            m ^= b
            cands.append(((adj[j] & unvisited & ~b).bit_count(), j))
        cands.sort()
        for _, j in cands:
            path.append(j)
            if dfs(j, visited | (1 << j)):
                return True
            path.pop()
            backtracked = True
        return False

    starts = sorted(
        g.base_links, key=lambda s: ((adj[s] & ~(1 << s)).bit_count(), s)
    )
    try:
        for s in starts:
            path.append(s)
            if dfs(s, 1 << s):
                walk = (g.base_node, *path, g.terminal_node)
                return AuditResult(True, walk, expanded, _ms(start))
            path.pop()
    except _Budget:
        return AuditResult(None, None, expanded, _ms(start))
    return AuditResult(False, None, expanded, _ms(start))


def brute_force_enumerate(g: CoverageGraph) -> AuditResult:
    """Unpruned, unordered enumeration of all adjacency-valid cell orders.

    Independent cross-check for hamiltonian_audit; refuses graphs above
    BRUTE_FORCE_MAX_CELLS because the permutation space explodes.
    """
    if g.n > BRUTE_FORCE_MAX_CELLS:
        raise InvalidParameterError(
            f"brute force refused: {g.n} cells exceeds {BRUTE_FORCE_MAX_CELLS}"
        )
    start = time.perf_counter()
    n = g.n
    term = set(g.terminal_links)
    expanded = 0
    path: list[int] = []

    def extend(v: int, visited: set[int]) -> bool:
        nonlocal expanded
        expanded += 1
        if len(visited) == n:
            return v in term
        for j in g.cell_neighbors(v):
            if j in visited:
                continue
            visited.add(j)
            path.append(j)
            if extend(j, visited):
                return True
            path.pop()
            visited.remove(j)
        return False

    for s in sorted(g.base_links):
        path.append(s)
        if extend(s, {s}):
            walk = (g.base_node, *path, g.terminal_node)
            return AuditResult(True, walk, expanded, _ms(start))
        path.pop()
    return AuditResult(False, None, expanded, _ms(start))


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0
