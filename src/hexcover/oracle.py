"""Exact Hamiltonian-path feasibility decision for coverage graphs.

`hamiltonian_audit` is the dataset admission gate: depth-first search with
backtracking over bitmask states, accelerated by two soundness-preserving
pruning rules, terminal-reach and cut-cell, and a low-residual-degree child
ordering. The cut-cell rule follows F. Rubin, "A Search Procedure for
Hamilton Paths and Circuits", J. ACM 21(4), 1974; it also refuses a graph
in more than one piece, which takes no pass of its own. The rare instance
the search leaves open after DFS_NODE_CAP nodes goes to `frontier_audit`, a
frontier dynamic program whose cost follows the width of the lattice, not
search luck. Both are exact and neither stops short, so every audit is
decided; the widest frontier known costs the DP about 3 s (see
`frontier_audit`). `brute_force_enumerate` is an independent cross-check
that walks every adjacency-valid cell permutation with no ordering
heuristics and no pruning.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from hexcover.lattice import CoverageGraph, InvalidParameterError

PRUNE_TERMINAL = "terminal-reach"
PRUNE_CUT = "cut-cell"
ALL_PRUNES = frozenset({PRUNE_TERMINAL, PRUNE_CUT})

BRUTE_FORCE_MAX_CELLS = 12

# DFS nodes before `hamiltonian_audit` hands an undecided instance to the
# frontier DP. The DFS decides 99.8 % of the audited pipeline seeds of
# 0-11,999 within it (median 39 nodes); past it, the DP is cheaper than
# the rest of the DFS on 18 of the remaining 19.
DFS_NODE_CAP = 2_000
_DONE = -1  # frontier_audit's mate entry for a node of degree 2


class AuditResult(NamedTuple):
    feasible: bool
    witness: tuple[int, ...] | None
    nodes_expanded: int
    elapsed_ms: float


class _CapReached(Exception):
    """The DFS reached DFS_NODE_CAP nodes; the frontier DP takes over."""


def _adjacency_masks(g: CoverageGraph) -> list[int]:
    """Bit j of masks[i] is set when cells i and j are adjacent; a cell is
    never its own neighbour, so no mask holds its own bit."""
    masks = []
    for i in range(g.n):
        m = 0
        for j in g.internal_adjacency[i]:
            m |= 1 << j
        masks.append(m)
    return masks


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


def hamiltonian_audit(g: CoverageGraph, prunes: frozenset = ALL_PRUNES) -> AuditResult:
    """Decide whether a base->terminal path visiting every cell once exists.

    Runs the pruned depth-first search of `_dfs` for up to DFS_NODE_CAP
    nodes; if that leaves the question open, `frontier_audit` settles it.
    Both are exact, so the result is always decided, and `nodes_expanded`
    counts the DFS nodes plus the DP's frontier states.

    A disconnected graph needs no pass of its own. The search dead-ends in
    the component it starts in, and from its first backtrack on, cut-cell
    refuses every node, because a cell of the other component is unreachable;
    `postprocess_mask` keeps one component, so no pipeline graph is one.
    """
    start = time.perf_counter()
    feasible, witness, nodes = _dfs(g, _adjacency_masks(g), prunes)
    if feasible is None:
        dp = frontier_audit(g)
        feasible, witness, nodes = dp.feasible, dp.witness, nodes + dp.nodes_expanded
    return AuditResult(feasible, witness, nodes, _ms(start))


def _dfs(
    g: CoverageGraph, adj: list[int], prunes: frozenset
) -> tuple[bool | None, tuple[int, ...] | None, int]:
    """Depth-first search over bitmask states; None past DFS_NODE_CAP nodes.

    The pruning set only discards provably dead branches:

    - terminal-reach: some unvisited cell adjacent to the terminal must
      remain, or the path cannot end;
    - cut-cell: see `_cut_cells_admit`; among what it refuses is every state
      that leaves an unvisited cell unreachable from the current one.

    Terminal-reach, an O(1) test, runs at every node. Cut-cell costs a pass
    over the unvisited cells, and a search that never backtracks gains
    nothing from it, so it runs only once some child has returned False. A
    prune cuts only subtrees without a solution, so the first witness in
    search order is the same under any pruning set.

    Children are ordered by ascending residual degree, then index, which
    makes nodes_expanded reproducible.
    """
    n = g.n
    full = (1 << n) - 1
    term_mask = 0
    for t in g.terminal_links:
        term_mask |= 1 << t
    terminal_reach = PRUNE_TERMINAL in prunes
    cut_cell = PRUNE_CUT in prunes

    expanded = 0
    backtracked = False
    path: list[int] = []

    def dfs(v: int, visited: int) -> bool:
        nonlocal expanded, backtracked
        expanded += 1
        if expanded > DFS_NODE_CAP:
            raise _CapReached
        if visited == full:
            return bool(term_mask >> v & 1)

        unvisited = full & ~visited
        if terminal_reach and not (unvisited & term_mask):
            return False

        if backtracked and cut_cell and not _cut_cells_admit(v, unvisited, adj, term_mask):
            return False

        cands = []
        m = adj[v] & unvisited
        while m:
            b = m & -m
            j = b.bit_length() - 1
            m ^= b
            cands.append(((adj[j] & unvisited).bit_count(), j))
        cands.sort()
        for _, j in cands:
            path.append(j)
            if dfs(j, visited | (1 << j)):
                return True
            path.pop()
            backtracked = True
        return False

    starts = sorted(g.base_links, key=lambda s: (adj[s].bit_count(), s))
    try:
        for s in starts:
            path.append(s)
            if dfs(s, 1 << s):
                return True, (g.base_node, *path, g.terminal_node), expanded
            path.pop()
    except _CapReached:
        return None, None, expanded
    return False, None, expanded


def frontier_audit(g: CoverageGraph) -> AuditResult:
    """Frontier ("mate") dynamic program over the edges, in cell-index order.

    A base->terminal path through every cell is a Hamiltonian cycle of the
    cells plus the two virtual nodes that uses the base-terminal edge, so the
    search starts from that edge alone and decides, edge by edge, whether to
    take each of the others (Knuth, TAOCP 4A, 7.1.4, SIMPATH; Kawahara et
    al., IEICE Trans. Fundamentals E100-A(9), 2017). A state holds one entry
    per node, which encodes its degree and mate: the node itself at degree 0,
    the far end of its path fragment at degree 1, _DONE at degree 2. A node
    leaves the frontier after its last edge and must then have degree 2, so
    off the frontier every live state holds the same entries (_DONE behind
    it, the node itself ahead of it). States that agree on the frontier are
    therefore equal and merge, keeping the first; the cost follows the
    frontier width, which the column order of the cell indices keeps to a
    few cells. Each state keeps a chain of the edges it took, from which the
    witness is read back.

    `nodes_expanded` counts the states expanded, edge by edge. Nothing
    bounds it but the frontier width: the widest frontier known, seed 7540
    (46 cells), takes 1,123,051 states, and the DFS settles that seed first.
    """
    start = time.perf_counter()
    n = g.n
    base, term = g.base_node, g.terminal_node
    edges = sorted(
        [(i, j) for i in range(n) for j in g.internal_adjacency[i] if j > i]
        + [(c, base) for c in g.base_links]
        + [(c, term) for c in g.terminal_links]
    )
    last: dict[int, int] = {}
    for k, (u, v) in enumerate(edges):
        last[u] = last[v] = k
    if len(last) < n + 2:  # a node without edges lies on no cycle
        return AuditResult(False, None, 0, _ms(start))
    leaving: list[tuple[int, ...]] = [
        tuple(w for w in e if last[w] == k) for k, e in enumerate(edges)
    ]

    mates = list(range(n + 2))
    mates[base], mates[term] = term, base
    layer: dict[tuple[int, ...], tuple | None] = {tuple(mates): None}
    expanded = 0
    for k, (u, v) in enumerate(edges):
        expanded += len(layer)
        gone = leaving[k]
        nxt: dict[tuple[int, ...], tuple | None] = {}
        for state, taken in layer.items():
            if all(state[w] == _DONE for w in gone) and state not in nxt:
                nxt[state] = taken
            mu, mv = state[u], state[v]
            if mu == _DONE or mv == _DONE:
                continue
            if mu == v:
                # Closing a fragment into a cycle is a success only when
                # every other node already has degree 2.
                if state.count(_DONE) == n:
                    chain = (k, taken)
                    return AuditResult(
                        True, _cycle_walk(g, edges, chain), expanded, _ms(start)
                    )
                continue
            t = list(state)
            if mu != u:
                t[u] = _DONE
            if mv != v:
                t[v] = _DONE
            t[mu], t[mv] = mv, mu
            if all(t[w] == _DONE for w in gone):
                key = tuple(t)
                if key not in nxt:
                    nxt[key] = (k, taken)
        layer = nxt
        if not layer:
            break
    return AuditResult(False, None, expanded, _ms(start))


def _cycle_walk(
    g: CoverageGraph, edges: list[tuple[int, int]], chain: tuple
) -> tuple[int, ...]:
    """The base->terminal walk along the cycle of the taken edges."""
    nbrs: dict[int, list[int]] = {}
    while chain is not None:
        k, chain = chain
        u, v = edges[k]
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    walk = [g.base_node]
    prev, v = g.base_node, nbrs[g.base_node][0]
    while v != g.terminal_node:
        walk.append(v)
        a, b = nbrs[v]
        prev, v = v, b if a == prev else a
    walk.append(v)
    return tuple(walk)


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
        for j in g.internal_adjacency[v]:
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
