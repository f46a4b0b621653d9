import contextlib
import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import block_graph, chain_graph, lattice_graph_args, ring6_graph

from hexcover import planners
from hexcover.graphbuild import GenerationConfig, build_instance, choose_family
from hexcover.lattice import (
    Instance,
    InvalidParameterError,
    LatticeFrame,
    OffsetCoord,
    Point,
    graph_from_coords,
)
from hexcover.metrics import (
    STATUS_COVERAGE,
    STATUS_FAIL,
    STATUS_HAMILTONIAN,
    validate_path,
)
from hexcover.planners import (
    METHOD_ORDER,
    PLANNERS,
    RECONNECTION_SLUGS,
    WARNSDORFF_SLUGS,
    interleaved_row_sequence,
    morton_code,
    morton_order,
    onion_rings,
    plan,
    plan_dfs_backtrack,
    plan_stc_tree,
    plan_warnsdorff,
    plan_wavefront,
    row_oneway_order,
    serpentine_order,
    spiral_outward_order,
    timed_plan,
    wavefront_labels,
)


# What each planner returns on the far fixture, two cells far apart: why it
# gave up, and the walk so far (base node 2, then cell 0).
DISCONNECTED_FAILURES = {
    "stc-tree": ("tree-not-spanning", (2,)),
    **{slug: ("dead-end", (2, 0)) for slug in (
        "warnsdorff-ep-index", "warnsdorff-ep-dist",
        "warnsdorff-ti-index", "warnsdorff-ti-dist",
    )},
    "dfs-backtrack": ("unreachable-cells", (2, 0)),
    "wavefront-hex": ("unreachable-cells", (2, 0)),
    **{slug: ("unreachable-cell", (2, 0)) for slug in (
        "boustrophedon", "row-oneway", "segment-snake", "row-interleave",
        "seg-interleave", "spiral-inward", "spiral-outward", "boundary-peel",
        "stc-like", "morton",
    )},
}

# The same on the split fixture: cells 0 and 1, and apart from them cells 2
# and 3, launched beyond cells 2 and 3 (base node 4). Only cell 0 is linked,
# so the cell nearest the launch, STC's root, cannot be reached, and neither
# can the first target of a sweep.
SPLIT_FAILURES = {
    "stc-tree": ("tree-not-spanning", (4,)),
    **{slug: ("dead-end", (4, 0, 1)) for slug in (
        "warnsdorff-ep-index", "warnsdorff-ep-dist",
        "warnsdorff-ti-index", "warnsdorff-ti-dist",
    )},
    "dfs-backtrack": ("unreachable-cells", (4, 0, 1)),
    "wavefront-hex": ("unreachable-cells", (4, 0, 1)),
    **{slug: ("unreachable-cell", (4,)) for slug in (
        "boustrophedon", "row-oneway", "segment-snake", "row-interleave",
        "seg-interleave", "spiral-inward", "stc-like",
    )},
    **{slug: ("unreachable-cell", (4, 0, 1)) for slug in (
        "spiral-outward", "boundary-peel", "morton",
    )},
}

DISCONNECTED_FIXTURES = {
    "far": ([(0, 0), (4, 4)], Point(-2.0, 0.0), DISCONNECTED_FAILURES),
    "split": ([(0, 0), (1, 0), (5, 0), (5, 1)], Point(9.0, 0.0), SPLIT_FAILURES),
}


def graded(g, res):
    """The status `validate_path` gives a planned walk."""
    return validate_path(g, res.walk)[0]


@pytest.fixture(scope="module")
def instances():
    cfg = GenerationConfig()
    out = []
    seed = 0
    while len(out) < 8 and seed < 120:
        built = build_instance(choose_family(seed, cfg), seed, cfg)
        if isinstance(built, Instance):
            out.append(built)
        seed += 1
    assert len(out) == 8
    return out


def bfs_shortest_path(g, frm, to, traversable=None):
    """Minimum-hop path over `planners._bfs`. `traversable` constrains
    intermediate nodes only, and by default admits the cells, never a
    virtual node; the endpoints are always admissible. None when
    unreachable."""
    if traversable is None:
        return planners._bfs(g, frm, (to,), range(g.n))
    return planners._bfs(g, frm, (to,), {v for v in range(len(g.adjacency)) if traversable(v)})


class TestBfsShortestPath:
    def test_trivial_same_node(self):
        g = chain_graph(3)
        assert bfs_shortest_path(g, 1, 1) == [1]

    def test_path_graph(self):
        g = chain_graph(3)
        assert bfs_shortest_path(g, 0, 2) == [0, 1, 2]

    def test_six_ring_antipodal_tie_breaks_low_index_side(self):
        g = ring6_graph()
        ordered = sorted(
            [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (0, -1)]
        )
        # Enumerate both 3-hop sides by hand, then assert the planner picks
        # the side whose first step has the lower node index.
        frm = ordered.index((-1, 0))
        to = ordered.index((1, 1))
        path = bfs_shortest_path(g, frm, to, lambda v: v < g.n)
        assert len(path) == 4
        first_step_options = [
            v for v in g.internal_adjacency[frm]
        ]
        assert path[1] == min(set(first_step_options) & set(path))
        assert path[1] == min(v for v in first_step_options if v in path)

    def test_unreachable_returns_none(self):
        g = graph_from_coords(
            [OffsetCoord(0, 0), OffsetCoord(5, 5)], 1.0, [0], [1], Point(-2, 0)
        )
        assert bfs_shortest_path(g, 0, 1, lambda v: v < g.n) is None

    def test_default_interior_is_cells_only(self):
        # Both ends of the row link to the virtual nodes, so a path through
        # the base would take two hops, against seven along the row.
        g = graph_from_coords([OffsetCoord(c, 0) for c in range(8)], 1.0, [0, 7], [0, 7],
                              Point(-2.0, 0.0))
        path = bfs_shortest_path(g, 0, 7)
        assert path == list(range(8))
        assert all(v < g.n for v in path[1:-1])
        assert bfs_shortest_path(g, 0, 7, lambda v: True) == [0, g.base_node, 7]

    def test_traversable_predicate_respected(self):
        g = block_graph(3, 3)
        blocked = {1}
        path = bfs_shortest_path(g, 0, 2, lambda v: v < g.n and v not in blocked)
        assert path is not None
        assert 1 not in path


class TestSweeps:
    def make_patch(self, cols=3, rows=3, base_links=(0,), terminal_links=None):
        coords = [OffsetCoord(c, r) for c in range(cols) for r in range(rows)]
        return graph_from_coords(
            coords,
            1.0,
            list(base_links),
            list(terminal_links or base_links),
            Point(-2.0, 0.0),
        )

    def test_boustrophedon_serpentine_hamiltonian_by_accident(self):
        # 3x3 convex patch; entry at the first row's west end, exit at the
        # serpentine's natural last cell; hand-traced order.
        g = self.make_patch(base_links=(0,), terminal_links=(8,))
        res = plan(g, "boustrophedon")
        coords = list(g.coords)
        idx = {c: i for i, c in enumerate(coords)}
        serpentine = [
            idx[OffsetCoord(0, 0)], idx[OffsetCoord(1, 0)], idx[OffsetCoord(2, 0)],
            idx[OffsetCoord(2, 1)], idx[OffsetCoord(1, 1)], idx[OffsetCoord(0, 1)],
            idx[OffsetCoord(0, 2)], idx[OffsetCoord(1, 2)], idx[OffsetCoord(2, 2)],
        ]
        assert res.walk == (g.base_node, *serpentine, g.terminal_node)
        assert graded(g, res) == STATUS_HAMILTONIAN

    def test_row_oneway_repeats_direction(self):
        g = self.make_patch(base_links=(0,), terminal_links=(0,))
        res = plan(g, "row-oneway")
        assert graded(g, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)
        # The planned order sweeps every row in the same (west-to-east)
        # direction; fly-backs happen in the reconnection segments.
        order = row_oneway_order(g)
        for r in range(3):
            row_targets = [i for i in order if g.coords[i].row == r]
            cols = [g.coords[i].col for i in row_targets]
            assert cols == sorted(cols)

    def test_segment_snake_equals_boustrophedon_on_convex_patch(self):
        g = self.make_patch(base_links=(0,), terminal_links=(8,))
        assert plan(g, "segment-snake").walk == plan(g, "boustrophedon").walk

    def test_row_interleave_order(self):
        # 4-row patch: rows targeted in the order 0, 2, 1, 3.
        assert interleaved_row_sequence(4) == [0, 2, 1, 3]
        g = self.make_patch(cols=3, rows=4, base_links=(0,), terminal_links=(0,))
        order = serpentine_order(g, interleaved_row_sequence)
        seen_rows = []
        for v in order:
            r = g.coords[v].row
            if r not in seen_rows:
                seen_rows.append(r)
        assert seen_rows == [0, 2, 1, 3]
        assert graded(g, plan(g, "row-interleave")) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)

    def test_sweeps_cover_admitted_instances(self, instances):
        for inst in instances:
            for slug in ("boustrophedon", "row-oneway", "segment-snake",
                         "row-interleave", "seg-interleave"):
                res = plan(inst.graph, slug)
                assert graded(inst.graph, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN), slug


class TestContour:
    def test_spiral_inward_on_filled_hexagon(self):
        # 6-ring plus centre: ring first, centre last, at most one revisit.
        coords = sorted(
            [OffsetCoord(0, 0), OffsetCoord(1, 0), OffsetCoord(1, 1), OffsetCoord(0, 1),
             OffsetCoord(-1, 1), OffsetCoord(-1, 0), OffsetCoord(0, -1)]
        )
        centre = coords.index(OffsetCoord(0, 0))
        g = graph_from_coords(coords, 1.0, [0], [0], Point(-3.0, 0.0))
        res = plan(g, "spiral-inward")
        assert graded(g, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)
        internal = [v for v in res.walk if v < g.n]
        # The centre cell is reached only after the full ring.
        first_centre = internal.index(centre)
        assert set(internal[:first_centre]) == set(range(g.n)) - {centre}
        _, revisits = validate_path(g, res.walk)
        assert revisits <= 1

    def test_onion_rings_partition(self, instances):
        for inst in instances:
            rings = onion_rings(inst.graph)
            flat = [i for ring in rings for i in ring]
            assert sorted(flat) == list(range(inst.graph.n))

    def test_spiral_outward_starts_innermost_near_centroid(self, instances):
        import math as _math

        for inst in instances:
            g = inst.graph
            rings = onion_rings(g)
            order = spiral_outward_order(g)
            assert order[0] in rings[-1]
            cx = sum(g.positions[i].x for i in range(g.n)) / g.n
            cy = sum(g.positions[i].y for i in range(g.n)) / g.n
            best = min(
                rings[-1],
                key=lambda i: (_math.hypot(g.positions[i].x - cx, g.positions[i].y - cy), i),
            )
            assert order[0] == best

    def test_contour_covers_admitted_instances(self, instances):
        for inst in instances:
            for slug in ("spiral-inward", "spiral-outward", "boundary-peel"):
                res = plan(inst.graph, slug)
                assert graded(inst.graph, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN), slug


class TestStc:
    def test_path_graph_circumnavigation(self):
        # Tree equals the path; DFS walk retraces each edge once.
        g = graph_from_coords(
            [OffsetCoord(c, 0) for c in range(4)], 1.0, [0], [0], Point(-2.0, 0.0)
        )
        res = plan_stc_tree(g)
        assert res.walk == (g.base_node, 0, 1, 2, 3, 2, 1, 0, g.terminal_node)
        status, revisits = validate_path(g, res.walk)
        assert status == STATUS_COVERAGE
        assert revisits == 3  # n-1 backtrack revisits

    def test_stc_revisits_scale_with_cells(self, instances):
        for inst in instances:
            res = plan(inst.graph, "stc-tree")
            _, revisits = validate_path(inst.graph, res.walk)
            assert revisits >= inst.graph.n - 1

    def test_both_variants_cover(self, instances):
        for inst in instances:
            for slug in ("stc-tree", "stc-like"):
                res = plan(inst.graph, slug)
                assert graded(inst.graph, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)


class TestWarnsdorff:
    def test_path_graph_all_configs_succeed(self):
        g = chain_graph(4)
        for by_distance in (False, True):
            for terminal_inclusive in (False, True):
                res = plan_warnsdorff(g, terminal_inclusive, by_distance)
                assert graded(g, res) == STATUS_HAMILTONIAN
                assert res.walk == (g.base_node, 0, 1, 2, 3, g.terminal_node)

    def ep_ti_fixture(self):
        """Six-cell fixture from the unified-rule trace.

        From the forced first cell A the candidates are j1 (one unvisited
        internal neighbor, terminal-adjacent) and j2 (two unvisited internal
        neighbors, not terminal-adjacent). EP scores (1, 2) and must take j1;
        TI scores (2, 2) and falls to the index tie-break, taking j2.
        """
        coords = sorted([
            OffsetCoord(0, 0),   # A: forced entry
            OffsetCoord(0, 1),   # j2
            OffsetCoord(0, 2),   # X (j2 branch)
            OffsetCoord(1, 0),   # j1
            OffsetCoord(1, 2),   # Y (j2 branch)
            OffsetCoord(2, 0),   # W (j1 branch)
        ])
        idx = {c: i for i, c in enumerate(coords)}
        a = idx[OffsetCoord(0, 0)]
        j1 = idx[OffsetCoord(1, 0)]
        j2 = idx[OffsetCoord(0, 1)]
        g = graph_from_coords(coords, 1.0, [a], [j1], Point(-2.0, 0.0))
        return g, a, j1, j2

    def test_ep_vs_ti_discrimination(self):
        g, a, j1, j2 = self.ep_ti_fixture()
        ep = plan_warnsdorff(g, terminal_inclusive=False, by_distance=False)
        ti = plan_warnsdorff(g, terminal_inclusive=True, by_distance=False)
        assert ep.walk[1] == a and ti.walk[1] == a
        assert ep.walk[2] == j1  # endpoint-aware: d=(1,2)
        assert ti.walk[2] == j2  # terminal-inclusive: d=(2,2), index tie-break

    def test_ti_adds_one_on_terminal_links_only(self):
        # Three cells in a path 1 - 0 - 2; the base links to 1 and 2, the
        # terminal to 0 and 1. From the base both candidates have residual
        # degree 1, and TI lifts cell 1, a terminal link, to 2. One more on
        # base links instead (or on both sets, or on neither) keeps the tie,
        # which goes to cell 1, and the walk ends on cell 2, not a terminal
        # link.
        coords = [OffsetCoord(1, 2), OffsetCoord(1, 3), OffsetCoord(2, 1)]
        g = graph_from_coords(coords, 1.0, [1, 2], [0, 1], Point(-3.0, 0.0))
        assert g.internal_adjacency == ((1, 2), (0,), (0,))
        ti = plan_warnsdorff(g, terminal_inclusive=True, by_distance=False)
        assert ti.walk == (g.base_node, 2, 0, 1, g.terminal_node)
        assert graded(g, ti) == STATUS_HAMILTONIAN
        ep = plan_warnsdorff(g, terminal_inclusive=False, by_distance=False)
        assert (ep.walk, ep.fail_reason) == ((g.base_node, 1, 0, 2), "terminal-unreachable")

    @pytest.mark.parametrize("terminal_inclusive", [False, True])
    def test_an_exact_step_length_tie_keeps_the_lower_index(self, terminal_inclusive):
        # The launch point lies on the perpendicular bisector of the two
        # cells, and both coordinate differences are exact, so both steps
        # from the base have the same length to the last bit, as well as the
        # same score.
        g = graph_from_coords([OffsetCoord(0, 0), OffsetCoord(0, 1)], 1.0, [0, 1], [0, 1],
                              Point(-2.0, math.sqrt(3.0) / 2))
        assert planners._euclid(g, g.base_node, 0) == planners._euclid(g, g.base_node, 1)
        res = plan_warnsdorff(g, terminal_inclusive, by_distance=True)
        assert res.walk == (g.base_node, 0, 1, g.terminal_node)

    def test_never_coverage_success(self, instances):
        for inst in instances:
            for slug in WARNSDORFF_SLUGS:
                res = plan(inst.graph, slug)
                assert graded(inst.graph, res) in (STATUS_HAMILTONIAN, STATUS_FAIL)
                if graded(inst.graph, res) == STATUS_HAMILTONIAN:
                    status, revisits = validate_path(inst.graph, res.walk)
                    assert status == STATUS_HAMILTONIAN and revisits == 0


class TestDfsBacktrack:
    def test_path_graph_no_backtracks(self):
        g = chain_graph(4)
        res = plan_dfs_backtrack(g)
        assert graded(g, res) == STATUS_HAMILTONIAN
        assert res.walk == (g.base_node, 0, 1, 2, 3, g.terminal_node)

    def test_t_junction_exactly_one_backtrack(self):
        # Chordless T: junction C with arms at mutual 120 degrees, one arm
        # extended; hand-traced walk including the single backtrack at C.
        coords = sorted([
            OffsetCoord(0, -1),  # A (base side)
            OffsetCoord(0, 0),   # B
            OffsetCoord(0, 1),   # C junction
            OffsetCoord(1, 2),   # D arm
            OffsetCoord(-1, 2),  # E arm
        ])
        idx = {c: i for i, c in enumerate(coords)}
        a, b_, c, d, e = (idx[OffsetCoord(*t)] for t in
                          [(0, -1), (0, 0), (0, 1), (1, 2), (-1, 2)])
        g = graph_from_coords(coords, 1.0, [a], [a], Point(0.0, -4.0))
        res = plan_dfs_backtrack(g)
        assert graded(g, res) == STATUS_COVERAGE
        expected = (g.base_node, a, b_, c, e, c, d, c, b_, a, g.terminal_node)
        assert res.walk == expected

    def test_is_warnsdorff_ep_index_until_a_dead_end(self, instances):
        # DFS-Backtrack takes EP(index)'s step, and only backtracks where EP
        # stops at a dead end: a Hamiltonian EP walk is DFS-Backtrack's walk.
        hamiltonian = {"warnsdorff-ep-index": 0, "dfs-backtrack": 0}
        for inst in instances:
            walks = {slug: plan(inst.graph, slug) for slug in hamiltonian}
            for slug, res in walks.items():
                hamiltonian[slug] += graded(inst.graph, res) == STATUS_HAMILTONIAN
            if graded(inst.graph, walks["warnsdorff-ep-index"]) == STATUS_HAMILTONIAN:
                assert walks["dfs-backtrack"].walk == walks["warnsdorff-ep-index"].walk
        assert hamiltonian["warnsdorff-ep-index"] > 0
        assert hamiltonian["dfs-backtrack"] == hamiltonian["warnsdorff-ep-index"]

    def test_covers_admitted_instances(self, instances):
        for inst in instances:
            res = plan(inst.graph, "dfs-backtrack")
            assert graded(inst.graph, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)


class TestWavefront:
    def test_labels_are_bfs_layers(self):
        g = chain_graph(5)  # terminal links at cell 4
        assert wavefront_labels(g) == [4, 3, 2, 1, 0]

    def test_path_graph_descends_labels_hamiltonian(self):
        g = chain_graph(5)
        res = plan_wavefront(g)
        assert graded(g, res) == STATUS_HAMILTONIAN
        labels = wavefront_labels(g)
        internal = [v for v in res.walk if v < g.n]
        seq = [labels[v] for v in internal]
        assert seq == sorted(seq, reverse=True)

    def test_a_higher_label_beats_a_lower_residual_degree(self):
        # From the entry v (label 1) the candidates are a (label 1, all five
        # other neighbours unvisited), b (label 0, no other neighbour) and
        # the two cells c between v and a (label 0, residual degree 2).
        v, a, b = OffsetCoord(2, 2), OffsetCoord(2, 3), OffsetCoord(2, 1)
        cs = [OffsetCoord(1, 3), OffsetCoord(3, 3)]
        ring_a = [OffsetCoord(1, 4), OffsetCoord(2, 4), OffsetCoord(3, 4)]
        coords = sorted([v, a, b, *cs, *ring_a])
        idx = {c: i for i, c in enumerate(coords)}
        g = graph_from_coords(coords, 1.0, [idx[v]], [idx[b], *(idx[c] for c in cs)],
                              Point(-3.0, 0.0))
        labels = wavefront_labels(g)
        assert (labels[idx[v]], labels[idx[a]], labels[idx[b]]) == (1, 1, 0)
        assert len(g.internal_adjacency[idx[a]]) == 6
        assert g.internal_adjacency[idx[b]] == (idx[v],)
        assert plan_wavefront(g).walk[:3] == (g.base_node, idx[v], idx[a])

    def test_equal_labels_fall_back_to_residual_degree(self):
        # From the entry, cell 0, both candidates are terminal links (label
        # 0); cell 3 has one unvisited neighbour and cell 2 two.
        coords = [OffsetCoord(1, 3), OffsetCoord(2, 1), OffsetCoord(2, 2), OffsetCoord(2, 3)]
        g = graph_from_coords(coords, 1.0, [0], [2, 3], Point(-3.0, 0.0))
        assert g.internal_adjacency[0] == (2, 3)
        assert g.internal_adjacency[2] == (0, 1, 3) and g.internal_adjacency[3] == (0, 2)
        assert plan_wavefront(g).walk[:3] == (g.base_node, 0, 3)

    def test_equal_labels_and_degrees_fall_back_to_step_length(self):
        # Cells 0, 1 and 2 form a triangle; from the entry, cell 2, both
        # candidates have label 1 and residual degree 1. Rotated by 0.2 rad,
        # the step to cell 1 is the shorter in its last bits.
        coords = [OffsetCoord(0, 1), OffsetCoord(1, 1), OffsetCoord(1, 2), OffsetCoord(3, 0)]
        g = graph_from_coords(coords, 1.0, [2, 3], [2, 3], Point(-3.0, 0.0),
                              LatticeFrame(Point(0.0, 0.0), 0.2))
        assert wavefront_labels(g) == [1, 1, 0, 0]
        assert planners._euclid(g, 2, 1) < planners._euclid(g, 2, 0)
        assert plan_wavefront(g).walk[:3] == (g.base_node, 2, 1)

    def test_frontier_cells_labeled_zero(self, instances):
        for inst in instances:
            labels = wavefront_labels(inst.graph)
            for t in inst.graph.terminal_links:
                assert labels[t] == 0
            for i in range(inst.graph.n):
                for j in inst.graph.internal_adjacency[i]:
                    assert abs(labels[i] - labels[j]) <= 1

    def test_covers_admitted_instances(self, instances):
        for inst in instances:
            res = plan(inst.graph, "wavefront-hex")
            assert graded(inst.graph, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)


class TestTwoHopStep:
    @settings(max_examples=150, deadline=None)
    @given(lattice_graph_args())
    def test_is_the_middle_of_the_bfs_path(self, args):
        # Every head, the base node included, and every cell not adjacent to
        # it: the step is the middle of the two-hop path `_bfs` returns, and
        # there is none where that path is not two hops long.
        g = graph_from_coords(*args)
        two_hops = 0
        for head in range(g.n + 1):
            for target in range(g.n):
                if target in g.adjacency[head]:
                    continue
                path = planners._bfs(g, head, (target,), range(g.n))
                expected = path[1] if path is not None and len(path) == 3 else -1
                assert planners._two_hop_via(g, head, target) == expected, (head, target)
                two_hops += expected >= 0
        if g.n >= 3 and len(planners._bfs_tree(g, 0)) == g.n:
            assert two_hops > 0

    def test_takes_the_lowest_middle_of_several(self):
        # On a 3x3 block, cells 0 and 4 share the neighbours 1 and 3.
        g = block_graph(3, 3)
        assert set(g.internal_adjacency[0]) & set(g.internal_adjacency[4]) == {1, 3}
        assert planners._two_hop_via(g, 0, 4) == 1
        assert planners._two_hop_via(g, 4, 0) == 1


def ref_morton_code(qx: int, qy: int) -> int:
    """The per-bit interleaving loop the byte-spread table replaced."""
    code = 0
    for b in range(max(qx, qy).bit_length()):
        code |= ((qx >> b) & 1) << (2 * b)
        code |= ((qy >> b) & 1) << (2 * b + 1)
    return code


class TestMorton:
    def test_interleaving_definition(self):
        assert morton_code(0, 0) == 0
        assert morton_code(1, 0) == 1
        assert morton_code(0, 1) == 2
        assert morton_code(1, 1) == 3

    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    @example(0, 0)
    @example(2**16 - 1, 2**16 - 1)
    @example(2**16 - 1, 2**16)
    @example(2**16, 0)
    @example(0, 2**16)
    def test_matches_the_per_bit_loop(self, qx, qy):
        assert morton_code(qx, qy) == ref_morton_code(qx, qy)

    def test_quantization_width_does_not_change_order(self, instances):
        for inst in instances:
            assert morton_order(inst.graph, bits=16) == morton_order(inst.graph, bits=20)

    def test_covers_admitted_instances(self, instances):
        for inst in instances:
            res = plan(inst.graph, "morton")
            assert graded(inst.graph, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)


class TestDispatch:
    def test_seventeen_planners(self):
        assert len(PLANNERS) == 17
        assert len(METHOD_ORDER) == 17
        assert set(WARNSDORFF_SLUGS) < set(PLANNERS)
        assert len(RECONNECTION_SLUGS) == 12

    def test_families(self):
        fams = {}
        for slug in PLANNERS:
            fams.setdefault(PLANNERS[slug].family, []).append(slug)
        assert len(fams["LinearSweep"]) == 3
        assert len(fams["Interleaved"]) == 2
        assert len(fams["Contour"]) == 3
        assert len(fams["STC"]) == 2
        assert len(fams["Graph"]) == 5
        assert len(fams["Wavefront"]) == 1
        assert len(fams["SpaceFilling"]) == 1

    def test_all_walks_adjacency_valid(self, instances):
        g = instances[0].graph
        for slug in PLANNERS:
            res = plan(g, slug)
            validate_path(g, res.walk)  # raises MalformedWalkError on defect

    def test_fail_reason_exactly_when_walk_grades_fail(self, instances):
        for inst in instances:
            for slug in PLANNERS:
                res = plan(inst.graph, slug)
                failed = graded(inst.graph, res) == STATUS_FAIL
                assert (res.fail_reason is not None) == failed, slug

    @pytest.mark.parametrize(
        "fixture, slug",
        [pytest.param("far", slug, id=slug) for slug in PLANNERS]
        + [pytest.param("split", slug, id=f"split-{slug}") for slug in PLANNERS],
    )
    def test_fail_reason_on_disconnected_fixture(self, fixture, slug):
        # Cells that part of the graph cannot reach: each planner names its
        # own way of giving up.
        cells, launch, failures = DISCONNECTED_FIXTURES[fixture]
        g = graph_from_coords([OffsetCoord(*c) for c in cells], 1.0, [0], [0], launch)
        res = plan(g, slug)
        assert graded(g, res) == STATUS_FAIL
        assert (res.fail_reason, res.walk) == failures[slug]

    def test_dispatch_deterministic(self, instances):
        g = instances[1].graph
        for slug in PLANNERS:
            assert plan(g, slug).walk == plan(g, slug).walk

    def test_unknown_planner_rejected(self):
        g = chain_graph(3)
        with pytest.raises(InvalidParameterError, match="valid:"):
            plan(g, "dijkstra")

    def test_timed_plan_returns_latency(self):
        g = chain_graph(3)
        res, ms = timed_plan(g, "morton")
        assert graded(g, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)
        assert ms >= 0.0


# ---------------------------------------------------------------------------
# The forms the planners had before residual degrees were kept as the walk
# grows, before the BFS stopped at its one target, before the greedy loop
# scored candidates by an integer rank, before the walker stepped two hops
# without a search, and before rows, rings and the tree walk were built
# without sorts or recursion. Patched in, they must give every planner the
# same walk and the same failure.


def ref_bfs(g, frm, targets, through):
    """Every layer finished, the allowed nodes asked one at a time."""
    allowed = through.__contains__
    parent = {frm: None}
    hits = [frm] if frm in targets else []
    layer = [frm]
    while layer and not hits:
        nxt = []
        for u in layer:
            for w in g.adjacency[u]:
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
    node = min(hits)
    while node is not None:
        path.append(node)
        node = parent[node]
    return path[::-1]


def ref_visit_order_walk(g, order):
    """Every target not adjacent to the head reconnected through `ref_bfs`."""
    walk = [g.base_node]
    for target in order:
        if target in g.adjacency[walk[-1]]:
            walk.append(target)
            continue
        path = ref_bfs(g, walk[-1], (target,), range(g.n))
        if path is None:
            return planners.PlanResult(tuple(walk), "unreachable-cell")
        walk.extend(path[1:])
    path = ref_bfs(g, walk[-1], (g.terminal_node,), range(g.n))
    if path is None:
        return planners.PlanResult(tuple(walk), "terminal-unreachable")
    return planners.PlanResult(tuple(walk + path[1:]))


def ref_greedy(g, walk, key, reconnect, leave_via):
    """The least `key(v, j, d)` over the candidates, each candidate's
    residual degree `d` recounted at every step."""
    n = g.n
    visited = set(walk[1:])
    v = walk[-1]
    while len(visited) < n:
        best_key = None
        for j in g.adjacency[v]:
            if j >= n or j in visited:
                continue
            d = sum(k not in visited for k in g.internal_adjacency[j])
            j_key = key(v, j, d)
            if best_key is None or j_key < best_key:
                best_key, best = j_key, j
        if best_key is not None:
            visited.add(best)
            walk.append(best)
            v = best
            continue
        path = reconnect(v, visited) if reconnect else None
        if path is None:
            return planners.PlanResult(tuple(walk),
                                       "unreachable-cells" if reconnect else "dead-end")
        walk.extend(path[1:])
        visited.update(path[1:])
        v = path[-1]
    path = ref_bfs(g, v, (g.terminal_node,), leave_via)
    if path is None:
        return planners.PlanResult(tuple(walk), "terminal-unreachable")
    return planners.PlanResult(tuple(walk + path[1:]))


def ref_plan_warnsdorff(g, terminal_inclusive, by_distance):
    """Residual degree, plus one on a terminal link under TI, then step
    length when `by_distance`, then index: one key tuple per candidate."""
    links = set(g.terminal_links) if terminal_inclusive else set()

    def key(v, j, d):
        if by_distance:
            return (d + (j in links), ref_euclid(g, v, j), j)
        return (d + (j in links), j)

    return ref_greedy(g, [g.base_node], key, None, ())


def ref_plan_dfs_backtrack(g):
    def backtrack(v, visited):
        anchors = {u for u in visited if any(w not in visited for w in g.internal_adjacency[u])}
        return ref_bfs(g, v, anchors, visited)

    return ref_greedy(g, [g.base_node], lambda v, j, d: (d, j), backtrack, range(g.n))


def ref_plan_wavefront(g):
    """Highest label, then residual degree, step length and index."""
    labels = wavefront_labels(g)

    def connector(v, visited):
        remaining = [j for j in range(g.n) if j not in visited]
        for top in sorted({labels[j] for j in remaining}, reverse=True):
            path = ref_bfs(g, v, {j for j in remaining if labels[j] == top}, range(g.n))
            if path is not None:
                return path
        return None

    entry = min(g.base_links, key=lambda j: (-labels[j], j))
    return ref_greedy(g, [g.base_node, entry],
                      lambda v, j, d: (-labels[j], d, ref_euclid(g, v, j), j),
                      connector, range(g.n))


def ref_sweep_rows(g):
    rows = {}
    for i, c in enumerate(g.coords):
        rows.setdefault(c.row, []).append(i)
    return [sorted(rows[r], key=lambda i: (g.coords[i].col, i)) for r in sorted(rows)]


def ref_onion_rings(g):
    remaining = set(range(g.n))
    rings = []
    while remaining:
        ring = sorted(
            i for i in remaining if sum(j in remaining for j in g.internal_adjacency[i]) < 6
        )
        rings.append(ring)
        remaining -= set(ring)
    return rings


def ref_circumnavigate(children, root):
    seq = []

    def visit(u):
        seq.append(u)
        for c in children[u]:
            visit(c)
            seq.append(u)

    visit(root)
    return seq


def ref_euclid(g, a, b):
    pa, pb = g.positions[a], g.positions[b]
    return math.hypot(pb.x - pa.x, pb.y - pa.y)


REFERENCES = {
    "_bfs": ref_bfs,
    "_visit_order_walk": ref_visit_order_walk,
    "plan_warnsdorff": ref_plan_warnsdorff,
    "sweep_rows": ref_sweep_rows,
    "onion_rings": ref_onion_rings,
    "_circumnavigate": ref_circumnavigate,
    "_euclid": ref_euclid,
}

# The registry holds these two planners as function objects, so patching
# their module names would not reach `plan`: their entries are patched.
REFERENCE_PLANNERS = {
    "dfs-backtrack": ref_plan_dfs_backtrack,
    "wavefront-hex": ref_plan_wavefront,
}


def _not_in_a_reference(*args):
    raise AssertionError("a reference planner reached a current kernel")


def plan_with_references(g, slug):
    with contextlib.ExitStack() as stack:
        for name, ref in REFERENCES.items():
            stack.enter_context(mock.patch.object(planners, name, ref))
        for name in ("_greedy", "_two_hop_via"):
            stack.enter_context(mock.patch.object(planners, name, _not_in_a_reference))
        stack.enter_context(mock.patch.dict(planners.PLANNERS, {
            s: PLANNERS[s]._replace(run=ref) for s, ref in REFERENCE_PLANNERS.items()
        }))
        return plan(g, slug)


class TestAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(lattice_graph_args())
    def test_every_planner_matches_the_references(self, args):
        g = graph_from_coords(*args)
        for slug in PLANNERS:
            res, ref = plan(g, slug), plan_with_references(g, slug)
            assert (res.walk, res.fail_reason) == (ref.walk, ref.fail_reason), slug

    def test_every_planner_matches_the_references_on_admitted_instances(self, instances):
        for inst in instances:
            for slug in PLANNERS:
                res, ref = plan(inst.graph, slug), plan_with_references(inst.graph, slug)
                assert (res.walk, res.fail_reason) == (ref.walk, ref.fail_reason), slug

    def test_shared_rows_and_rings_are_immutable(self, instances):
        g = instances[0].graph
        for shared in (planners.sweep_rows(g), onion_rings(g)):
            assert isinstance(shared, tuple)
            assert all(isinstance(part, tuple) for part in shared)
        assert planners.sweep_rows(g) is planners.sweep_rows(g)
        assert [list(r) for r in planners.sweep_rows(g)] == ref_sweep_rows(g)
        assert [list(r) for r in onion_rings(g)] == ref_onion_rings(g)

    @settings(max_examples=100, deadline=None)
    @given(lattice_graph_args())
    def test_tree_walk_matches_the_recursive_walk(self, args):
        g = graph_from_coords(*args)
        root = planners._stc_root(g)
        for children in (planners._bfs_tree(g, root),
                         planners._distance_biased_tree(g, root)):
            assert planners._circumnavigate(children, root) == ref_circumnavigate(children, root)

    @settings(max_examples=200, deadline=None)
    @given(lattice_graph_args(), st.integers(0, 35), st.integers(0, 35))
    def test_step_length_is_the_hypot_of_the_differences(self, args, a, b):
        g = graph_from_coords(*args)
        a, b = a % len(g.positions), b % len(g.positions)
        assert planners._euclid(g, a, b).hex() == ref_euclid(g, a, b).hex()


def brute_force_path(g, frm, targets, through):
    """The lowest-index nearest target, by the lexicographically least
    minimum-hop path whose intermediate nodes lie in `through`, found by
    listing every simple path."""
    if frm in targets:
        return [frm]
    best = None
    paths = [[frm]]
    while paths:
        path = paths.pop()
        for w in g.adjacency[path[-1]]:
            if w in path:
                continue
            if w in targets:
                found = path + [w]
                if best is None or (len(found), w, found) < (len(best), best[-1], best):
                    best = found
            elif w in through:
                paths.append(path + [w])
    return best


@st.composite
def bfs_cases(draw):
    """A graph of up to 7 cells, a start node, 1-3 targets and a random set
    of nodes to pass through."""
    g = graph_from_coords(*draw(lattice_graph_args(max_cells=7)))
    nodes = st.integers(0, g.n + 1)
    frm = draw(nodes)
    targets = set(draw(st.lists(nodes, min_size=1, max_size=3)))
    through = set(draw(st.lists(nodes, max_size=g.n + 2)))
    if draw(st.booleans()):
        through = set(range(g.n))
    return g, frm, targets, through


def _met_higher_first_case():
    # From cell 4 the layer meets target 1 through cell 2 before target 0
    # through cell 3; both are two hops away.
    coords = [(1, 3), (2, 0), (2, 1), (2, 2), (3, 2)]
    g = graph_from_coords(coords, 1.0, [0], [0], Point(-3.0, -3.0))
    return g, 4, {0, 1}, range(g.n)


class TestBfsAgainstBruteForce:
    @settings(max_examples=400, deadline=None)
    @given(bfs_cases())
    @example(_met_higher_first_case())
    @example((block_graph(3, 3), 1, {6, 9}, range(9)))
    def test_matches_brute_force(self, case):
        g, frm, targets, through = case
        expected = brute_force_path(g, *case[1:])
        assert planners._bfs(g, frm, targets, through) == expected
        assert planners._bfs(g, frm, tuple(sorted(targets)), through) == expected
        assert ref_bfs(*case) == expected

    def test_equally_near_targets_go_to_the_lowest_index(self):
        # Every start and pair of targets on a 3x3 block. Where the higher
        # target's path is the lexicographically lesser, the layer meets it
        # first, and only finishing the layer finds the lower one.
        g = block_graph(3, 3)
        nodes = range(g.n + 2)
        met_higher_first = 0
        for frm in nodes:
            for low, high in itertools.combinations(nodes, 2):
                got = planners._bfs(g, frm, {low, high}, range(g.n))
                assert got == brute_force_path(g, frm, {low, high}, range(g.n))
                to_high = planners._bfs(g, frm, (high,), range(g.n))
                if got and got[-1] == low and len(to_high) == len(got):
                    met_higher_first += to_high < got
        assert met_higher_first > 0


class TestDeepTrees:
    @pytest.mark.parametrize("slug", ["stc-tree", "stc-like"])
    def test_stc_walks_a_1500_cell_chain(self, slug):
        g = chain_graph(1500)
        res = plan(g, slug)
        assert res.fail_reason is None
        # Out along the chain and back round the tree, then out again to the
        # terminal, linked at the far end.
        there, back = range(1500), range(1498, -1, -1)
        assert res.walk == (g.base_node, *there, *back, *there[1:], g.terminal_node)
        assert graded(g, res) == STATUS_COVERAGE
