import pytest
from conftest import block_graph, chain_graph, ring6_graph

from hexcover.graphbuild import (
    GenerationConfig,
    Instance,
    build_instance,
    choose_family,
    graph_from_coords,
)
from hexcover.hexgeom import InvalidParameterError, OffsetCoord, Point
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
    WarnsdorffConfig,
    bfs_shortest_path,
    interleaved_row_sequence,
    interleaved_sweep_order,
    linear_sweep_order,
    morton_code,
    morton_order,
    onion_rings,
    plan,
    plan_dfs_backtrack,
    plan_stc,
    plan_warnsdorff,
    plan_wavefront,
    spiral_order,
    timed_plan,
    wavefront_labels,
)


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
            v for v in g.cell_neighbors(frm)
        ]
        assert path[1] == min(set(first_step_options) & set(path))
        assert path[1] == min(v for v in first_step_options if v in path)

    def test_unreachable_returns_none(self):
        g = graph_from_coords(
            [OffsetCoord(0, 0), OffsetCoord(5, 5)], 1.0, [0], [1], Point(-2, 0)
        )
        assert bfs_shortest_path(g, 0, 1, lambda v: v < g.n) is None

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
        coords = [c.coord for c in g.cells]
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
        order = linear_sweep_order(g, "row-oneway")
        for r in range(3):
            row_targets = [i for i in order if g.cells[i].coord.row == r]
            cols = [g.cells[i].coord.col for i in row_targets]
            assert cols == sorted(cols)

    def test_segment_snake_equals_boustrophedon_on_convex_patch(self):
        g = self.make_patch(base_links=(0,), terminal_links=(8,))
        assert plan(g, "segment-snake").walk == plan(g, "boustrophedon").walk

    def test_row_interleave_order(self):
        # 4-row patch: rows targeted in the order 0, 2, 1, 3.
        assert interleaved_row_sequence(4) == [0, 2, 1, 3]
        g = self.make_patch(cols=3, rows=4, base_links=(0,), terminal_links=(0,))
        order = interleaved_sweep_order(g, "row-interleave")
        seen_rows = []
        for v in order:
            r = g.cells[v].coord.row
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
            order = spiral_order(g, "spiral-outward")
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
        res = plan_stc(g, "stc-tree")
        assert res.walk == (g.base_node, 0, 1, 2, 3, 2, 1, 0, g.terminal_node)
        status, revisits = validate_path(g, res.walk)
        assert status == STATUS_COVERAGE
        assert revisits == 3  # n-1 backtrack revisits

    def test_stc_revisits_scale_with_cells(self, instances):
        for inst in instances:
            res = plan(inst.graph, "stc-tree")
            _, revisits = validate_path(inst.graph, res.walk)
            assert revisits >= inst.graph.n - 1

    def test_stc_tree_fails_on_disconnected_fixture(self):
        g = graph_from_coords(
            [OffsetCoord(0, 0), OffsetCoord(4, 4)], 1.0, [0], [0], Point(-2.0, 0.0)
        )
        res = plan_stc(g, "stc-tree")
        assert graded(g, res) == STATUS_FAIL
        assert res.fail_reason == "tree-not-spanning"

    def test_both_variants_cover(self, instances):
        for inst in instances:
            for slug in ("stc-tree", "stc-like"):
                res = plan(inst.graph, slug)
                assert graded(inst.graph, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)


class TestWarnsdorff:
    def test_path_graph_all_configs_succeed(self):
        g = chain_graph(4)
        for tie in ("index", "distance"):
            for policy in ("EP", "TI"):
                res = plan_warnsdorff(g, WarnsdorffConfig(tie, policy))
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
        ep = plan_warnsdorff(g, WarnsdorffConfig("index", "EP"))
        ti = plan_warnsdorff(g, WarnsdorffConfig("index", "TI"))
        assert ep.walk[1] == a and ti.walk[1] == a
        assert ep.walk[2] == j1  # endpoint-aware: d=(1,2)
        assert ti.walk[2] == j2  # terminal-inclusive: d=(2,2), index tie-break

    def test_never_coverage_success(self, instances):
        for inst in instances:
            for slug in WARNSDORFF_SLUGS:
                res = plan(inst.graph, slug)
                assert graded(inst.graph, res) in (STATUS_HAMILTONIAN, STATUS_FAIL)
                if graded(inst.graph, res) == STATUS_HAMILTONIAN:
                    status, revisits = validate_path(inst.graph, res.walk)
                    assert status == STATUS_HAMILTONIAN and revisits == 0

    def test_rejects_bad_config(self):
        g = chain_graph(3)
        with pytest.raises(InvalidParameterError):
            plan_warnsdorff(g, WarnsdorffConfig("euclid", "EP"))


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

    def test_frontier_cells_labeled_zero(self, instances):
        for inst in instances:
            labels = wavefront_labels(inst.graph)
            for t in inst.graph.terminal_links:
                assert labels[t] == 0
            for i in range(inst.graph.n):
                for j in inst.graph.cell_neighbors(i):
                    assert abs(labels[i] - labels[j]) <= 1

    def test_covers_admitted_instances(self, instances):
        for inst in instances:
            res = plan(inst.graph, "wavefront-hex")
            assert graded(inst.graph, res) in (STATUS_COVERAGE, STATUS_HAMILTONIAN)


class TestMorton:
    def test_interleaving_definition(self):
        assert morton_code(0, 0) == 0
        assert morton_code(1, 0) == 1
        assert morton_code(0, 1) == 2
        assert morton_code(1, 1) == 3

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
