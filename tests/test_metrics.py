import math

import numpy as np
import pytest
from conftest import (
    RING6_COORDS,
    chain_graph,
    naive_validate,
    random_small_graph,
    random_walk,
    ring6_graph,
)

from hexcover.graphbuild import LatticeFrame, graph_from_coords
from hexcover.harness import ResultRecord
from hexcover.hexgeom import OffsetCoord, Point
from hexcover.metrics import (
    STATUS_COVERAGE,
    STATUS_FAIL,
    STATUS_HAMILTONIAN,
    IncompleteMatrixError,
    MalformedWalkError,
    aggregate_summary,
    compute_path_metrics,
    path_distance,
    path_turns,
    validate_path,
)


def rec(instance_id, method, status, revisits=0, distance=1.0, turns=0.0, latency=0.5):
    return ResultRecord(
        instance_id, method, status, (), revisits, distance, turns, latency
    )


class TestValidatePath:
    def test_hamiltonian_on_path_fixture(self):
        g = chain_graph(3)
        status, revisits = validate_path(g, [g.base_node, 0, 1, 2, g.terminal_node])
        assert status == STATUS_HAMILTONIAN
        assert revisits == 0

    def test_single_revisit(self):
        coords = [OffsetCoord(0, 0), OffsetCoord(0, 1), OffsetCoord(1, 1)]
        g = graph_from_coords(coords, 1.0, [0], [2], Point(-2, 0))
        status, revisits = validate_path(g, [g.base_node, 0, 1, 0, 2, g.terminal_node])
        assert status == STATUS_COVERAGE
        assert revisits == 1

    def test_incomplete_coverage_fails(self):
        g = chain_graph(3)
        status, _ = validate_path(g, [g.base_node, 0, 1, 0])
        assert status == STATUS_FAIL

    def test_wrong_terminal_fails_even_with_full_coverage(self):
        g = chain_graph(3)
        status, revisits = validate_path(g, [g.base_node, 0, 1, 2])
        assert status == STATUS_FAIL
        assert revisits == 0

    def test_malformed_nonadjacent(self):
        g = chain_graph(3)
        with pytest.raises(MalformedWalkError):
            validate_path(g, [g.base_node, 0, 2])

    def test_malformed_start(self):
        g = chain_graph(3)
        with pytest.raises(MalformedWalkError):
            validate_path(g, [0, 1, 2])

    def test_malformed_virtual_node_inside(self):
        g = chain_graph(3)
        with pytest.raises(MalformedWalkError):
            validate_path(g, [g.base_node, 0, g.base_node, 0, 1])

    def test_agreement_with_naive_checker(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            g = random_small_graph(rng)
            walk = random_walk(g, rng)
            assert validate_path(g, walk) == naive_validate(g, walk)


class TestDistance:
    def test_walk_to_farthest_cell_is_unit(self):
        # Base west of a 3-chain: cell 2 is the farthest; direct hop = 1.0.
        g = graph_from_coords(
            [OffsetCoord(c, 0) for c in range(3)], 1.0, [2], [2], Point(-2.0, 0.0)
        )
        assert path_distance(g, [g.base_node, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_scale_invariance(self):
        coords = [OffsetCoord(c, 0) for c in range(4)]
        g1 = graph_from_coords(coords, 1.0, [0], [3], Point(-2.0, 0.0))
        g5 = graph_from_coords(coords, 5.0, [0], [3], Point(-10.0, 0.0))
        walk = [g1.base_node, 0, 1, 2, 3, g1.terminal_node]
        assert path_distance(g1, walk) == pytest.approx(path_distance(g5, walk), rel=1e-12)

    def test_rotation_translation_invariance(self):
        coords = [OffsetCoord(c, r) for c in range(3) for r in range(3)]
        base = Point(-2.0, -1.0)
        g0 = graph_from_coords(coords, 1.0, [0], [8], base)
        ang, origin = 1.1, Point(40.0, -7.0)
        frame = LatticeFrame(origin, ang)
        gr = graph_from_coords(coords, 1.0, [0], [8], frame.to_world(base), frame)
        walk = [g0.base_node, 0, 1, 2, 5, 8, g0.terminal_node]
        assert path_distance(g0, walk) == pytest.approx(path_distance(gr, walk), abs=1e-9)
        assert path_turns(g0, walk) == pytest.approx(path_turns(gr, walk), abs=1e-9)


class TestTurns:
    def test_collinear_walk_zero(self):
        coords = [OffsetCoord(0, r) for r in range(3)]
        g = graph_from_coords(coords, 1.0, [0], [2], Point(0.0, -2.0))
        assert path_turns(g, [0, 1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degree_lattice_turn(self):
        coords = sorted([OffsetCoord(0, 0), OffsetCoord(0, 1), OffsetCoord(1, 2)])
        g = graph_from_coords(coords, 1.0, [0], [2], Point(0.0, -2.0))
        i00 = coords.index(OffsetCoord(0, 0))
        i01 = coords.index(OffsetCoord(0, 1))
        i12 = coords.index(OffsetCoord(1, 2))
        assert path_turns(g, [i00, i01, i12]) == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_closed_hexagon_loop_total_turning(self):
        g = ring6_graph()
        order = [sorted(RING6_COORDS).index(c) for c in RING6_COORDS]
        loop = order + [order[0], order[1]]
        assert path_turns(g, loop) == pytest.approx(2.0 * math.pi, abs=1e-9)


class TestAggregate:
    def test_basic_rates_and_conditional_stats(self):
        records = [
            rec("i1", "alpha", STATUS_HAMILTONIAN, 0, 1.0, 2.0),
            rec("i2", "alpha", STATUS_COVERAGE, 3, 2.0, 4.0),
            rec("i1", "beta", STATUS_FAIL, 0, 0.5, 1.0),
            rec("i2", "beta", STATUS_FAIL, 1, 0.7, 1.0),
        ]
        rows = aggregate_summary(records, method_order=["alpha", "beta"])
        alpha, beta = rows
        assert alpha.hsr_pct == 50.0
        assert alpha.ccr_pct == 100.0
        assert alpha.revisits_mean == pytest.approx(1.5)
        assert alpha.revisits_sd == pytest.approx(np.std([0, 3], ddof=1))
        assert alpha.distance_mean == pytest.approx(1.5)
        # All-fail method reports absent conditional statistics.
        assert beta.hsr_pct == 0.0
        assert beta.ccr_pct == 0.0
        assert beta.revisits_mean is None
        assert beta.distance_sd is None
        assert beta.latency_mean_ms == pytest.approx(0.5)

    def test_hsr_never_exceeds_ccr(self):
        records = [
            rec("i1", "m", STATUS_HAMILTONIAN),
            rec("i2", "m", STATUS_COVERAGE, 2),
            rec("i3", "m", STATUS_FAIL),
        ]
        (row,) = aggregate_summary(records)
        assert row.hsr_pct <= row.ccr_pct

    def test_incomplete_matrix_raises(self):
        records = [
            rec("i1", "alpha", STATUS_HAMILTONIAN),
            rec("i2", "alpha", STATUS_HAMILTONIAN),
            rec("i1", "beta", STATUS_FAIL),
        ]
        with pytest.raises(IncompleteMatrixError, match="i2:beta"):
            aggregate_summary(records, method_order=["alpha", "beta"])

    def test_no_records_is_incomplete_matrix(self):
        with pytest.raises(IncompleteMatrixError, match="morton"):
            aggregate_summary([], ["morton"])

    def test_single_covered_instance_has_no_sd(self):
        records = [rec("i1", "m", STATUS_COVERAGE, 2)]
        (row,) = aggregate_summary(records)
        assert row.revisits_mean == 2
        assert row.revisits_sd is None


class TestComputePathMetrics:
    def test_full_record(self):
        g = chain_graph(3)
        status, revisits, distance_norm, turns_rad = compute_path_metrics(
            g, [g.base_node, 0, 1, 2, g.terminal_node]
        )
        assert status == STATUS_HAMILTONIAN
        assert revisits == 0
        assert distance_norm > 0
        assert turns_rad >= 0
