import functools
import hashlib
import json
import zlib

import numpy as np
import pytest
from conftest import chain_graph, face_neighbors, random_small_graph, ring6_graph, tessellate_one

from hexcover.aoi import insert_obstacles, sample_aoi
from hexcover.graphbuild import (
    BLOCK_SEEDS,
    GenerationConfig,
    Rejection,
    attach_base,
    build_block,
    choose_family,
    postprocess_mask,
)
from hexcover.harness import instance_to_record
from hexcover.lattice import (
    STATUS_HAMILTONIAN,
    InvalidParameterError,
    OffsetCoord,
    Point,
    exterior_boundary,
    graph_from_coords,
    validate_path,
)
from hexcover.oracle import (
    ALL_PRUNES,
    DFS_NODE_CAP,
    PRUNE_CUT,
    PRUNE_TERMINAL,
    _adjacency_masks,
    _dfs,
    brute_force_enumerate,
    frontier_audit,
    hamiltonian_audit,
)

# Seeds of 0-199 whose graphs reach the audit, and the SHA-256 of their
# [seed, feasible, witness] rows as compact JSON.
AUDITED_SEEDS_0_199 = 174
PINNED_WITNESSES_0_199 = "e31cde1c668e8c151d4c628f51625a2d8e6066f2b287be5b0f240931e379452c"
# The SHA-256 of their [seed, feasible, nodes_expanded] rows, likewise.
PINNED_NODES_0_199 = "55c287e9acfd017a235080cb5bf75062a3c300ef0dfb7c1f79c30ef4e8e12ec6"


def spur_ring_graph(base_coord, terminal_coord):
    """Six-cell ring around the origin plus a degree-1 spur at (0, 2)."""
    coords = sorted(
        [
            OffsetCoord(1, 0),
            OffsetCoord(1, 1),
            OffsetCoord(0, 1),
            OffsetCoord(-1, 1),
            OffsetCoord(-1, 0),
            OffsetCoord(0, -1),
            OffsetCoord(0, 2),
        ]
    )
    base = coords.index(base_coord)
    term = coords.index(terminal_coord)
    return graph_from_coords(coords, 1.0, [base], [term], Point(0.0, 5.0))


def seed_graph(seed):
    """The graph the default pipeline hands to the admission audit for `seed`."""
    cfg = GenerationConfig()
    polygon = insert_obstacles(sample_aoi(choose_family(seed, cfg), seed, cfg.scale), seed)
    polygon.validate()
    mask = tessellate_one(polygon, cfg.hex_radius)
    coords = postprocess_mask(mask.coords)
    return attach_base(mask._replace(coords=coords), polygon, seed)


@functools.lru_cache(maxsize=1)
def graphs_of_seeds_0_199() -> list:
    """(seed, graph) of every seed of 0-199 whose graph reaches the audit."""
    lo, hi = GenerationConfig().size_band
    rows = []
    for seed in range(200):
        try:
            g = seed_graph(seed)
        except ValueError:  # degenerate shape or no base attachment
            continue
        if lo <= g.n <= hi:
            rows.append((seed, g))
    return rows


@functools.lru_cache(maxsize=1)
def audits_of_seeds_0_199() -> list:
    """(seed, audit) of every seed of 0-199 whose graph reaches the audit."""
    return [(seed, hamiltonian_audit(g)) for seed, g in graphs_of_seeds_0_199()]


class TestAudit:
    def test_forced_path_graph(self):
        g = chain_graph(3)
        res = hamiltonian_audit(g)
        assert res.feasible is True
        assert res.witness == (g.base_node, 0, 1, 2, g.terminal_node)

    def test_spur_terminal_consumed_mid_path_infeasible(self):
        # The terminal spur hangs off the only base-linked cell, which must
        # be visited first; the spur is then unreachable as a final cell.
        g = spur_ring_graph(OffsetCoord(0, 1), OffsetCoord(0, 2))
        assert hamiltonian_audit(g).feasible is False
        assert brute_force_enumerate(g).feasible is False

    def test_spur_terminal_reachable_when_base_is_elsewhere(self):
        # A Hamiltonian path on the 6-ring must end ring-adjacent to where it
        # started, so start next to the spur attachment cell (0, 1).
        g = spur_ring_graph(OffsetCoord(-1, 1), OffsetCoord(0, 2))
        res = hamiltonian_audit(g)
        assert res.feasible is True
        assert brute_force_enumerate(g).feasible is True
        status, revisits = validate_path(g, res.witness)
        assert status == STATUS_HAMILTONIAN and revisits == 0

    def test_six_ring_adjacent_terminals(self):
        g = ring6_graph()
        res = hamiltonian_audit(g)
        assert res.feasible is True
        assert brute_force_enumerate(g).feasible is True

    def test_single_cell(self):
        g = graph_from_coords([OffsetCoord(0, 0)], 1.0, [0], [0], Point(-2, 0))
        assert hamiltonian_audit(g).feasible is True
        assert brute_force_enumerate(g).feasible is True

    def test_disconnected_graph_immediately_infeasible(self):
        g = graph_from_coords(
            [OffsetCoord(0, 0), OffsetCoord(5, 5)], 1.0, [0], [1], Point(-2, 0)
        )
        res = hamiltonian_audit(g)
        assert res.feasible is False
        assert res.witness is None

    def test_search_decides_two_piece_graphs(self):
        # No connectivity pass runs before the search: it must dead-end in
        # the piece it starts in, and cut-cell then refuses every node.
        def piece(rng, size, col0):
            """`size` cells grown one face neighbour at a time inside
            the 7 x 7 box from column `col0`."""
            cells = [OffsetCoord(col0, 0)]
            while len(cells) < size:
                grown = sorted({nb for c in cells for nb in face_neighbors(c)
                                if col0 <= nb.col < col0 + 7 and 0 <= nb.row < 7} - set(cells))
                cells.append(grown[int(rng.integers(len(grown)))])
            return cells

        rng = np.random.default_rng(2024)
        for _ in range(300):
            total = int(rng.integers(2, 47))
            split = int(rng.integers(1, total))
            # Columns 7 and 8 stay empty, so no cell of one piece touches the other.
            coords = sorted(piece(rng, split, 0) + piece(rng, total - split, 9))
            boundary = sorted(exterior_boundary(frozenset(coords)))
            k = int(rng.integers(1, min(15, len(boundary)) + 1))
            links = sorted(coords.index(boundary[i])
                           for i in rng.choice(len(boundary), size=k, replace=False))
            g = graph_from_coords(coords, 1.0, links, links, Point(-3.0, 3.0))
            # _dfs answers None past DFS_NODE_CAP, so False is decided within it.
            assert _dfs(g, _adjacency_masks(g), ALL_PRUNES)[:2] == (False, None)
            assert frontier_audit(g).feasible is False

    def test_deterministic_node_counts(self):
        g = ring6_graph()
        a = hamiltonian_audit(g)
        b = hamiltonian_audit(g)
        assert a.nodes_expanded == b.nodes_expanded
        assert a.witness == b.witness

    def test_witnesses_are_valid_hamiltonian_walks(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            g = random_small_graph(rng)
            res = hamiltonian_audit(g)
            if res.feasible:
                status, revisits = validate_path(g, res.witness)
                assert status == STATUS_HAMILTONIAN
                assert revisits == 0
                checked += 1
        assert checked > 20


class TestBruteForceAgreement:
    def test_agreement_500_random_graphs(self):
        rng = np.random.default_rng(20260808)
        disagreements = 0
        feasible_count = 0
        for _ in range(500):
            g = random_small_graph(rng)
            exact = hamiltonian_audit(g)
            brute = brute_force_enumerate(g)
            if exact.feasible != brute.feasible:
                disagreements += 1
            feasible_count += bool(brute.feasible)
        assert disagreements == 0
        assert 0 < feasible_count < 500  # the sample exercises both outcomes

    def test_cut_cell_agreement_1000_graphs_up_to_12_cells(self):
        rng = np.random.default_rng(1974)
        disagreements = 0
        pruned = 0
        for _ in range(1000):
            g = random_small_graph(rng, max_cells=12)
            brute = brute_force_enumerate(g).feasible
            cut = hamiltonian_audit(g, prunes=frozenset({PRUNE_CUT}))
            disagreements += cut.feasible != brute
            disagreements += hamiltonian_audit(g).feasible != brute
            pruned += (
                cut.nodes_expanded
                < hamiltonian_audit(g, prunes=frozenset()).nodes_expanded
            )
        assert disagreements == 0
        assert pruned > 50  # the rule fires after backtracking, not only in theory

    def test_size_guard(self):
        g = graph_from_coords(
            [OffsetCoord(c, r) for c in range(4) for r in range(4)][:13],
            1.0,
            [0],
            [1],
            Point(-2, 0),
        )
        with pytest.raises(InvalidParameterError):
            brute_force_enumerate(g)


class TestPruningSoundness:
    """Each pruning rule must never change the decision, only the node count."""

    @pytest.mark.parametrize("rule", [PRUNE_TERMINAL, PRUNE_CUT])
    def test_rule_decision_equivalence(self, rule):
        rng = np.random.default_rng(zlib.crc32(rule.encode()))
        for _ in range(150):
            g = random_small_graph(rng)
            with_rule = hamiltonian_audit(g, prunes=frozenset({rule}))
            without = hamiltonian_audit(g, prunes=frozenset())
            assert with_rule.feasible == without.feasible
            assert with_rule.nodes_expanded <= without.nodes_expanded

    def test_all_prunes_vs_unpruned(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            g = random_small_graph(rng)
            assert (
                hamiltonian_audit(g, prunes=ALL_PRUNES).feasible
                == hamiltonian_audit(g, prunes=frozenset()).feasible
            )

    @pytest.mark.parametrize("rule", sorted(ALL_PRUNES))
    def test_each_rule_saves_nodes_on_seeds_0_199(self, rule):
        # A rule that never cuts a node the others leave is code without a
        # job on the graphs the audit sees.
        with_all = sum(res.nodes_expanded for _, res in audits_of_seeds_0_199())
        without = sum(
            hamiltonian_audit(g, prunes=ALL_PRUNES - {rule}).nodes_expanded
            for _, g in graphs_of_seeds_0_199()
        )
        assert without > with_all


class TestCutCellOnPipelineSeeds:
    """Seeds of the default pipeline whose audits the cut-cell rule settles."""

    @pytest.mark.parametrize("seed", [7, 44, 62])
    def test_infeasible_seeds_proved_quickly(self, seed):
        res = hamiltonian_audit(seed_graph(seed))
        assert res.feasible is False
        assert res.nodes_expanded < 1000

    def test_seed_72_feasible_with_hamiltonian_witness(self):
        g = seed_graph(72)
        res = hamiltonian_audit(g)
        assert res.feasible is True
        assert res.nodes_expanded < 1000
        assert validate_path(g, res.witness) == (STATUS_HAMILTONIAN, 0)

    def test_search_without_backtracking_is_unchanged(self):
        # Seed 3 descends straight to its witness (one node per cell), so
        # the rule, which waits for the first dead end, never runs.
        g = seed_graph(3)
        res = hamiltonian_audit(g)
        before = hamiltonian_audit(g, prunes=ALL_PRUNES - {PRUNE_CUT})
        assert res.nodes_expanded == before.nodes_expanded == g.n
        assert res.witness == before.witness


class TestPrunesKeepTheWitness:
    """A prune cuts only subtrees without a solution, so the first witness in
    search order, not just the decision, is the same under any pruning set."""

    def test_every_rule_returns_the_unpruned_witness(self):
        rng = np.random.default_rng(20261019)
        feasible = 0
        for _ in range(300):
            g = random_small_graph(rng, max_cells=12)
            bare = hamiltonian_audit(g, prunes=frozenset())
            feasible += bool(bare.feasible)
            for rules in [*(frozenset({r}) for r in ALL_PRUNES), ALL_PRUNES]:
                res = hamiltonian_audit(g, prunes=rules)
                assert (res.feasible, res.witness) == (bare.feasible, bare.witness)
        assert 20 < feasible < 280

    def test_witnesses_of_seeds_0_199_pinned(self):
        # Taken before the prunes waited for the first dead end: a prune
        # change that reorders the search fails here.
        rows = [[seed, res.feasible, res.witness] for seed, res in audits_of_seeds_0_199()]
        assert len(rows) == AUDITED_SEEDS_0_199
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_WITNESSES_0_199

    def test_records_of_seeds_0_199_store_the_audit_witness(self):
        # A record's witness is the one its admission audit found, so the
        # pin above pins it too, and a change to the search moves dataset
        # bytes. Every seed the audit finds feasible is admitted.
        config = GenerationConfig()
        audits = dict(audits_of_seeds_0_199())
        stored = {}
        for seeds in (range(s, s + BLOCK_SEEDS) for s in range(0, 200, BLOCK_SEEDS)):
            outs = build_block([(choose_family(s, config), s) for s in seeds], config)
            for out in outs:
                if not isinstance(out, Rejection):
                    stored[out.seed] = instance_to_record(out)["witness"]
        assert stored == {
            seed: list(res.witness) for seed, res in audits.items() if res.feasible
        }

    def test_nodes_of_seeds_0_199_pinned(self):
        # A prune that decides only states another rule already refuses
        # leaves every node count as it is; one that cuts more moves them.
        rows = [
            [seed, res.feasible, res.nodes_expanded] for seed, res in audits_of_seeds_0_199()
        ]
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_NODES_0_199


class TestFrontierDp:
    """`frontier_audit` on its own, without the DFS in front of it."""

    def test_agreement_2000_graphs_up_to_12_cells(self):
        rng = np.random.default_rng(71)
        disagreements = feasible = 0
        for _ in range(2000):
            g = random_small_graph(rng, max_cells=12)
            dp = frontier_audit(g)
            disagreements += dp.feasible != brute_force_enumerate(g).feasible
            if dp.feasible:
                feasible += 1
                assert validate_path(g, dp.witness) == (STATUS_HAMILTONIAN, 0)
            else:
                assert dp.witness is None
        assert disagreements == 0
        assert 100 < feasible < 1900

    def test_fixtures(self):
        for g in (chain_graph(1), chain_graph(3), ring6_graph()):
            res = frontier_audit(g)
            assert res.feasible is True
            assert validate_path(g, res.witness) == (STATUS_HAMILTONIAN, 0)
        g = spur_ring_graph(OffsetCoord(0, 1), OffsetCoord(0, 2))
        assert frontier_audit(g).feasible is False
        g = graph_from_coords(
            [OffsetCoord(0, 0), OffsetCoord(5, 5)], 1.0, [0], [1], Point(-2, 0)
        )
        res = frontier_audit(g)
        assert (res.feasible, res.witness) == (False, None)

    @pytest.mark.parametrize("seed", [7, 44, 62, 342, 1, 2, 3, 6, 8, 9])
    def test_agrees_with_dfs_on_pipeline_seeds(self, seed):
        # 7, 44, 62 and 342 are the infeasible seeds of 0-399.
        g = seed_graph(seed)
        dp = frontier_audit(g)
        assert dp.feasible == hamiltonian_audit(g).feasible
        if dp.feasible:
            assert validate_path(g, dp.witness) == (STATUS_HAMILTONIAN, 0)


class TestAuditTail:
    """Pipeline seeds the DFS cannot settle in DFS_NODE_CAP nodes."""

    @pytest.mark.parametrize("seed", [1114, 7190, 9865])
    def test_feasible_with_hamiltonian_witness(self, seed):
        g = seed_graph(seed)
        res = hamiltonian_audit(g)
        assert res.feasible is True
        assert res.nodes_expanded > DFS_NODE_CAP
        assert validate_path(g, res.witness) == (STATUS_HAMILTONIAN, 0)
        assert res.elapsed_ms < 10_000
        again = hamiltonian_audit(g)
        assert (again.witness, again.nodes_expanded) == (res.witness, res.nodes_expanded)

    @pytest.mark.parametrize("seed", [3205, 6261, 10756])
    def test_infeasible(self, seed):
        res = hamiltonian_audit(seed_graph(seed))
        assert res.feasible is False
        assert res.nodes_expanded > DFS_NODE_CAP
        assert res.elapsed_ms < 10_000
