import math
import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st
from conftest import (
    RING6_COORDS,
    chain_graph,
    naive_validate,
    path_distance,
    path_turns,
    random_small_graph,
    random_walk,
    ring6_graph,
)

from hexcover.lattice import (
    STATUS_COVERAGE,
    STATUS_FAIL,
    STATUS_HAMILTONIAN,
    IncompleteMatrixError,
    LatticeFrame,
    MalformedWalkError,
    OffsetCoord,
    Point,
    graph_from_coords,
    validate_path,
)
from hexcover.metrics import aggregate_summary, compute_path_metrics

# ---------------------------------------------------------------------------
# Three-pass references: the grader and the two metric loops that
# compute_path_metrics replaced with one grading loop and one measuring loop.


def ref_validate_path(g, walk):
    if not walk or walk[0] != g.base_node:
        raise MalformedWalkError("walk must start at the base node")
    for node in walk[1:-1]:
        if node >= g.n:
            raise MalformedWalkError("virtual node inside the walk body")
    for a, b in zip(walk, walk[1:]):
        if b not in g.adjacency[a]:
            raise MalformedWalkError(f"nodes {a} and {b} are not adjacent")

    counts = Counter(v for v in walk if v < g.n)
    revisits = sum(counts.values()) - len(counts)
    covered = len(counts) == g.n
    ends_at_terminal = len(walk) > 1 and walk[-1] == g.terminal_node
    if covered and ends_at_terminal and revisits == 0:
        return STATUS_HAMILTONIAN, 0
    if covered and ends_at_terminal:
        return STATUS_COVERAGE, revisits
    return STATUS_FAIL, revisits


def ref_path_distance(g, walk):
    r = g.base_radius
    pos = g.positions
    total = 0.0
    for a, b in zip(walk, walk[1:]):
        (ax, ay), (bx, by) = pos[a], pos[b]
        total += math.hypot(bx - ax, by - ay)
    return total / r


def ref_path_turns(g, walk):
    pos = g.positions
    headings = []
    for a, b in zip(walk, walk[1:]):
        (ax, ay), (bx, by) = pos[a], pos[b]
        dx, dy = bx - ax, by - ay
        if dx == 0.0 and dy == 0.0:
            continue
        headings.append(math.atan2(dy, dx))
    total = 0.0
    for h0, h1 in zip(headings, headings[1:]):
        d = h1 - h0
        while d <= -math.pi:
            d += 2.0 * math.pi
        while d > math.pi:
            d -= 2.0 * math.pi
        total += abs(d)
    return total


def ref_compute_path_metrics(g, walk):
    status, revisits = ref_validate_path(g, walk)
    distance = ref_path_distance(g, walk) if len(walk) > 1 else 0.0
    return status, revisits, distance, ref_path_turns(g, walk)


def outcome(fn, g, walk):
    """What `fn(g, walk)` returns, floats as float.hex so that -0.0 and the
    last bit show, or the type and message of what it raises."""
    try:
        value = fn(g, walk)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    values = value if isinstance(value, tuple) else (value,)
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


PATCH = [OffsetCoord(c, r) for c in range(4) for r in range(4)]


@st.composite
def graph_walks(draw):
    """A random small lattice graph and a walk on it: a random adjacent
    walk from the base, then sometimes a few nodes overwritten (out of
    range, virtual or non-adjacent, the start among them) or the walk cut
    to no node or one. The base sits on a cell centre in about half the
    graphs, so stepping between the base and that cell has zero length."""
    coords = draw(st.lists(st.sampled_from(PATCH), min_size=1, max_size=8, unique=True))
    n = len(coords)
    links = st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
    base_links, terminal_links = draw(links), draw(links)
    g = graph_from_coords(coords, 1.0, base_links, terminal_links, Point(-3.0, -3.0))
    if draw(st.booleans()):
        on_cell = g.positions[draw(st.integers(0, n - 1))]
        g = graph_from_coords(coords, 1.0, base_links, terminal_links, on_cell)
    walk = [g.base_node]
    for k in draw(st.lists(st.integers(0, 5), max_size=24)):
        nbrs = g.adjacency[walk[-1]]
        walk.append(nbrs[k % len(nbrs)])
    for _ in range(draw(st.integers(0, 2))):
        walk[draw(st.integers(0, len(walk) - 1))] = draw(st.integers(-1, n + 2))
    if draw(st.integers(0, 9)) == 0:
        walk = walk[: draw(st.integers(0, 1))]
    return g, walk


def raised(fn, case):
    """The message of the MalformedWalkError `fn(*case)` raises, or None."""
    try:
        fn(*case)
    except MalformedWalkError as exc:
        return str(exc)
    return None


def has_zero_length_step(g, walk):
    pos = g.positions
    return any(
        0 <= a < len(pos) and 0 <= b < len(pos) and pos[a] == pos[b]
        for a, b in zip(walk, walk[1:])
    )


def _zero_step_case():
    g = graph_from_coords([OffsetCoord(c, 0) for c in range(3)], 1.0, [0], [2],
                          Point(0.0, 0.0))
    return g, [g.base_node, 0, 1, 0, g.base_node]


class TestAgainstThreePassReference:
    @settings(max_examples=400, deadline=None)
    @given(graph_walks())
    @example(_zero_step_case())
    def test_one_pass_forms_equal_the_reference(self, case):
        g, walk = case
        for fn, ref in [
            (compute_path_metrics, ref_compute_path_metrics),
            (validate_path, ref_validate_path),
            (path_distance, ref_path_distance),
            (path_turns, ref_path_turns),
        ]:
            assert outcome(fn, g, walk) == outcome(ref, g, walk), fn.__name__

    def test_walks_include_zero_length_steps(self):
        assert has_zero_length_step(*_zero_step_case())
        find(graph_walks(), lambda case: has_zero_length_step(*case)
             and raised(ref_validate_path, case) is None)

    @pytest.mark.parametrize("message", ["must start", "virtual node", "not adjacent"])
    def test_walks_include_each_malformation(self, message):
        find(graph_walks(), lambda case: message in (raised(ref_validate_path, case) or ""))


def rec(instance_id, method, status, revisits=0, distance=1.0, turns=0.0, latency=0.5):
    return {
        "instance_id": instance_id, "method": method, "status": status, "walk": [],
        "revisits": revisits, "distance_norm": distance, "turns_rad": turns,
        "latency_ms": latency,
    }


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

    def test_virtual_node_is_reported_before_an_earlier_gap(self):
        g = chain_graph(3)
        with pytest.raises(MalformedWalkError, match="virtual node"):
            validate_path(g, [g.base_node, 0, 2, 1, g.base_node, 0])

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


# Floats over 121 binades of either sign: their exact sums need denominators
# up to 2**113 and numerators far wider than a float's 53 bits.
BINADE_FLOATS = st.builds(
    lambda m, e, sign: sign * math.ldexp(m, e),
    st.floats(1.0, 2.0, exclude_max=True), st.integers(-60, 60), st.sampled_from((1.0, -1.0)),
)
SUMMARY_VALUES = st.one_of(
    st.lists(st.integers(-10**9, 10**9), min_size=2, max_size=30),
    st.lists(BINADE_FLOATS, min_size=2, max_size=30),
    st.lists(st.one_of(st.integers(-50, 50), BINADE_FLOATS), min_size=2, max_size=30),
    st.builds(lambda x, n: [x] * n, st.one_of(st.integers(-99, 99), BINADE_FLOATS),
              st.integers(2, 30)),
)


class TestAggregate:
    @settings(max_examples=400, deadline=None)
    @given(SUMMARY_VALUES)
    @example([1, 3])  # a whole mean of ints is an int
    @example([2, 3])
    @example([0.1, 0.2, 0.3])
    @example([-0.0, -0.0])
    def test_means_and_sds_are_those_of_statistics(self, values):
        # Each value as every summarised field of one covered cell.
        records = [rec(f"i{k}", "m", STATUS_COVERAGE, v, v, v, v) for k, v in enumerate(values)]
        (row,) = aggregate_summary(records, ["m"])
        mean, sd = statistics.mean(values), statistics.stdev(values)
        for got in (row.revisits_mean, row.distance_mean, row.turns_mean, row.latency_mean_ms):
            assert type(got) is type(mean) and repr(got) == repr(mean)
        for got in (row.revisits_sd, row.distance_sd, row.turns_sd):
            assert type(got) is float and repr(got) == repr(sd)

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
        (row,) = aggregate_summary(records, ["m"])
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
        (row,) = aggregate_summary(records, ["m"])
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
