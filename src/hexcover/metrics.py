"""Walk validation and the benchmark evaluation metrics.

A walk is a node sequence starting at the base node. Validation grades it as
HamiltonianSuccess (all cells exactly once, ends at the terminal),
CoverageSuccess (all cells at least once, ends at the terminal) or Fail.
Distances are reported in a base-centred frame scaled by the largest
cell-to-base radius, so they are invariant under translation, rotation and
uniform scaling of the instance.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from statistics import mean, stdev
from typing import Iterable, Sequence

from hexcover.graphbuild import CoverageGraph

log = logging.getLogger(__name__)

STATUS_HAMILTONIAN = "HamiltonianSuccess"
STATUS_COVERAGE = "CoverageSuccess"
STATUS_FAIL = "Fail"


class MalformedWalkError(ValueError):
    pass


class IncompleteMatrixError(ValueError):
    pass


@dataclass(frozen=True)
class SummaryRow:
    method: str
    n_instances: int
    hsr_pct: float
    ccr_pct: float
    n_covered: int
    revisits_mean: float | None
    revisits_sd: float | None
    distance_mean: float | None
    distance_sd: float | None
    turns_mean: float | None
    turns_sd: float | None
    latency_mean_ms: float


def validate_path(g: CoverageGraph, walk: Sequence[int]) -> tuple[str, int]:
    """Grade a walk and count its revisits.

    Revisits count internal cells only: total cell visit events minus
    distinct cells visited. A structurally broken walk (wrong start, virtual
    node in the middle, non-adjacent consecutive pair) raises
    MalformedWalkError rather than returning Fail, because it indicates a
    planner bug, not a planner failure.
    """
    if not walk or walk[0] != g.base_node:
        raise MalformedWalkError("walk must start at the base node")
    for node in walk[1:-1]:
        if node >= g.n:
            raise MalformedWalkError("virtual node inside the walk body")
    for a, b in zip(walk, walk[1:]):
        if not g.is_edge(a, b):
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


def path_distance(g: CoverageGraph, walk: Sequence[int]) -> float:
    """Total walk length in the base-centred, radius-normalized frame."""
    r = g.base_radius
    pos = g.positions
    total = 0.0
    for a, b in zip(walk, walk[1:]):
        pa, pb = pos[a], pos[b]
        total += math.hypot(pb.x - pa.x, pb.y - pa.y)
    return total / r


def path_turns(g: CoverageGraph, walk: Sequence[int]) -> float:
    """Cumulative absolute heading change in radians along the walk."""
    pos = g.positions
    headings = []
    for a, b in zip(walk, walk[1:]):
        pa, pb = pos[a], pos[b]
        dx, dy = pb.x - pa.x, pb.y - pa.y
        if dx == 0.0 and dy == 0.0:
            log.debug("zero-length segment %s->%s contributes no turn", a, b)
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


def compute_path_metrics(g: CoverageGraph, walk: Sequence[int]) -> tuple[str, int, float, float]:
    """(status, revisits, distance_norm, turns_rad), in ResultRecord field order."""
    status, revisits = validate_path(g, walk)
    distance = path_distance(g, walk) if len(walk) > 1 else 0.0
    return status, revisits, distance, path_turns(g, walk)


def aggregate_summary(
    records: Iterable,
    method_order: Sequence[str] | None = None,
) -> list[SummaryRow]:
    """Per-method summary over a complete instance x method result matrix.

    `records` are harness.ResultRecord: the summary reads their instance_id,
    method, status, revisits, distance_norm, turns_rad and latency_ms.
    HSR and CCR are fractions over all instances; revisit/distance/turn
    statistics are conditional on the completed-coverage subset and use the
    sample standard deviation. Missing or repeated (instance, method) cells
    raise IncompleteMatrixError, and so do no records for a method to
    summarise.
    """
    by_method: dict[str, dict] = {}
    instance_ids: set[str] = set()
    for r in records:
        cells = by_method.setdefault(r.method, {})
        if r.instance_id in cells:
            raise IncompleteMatrixError(f"repeated result cell {r.instance_id}:{r.method}")
        cells[r.instance_id] = r
        instance_ids.add(r.instance_id)

    methods = list(method_order) if method_order is not None else sorted(by_method)
    if methods and not instance_ids:
        raise IncompleteMatrixError(f"no result records for {', '.join(methods)}")
    missing = []
    for method in methods:
        cells = by_method.get(method, {})
        for iid in sorted(instance_ids):
            if iid not in cells:
                missing.append((iid, method))
    if missing:
        head = ", ".join(f"{i}:{m}" for i, m in missing[:5])
        raise IncompleteMatrixError(f"{len(missing)} missing result cells ({head} ...)")

    rows = []
    total = len(instance_ids)
    for method in methods:
        cells = by_method[method]
        ham = sum(r.status == STATUS_HAMILTONIAN for r in cells.values())
        covered = [
            r
            for r in cells.values()
            if r.status in (STATUS_HAMILTONIAN, STATUS_COVERAGE)
        ]
        rows.append(
            SummaryRow(
                method=method,
                n_instances=total,
                hsr_pct=100.0 * ham / total,
                ccr_pct=100.0 * len(covered) / total,
                n_covered=len(covered),
                revisits_mean=_mean([r.revisits for r in covered]),
                revisits_sd=_sd([r.revisits for r in covered]),
                distance_mean=_mean([r.distance_norm for r in covered]),
                distance_sd=_sd([r.distance_norm for r in covered]),
                turns_mean=_mean([r.turns_rad for r in covered]),
                turns_sd=_sd([r.turns_rad for r in covered]),
                latency_mean_ms=mean(r.latency_ms for r in cells.values()),
            )
        )
    return rows


def _mean(xs: list) -> float | None:
    return mean(xs) if xs else None


def _sd(xs: list) -> float | None:
    return stdev(xs) if len(xs) >= 2 else None
