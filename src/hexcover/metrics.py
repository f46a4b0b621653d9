"""The benchmark evaluation metrics: a walk's measured fields and the
per-method summary.

A walk is a node sequence starting at the base node. `validate_path`, which
lives in the instance model (`hexcover.lattice`) so that a dataset's
witnesses are checked without this module, grades it as HamiltonianSuccess
(all cells exactly once, ends at the terminal), CoverageSuccess (all cells
at least once, ends at the terminal) or Fail, and this module summarises
those grades. Distances are reported in a base-centred frame scaled by
the largest cell-to-base radius, so they are invariant under translation,
rotation and uniform scaling of the instance.
"""

from __future__ import annotations

from math import atan2, gcd, hypot, isqrt, pi, tau
from typing import Iterable, NamedTuple, Sequence

from hexcover.lattice import (
    STATUS_COVERAGE,
    STATUS_HAMILTONIAN,
    CoverageGraph,
    IncompleteMatrixError,
    validate_path,
)


class SummaryRow(NamedTuple):
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


def _length_and_turns(g: CoverageGraph, walk: Sequence[int]) -> tuple[float, float]:
    """Raw walk length and cumulative absolute heading change, in one pass.

    A zero-length step has no heading, so it adds no turn.
    """
    if len(walk) < 2:
        return 0.0, 0.0
    pos = g.positions
    length = turns = 0.0
    heading = None
    ax, ay = pos[walk[0]]
    for v in walk[1:]:
        bx, by = pos[v]
        dx = bx - ax
        dy = by - ay
        length += hypot(dx, dy)
        if dx != 0.0 or dy != 0.0:
            h = atan2(dy, dx)
            if heading is not None:
                d = h - heading
                while d <= -pi:
                    d += tau
                while d > pi:
                    d -= tau
                turns += abs(d)
            heading = h
        ax = bx
        ay = by
    return length, turns


def compute_path_metrics(g: CoverageGraph, walk: Sequence[int]) -> tuple[str, int, float, float]:
    """(status, revisits, distance_norm, turns_rad): a walk's measured result fields."""
    status, revisits = validate_path(g, walk)
    length, turns = _length_and_turns(g, walk)
    distance = length / g.base_radius if len(walk) > 1 else 0.0
    return status, revisits, distance, turns


# A summary's means and sample SDs are exact: every value is an integer over
# one power-of-two denominator, and each result is rounded once, as
# `statistics.mean` and `stdev` round theirs, so the bits are the same.


def _scaled(xs: list) -> tuple[list[int], int]:
    """Integers `ns` and a power of two `d` with each x == n / d exactly."""
    ratios = [x.as_integer_ratio() for x in xs]
    d = max(b for _, b in ratios)
    return [a * (d // b) for a, b in ratios], d


def _mean(xs: list, ns: list[int], d: int) -> float | int:
    """The mean of finite `xs`, scaled to `ns` and `d` by `_scaled`, correctly
    rounded; an int when every value is an int and so is the mean."""
    total, n = sum(ns), len(ns)
    if d == 1 and total % n == 0 and all(isinstance(x, int) for x in xs):
        return total // n
    return total / (n * d)  # int / int rounds correctly


def _sd(ns: list[int], d: int) -> float | None:
    """The sample standard deviation of the values `ns` / `d`, correctly
    rounded; None for fewer than two values."""
    if len(ns) < 2:
        return None
    total, n = sum(ns), len(ns)
    # The variance is num / den: sum((x - mean)^2) / (n - 1), x = n_i / d.
    # It is reduced, as a Fraction is, so that the scale below, which a
    # subnormal result depends on, is the one `stdev` takes.
    num = n * sum(v * v for v in ns) - total * total
    den = n * (n - 1) * d * d
    g = gcd(num, den)
    num, den = num // g, den // g
    # Scale num / den by 4**-q so that its integer square root has at least
    # 55 bits, round that root to odd (1 is or-ed in unless it is exact), and
    # let the one float conversion round it to 53 bits.
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


def _mean_and_sd(xs: list) -> tuple[float | int | None, float | None]:
    """`_mean` and `_sd` of `xs`, scaled once; (None, None) for no values."""
    if not xs:
        return None, None
    ns, d = _scaled(xs)
    return _mean(xs, ns, d), _sd(ns, d)


def aggregate_summary(records: Iterable[dict], method_order: Sequence[str]) -> list[SummaryRow]:
    """Per-method summary over a complete instance x method result matrix, one
    row per method of `method_order`, in that order.

    `records` are results dicts: the summary reads their instance_id, method,
    status, revisits, distance_norm, turns_rad and latency_ms.
    HSR and CCR are fractions over all instances; revisit/distance/turn
    statistics are conditional on the completed-coverage subset and use the
    sample standard deviation, each computed exactly and rounded once to the
    nearest float. Missing or repeated (instance, method) cells raise
    IncompleteMatrixError, and so do no records for a method to summarise.
    """
    by_method: dict[str, dict] = {}
    instance_ids: set[str] = set()
    for r in records:
        cells = by_method.setdefault(r["method"], {})
        if r["instance_id"] in cells:
            raise IncompleteMatrixError(f"repeated result cell {r['instance_id']}:{r['method']}")
        cells[r["instance_id"]] = r
        instance_ids.add(r["instance_id"])

    if method_order and not instance_ids:
        raise IncompleteMatrixError(f"no result records for {', '.join(method_order)}")
    missing = []
    for method in method_order:
        cells = by_method.get(method, {})
        for iid in sorted(instance_ids):
            if iid not in cells:
                missing.append((iid, method))
    if missing:
        head = ", ".join(f"{i}:{m}" for i, m in missing[:5])
        raise IncompleteMatrixError(f"{len(missing)} missing result cells ({head} ...)")

    rows = []
    total = len(instance_ids)
    for method in method_order:
        cells = by_method[method]
        ham = sum(r["status"] == STATUS_HAMILTONIAN for r in cells.values())
        covered = [
            r
            for r in cells.values()
            if r["status"] in (STATUS_HAMILTONIAN, STATUS_COVERAGE)
        ]
        revisits = _mean_and_sd([r["revisits"] for r in covered])
        distance = _mean_and_sd([r["distance_norm"] for r in covered])
        turns = _mean_and_sd([r["turns_rad"] for r in covered])
        latencies = [r["latency_ms"] for r in cells.values()]
        rows.append(
            SummaryRow(
                method=method,
                n_instances=total,
                hsr_pct=100.0 * ham / total,
                ccr_pct=100.0 * len(covered) / total,
                n_covered=len(covered),
                revisits_mean=revisits[0],
                revisits_sd=revisits[1],
                distance_mean=distance[0],
                distance_sd=distance[1],
                turns_mean=turns[0],
                turns_sd=turns[1],
                latency_mean_ms=_mean(latencies, *_scaled(latencies)),
            )
        )
    return rows

