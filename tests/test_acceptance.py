"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion, on a regenerated, audited, seed-fixed dataset of 1000
instances (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
from collections import defaultdict

import numpy as np
import pytest
from conftest import RING6_COORDS, random_small_graph, ring6_graph

from hexcover.graphbuild import GenerationConfig, LatticeFrame, graph_from_coords
from hexcover.harness import (
    audit_dataset,
    generate_dataset,
    load_instances,
    run_benchmark,
)
from hexcover.hexgeom import Point
from hexcover.metrics import (
    STATUS_COVERAGE,
    STATUS_FAIL,
    STATUS_HAMILTONIAN,
    aggregate_summary,
    path_distance,
    path_turns,
    validate_path,
)
from hexcover.oracle import brute_force_enumerate, hamiltonian_audit
from hexcover.planners import METHOD_ORDER, WARNSDORFF_SLUGS

ACCEPT_COUNT = 1000
ACCEPT_SEED = 0

RECONNECTION_12 = [
    "boustrophedon", "row-oneway", "segment-snake",
    "row-interleave", "seg-interleave",
    "spiral-inward", "spiral-outward", "boundary-peel",
    "stc-tree", "stc-like", "wavefront-hex", "morton",
]
# Table-style zero-HSR pattern applies to all of them except Wavefront-Hex,
# which keeps a small genuine Hamiltonian rate of its own.
ZERO_HSR_11 = [m for m in RECONNECTION_12 if m != "wavefront-hex"]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "dataset.jsonl"
    generate_dataset(ACCEPT_COUNT, ACCEPT_SEED, GenerationConfig(), path)
    return path


@pytest.fixture(scope="module")
def instances(dataset_path):
    return load_instances(dataset_path)


@pytest.fixture(scope="module")
def records(dataset_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_results") / "results.jsonl"
    return run_benchmark(dataset_path, "all", out)


@pytest.fixture(scope="module")
def summary(records):
    rows = aggregate_summary(records, METHOD_ORDER)
    return {r.method: r for r in rows}


def test_criterion_1_oracle_soundness():
    rng = np.random.default_rng(987654321)
    disagreements = 0
    for _ in range(500):
        g = random_small_graph(rng, max_cells=10)
        if hamiltonian_audit(g).feasible != brute_force_enumerate(g).feasible:
            disagreements += 1
    report(
        "criterion 1 (oracle soundness)",
        disagreements == 0,
        f"{disagreements} disagreements over 500 random graphs with <= 10 cells",
    )


def test_criterion_2_audit_gate(dataset_path):
    audit = audit_dataset(dataset_path)
    ok = (
        audit["total"] == ACCEPT_COUNT
        and audit["feasible"] == ACCEPT_COUNT
        and not audit["infeasible_ids"]
    )
    report(
        "criterion 2 (audit gate)",
        ok,
        f"{audit['feasible']}/{audit['total']} instances re-audit feasible",
    )


def test_criterion_3_coverage_guarantees(summary):
    ccr_bad = [m for m in RECONNECTION_12 if summary[m].ccr_pct != 100.0]
    hsr_bad = [m for m in ZERO_HSR_11 if summary[m].hsr_pct > 1.0]
    wf = summary["wavefront-hex"].hsr_pct
    ok = not ccr_bad and not hsr_bad and 2.0 <= wf <= 13.0
    report(
        "criterion 3 (coverage guarantees)",
        ok,
        f"CCR==100 for 12 reconnection planners (bad: {ccr_bad or 'none'}), "
        f"HSR<=1% for 11 (bad: {hsr_bad or 'none'}), wavefront HSR {wf:.1f} in [2, 13]",
    )


def test_criterion_4_warnsdorff_identity(records, summary):
    bad_status = [
        r for r in records
        if r.method in WARNSDORFF_SLUGS and r.status == STATUS_COVERAGE
    ]
    mismatch = [
        m for m in WARNSDORFF_SLUGS if summary[m].hsr_pct != summary[m].ccr_pct
    ]
    ok = not bad_status and not mismatch
    report(
        "criterion 4 (Warnsdorff HSR = CCR identity)",
        ok,
        f"{len(bad_status)} CoverageSuccess records, rate mismatches: {mismatch or 'none'}",
    )


def test_criterion_5_warnsdorff_ordering(summary):
    ti_i = summary["warnsdorff-ti-index"].hsr_pct
    ti_d = summary["warnsdorff-ti-dist"].hsr_pct
    ep_i = summary["warnsdorff-ep-index"].hsr_pct
    ep_d = summary["warnsdorff-ep-dist"].hsr_pct
    ok = (
        ti_i > ti_d > ep_i > ep_d
        and (ti_i - ep_i) >= 15.0
        and 65.0 <= ti_i <= 90.0
    )
    report(
        "criterion 5 (Warnsdorff ordering)",
        ok,
        f"TI(idx)={ti_i:.1f} > TI(dist)={ti_d:.1f} > EP(idx)={ep_i:.1f} > "
        f"EP(dist)={ep_d:.1f}; TI-EP gap {ti_i - ep_i:.1f}pp; TI(idx) in [65, 90]",
    )


def test_criterion_6_morphology_stratification(records, instances):
    label_of = {i.id: i.morphology_label for i in instances}
    rates = {}
    for label in ("Compact", "Irregular"):
        ids = {iid for iid, lab in label_of.items() if lab == label}
        hits = sum(
            1
            for r in records
            if r.method == "warnsdorff-ti-index"
            and r.instance_id in ids
            and r.status == STATUS_HAMILTONIAN
        )
        rates[label] = 100.0 * hits / len(ids)
    gap = rates["Compact"] - rates["Irregular"]
    report(
        "criterion 6 (morphology stratification)",
        gap >= 10.0,
        f"TI(idx) HSR Compact {rates['Compact']:.1f} vs Irregular "
        f"{rates['Irregular']:.1f}: gap {gap:.1f}pp >= 10pp",
    )


def test_criterion_7_quality_orderings(summary, instances):
    mean_cells = sum(i.graph.n for i in instances) / len(instances)
    bous = summary["boustrophedon"].revisits_mean
    ri = summary["row-interleave"].revisits_mean
    stc_t = summary["stc-tree"].revisits_mean
    stc_l = summary["stc-like"].revisits_mean
    wf = summary["wavefront-hex"].revisits_mean
    lo, hi = mean_cells - 10, mean_cells + 5
    ok = (
        bous < ri < min(stc_t, stc_l)
        and lo <= stc_t <= hi
        and lo <= stc_l <= hi
        and wf < 10.0
    )
    report(
        "criterion 7 (quality orderings)",
        ok,
        f"revisits boustrophedon {bous:.1f} < row-interleave {ri:.1f} < STC "
        f"{stc_t:.1f}/{stc_l:.1f}; STC in [{lo:.1f}, {hi:.1f}]; wavefront {wf:.1f} < 10",
    )


def test_criterion_8_status_contracts(records, instances):
    graphs = {i.id: i.graph for i in instances}
    bad = 0
    for r in records:
        g = graphs[r.instance_id]
        status, revisits = validate_path(g, r.walk)
        if status != r.status:
            bad += 1
        elif r.status == STATUS_HAMILTONIAN and revisits != 0:
            bad += 1
        elif r.status == STATUS_COVERAGE:
            covered = {v for v in r.walk if v < g.n}
            if len(covered) != g.n or r.walk[-1] != g.terminal_node:
                bad += 1
    report(
        "criterion 8 (status contracts)",
        bad == 0,
        f"{bad} of {len(records)} walks violate their claimed status",
    )


def test_criterion_9_metric_invariances(instances):
    inst = instances[0]
    g0 = inst.graph
    coords = [c.coord for c in g0.cells]
    walk = hamiltonian_audit(g0).witness

    d0 = path_distance(g0, walk)
    worst = 0.0
    for angle, scale, shift in ((0.7, 1.0, (3.0, -4.0)), (2.1, 5.0, (-10.0, 2.0)), (0.0, 0.25, (0.0, 0.0))):
        frame0 = g0.frame
        origin = Point(frame0.origin.x * scale + shift[0], frame0.origin.y * scale + shift[1])
        frame = LatticeFrame(origin, frame0.angle + angle)
        ca, sa = math.cos(angle), math.sin(angle)
        bx = g0.base_pos.x - frame0.origin.x
        by = g0.base_pos.y - frame0.origin.y
        base = Point(
            origin.x + scale * (ca * bx - sa * by),
            origin.y + scale * (sa * bx + ca * by),
        )
        gt = graph_from_coords(
            coords, g0.h * scale, g0.base_links, g0.terminal_links, base, frame
        )
        worst = max(worst, abs(path_distance(gt, walk) - d0))
        worst = max(worst, abs(path_turns(gt, walk) - path_turns(g0, walk)))

    ring = ring6_graph()
    order = [sorted(RING6_COORDS).index(c) for c in RING6_COORDS]
    loop_turn = path_turns(ring, order + [order[0], order[1]])
    chain = graph_from_coords(
        [(0, r) for r in range(4)], 1.0, [0], [3], Point(0.0, -2.0)
    )
    collinear = path_turns(chain, [0, 1, 2, 3])
    ok = (
        worst <= 1e-9
        and collinear == pytest.approx(0.0, abs=1e-12)
        and loop_turn == pytest.approx(2.0 * math.pi, abs=1e-9)
    )
    report(
        "criterion 9 (metric invariances)",
        ok,
        f"max transform deviation {worst:.2e} <= 1e-9; collinear turns "
        f"{collinear:.2e}; hexagon loop {loop_turn:.12f} vs 2*pi",
    )


def test_criterion_10_determinism(dataset_path, records, tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_repro")
    again = root / "dataset.jsonl"
    generate_dataset(ACCEPT_COUNT, ACCEPT_SEED, GenerationConfig(), again)
    same_bytes = dataset_path.read_bytes() == again.read_bytes()

    rerun = run_benchmark(again, "all", root / "results.jsonl")

    def strip(rs):
        return [
            (r.instance_id, r.method, r.status, r.walk, r.revisits,
             r.distance_norm, r.turns_rad)
            for r in rs
        ]

    same_records = strip(records) == strip(rerun)
    ok = same_bytes and same_records
    report(
        "criterion 10 (determinism)",
        ok,
        f"byte-identical dataset: {same_bytes}; identical non-latency records: {same_records}",
    )


def test_reference_quality_bands(summary):
    # Banded expectations carried by the planner and metric contracts on a
    # regenerated set (not among the numbered criteria).
    bous = summary["boustrophedon"].revisits_mean
    stc_t = summary["stc-tree"].revisits_mean
    stc_l = summary["stc-like"].revisits_mean
    morton = summary["morton"].revisits_mean
    interleave = summary["row-interleave"].revisits_mean
    ti_dist = summary["warnsdorff-ti-index"].distance_mean
    ok = (
        4.4 <= bous <= 8.4
        and 30.0 <= stc_t <= 42.0
        and 30.0 <= stc_l <= 42.0
        and morton > bous
        and interleave >= bous
        and 2.9 <= ti_dist <= 3.7
    )
    report(
        "quality bands (planner/metric contracts)",
        ok,
        f"boustrophedon revisits {bous:.1f} in [4.4, 8.4]; STC {stc_t:.1f}/{stc_l:.1f} "
        f"in [30, 42]; morton {morton:.1f} > boustrophedon; interleave {interleave:.1f}; "
        f"TI(idx) distance {ti_dist:.2f} in [2.9, 3.7]",
    )


def test_criterion_11_latency_sanity(summary):
    warnsdorff_worst = max(summary[m].latency_mean_ms for m in WARNSDORFF_SLUGS)
    sweep_worst = max(
        summary[m].latency_mean_ms
        for m in ("boustrophedon", "row-oneway", "segment-snake")
    )
    ok = warnsdorff_worst < 10.0 and sweep_worst < 500.0
    report(
        "criterion 11 (latency sanity)",
        ok,
        f"worst Warnsdorff mean {warnsdorff_worst:.2f}ms < 10ms; "
        f"worst sweep mean {sweep_worst:.2f}ms < 500ms",
    )


def test_distribution_sanity_morphology_prior(instances):
    # Soft shape prior: Compact most frequent, Elongated least frequent.
    counts = defaultdict(int)
    for inst in instances:
        counts[inst.morphology_label] += 1
    ok = (
        counts["Compact"] == max(counts.values())
        and counts["Elongated"] == min(counts.values())
    )
    report(
        "distribution sanity (morphology prior)",
        ok,
        f"counts {dict(sorted(counts.items()))}",
    )


def test_no_fail_statuses_outside_contract(records):
    # Reconnection planners never fail on admitted (connected) instances.
    bad = [
        (r.instance_id, r.method)
        for r in records
        if r.method in RECONNECTION_12 and r.status == STATUS_FAIL
    ]
    report(
        "sanity (no reconnection failures)",
        not bad,
        f"{len(bad)} unexpected Fail records",
    )
