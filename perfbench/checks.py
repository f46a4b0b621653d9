"""Output checks that do not trust the program under test.

The benchmark grades datasets and result files with its own code: payload
checksums, instance invariants, a complete instance x method matrix, and an
independent walk grader. Nothing here imports `hexcover`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

# The 17 canonical method slugs, in the order the paper lists them.
METHODS = (
    "boustrophedon", "row-oneway", "segment-snake",
    "row-interleave", "seg-interleave",
    "spiral-inward", "spiral-outward", "boundary-peel",
    "stc-tree", "stc-like",
    "warnsdorff-ep-index", "warnsdorff-ep-dist",
    "warnsdorff-ti-index", "warnsdorff-ti-dist", "dfs-backtrack",
    "wavefront-hex",
    "morton",
)

HAMILTONIAN = "HamiltonianSuccess"
COVERAGE = "CoverageSuccess"
FAIL = "Fail"

REPORT_FILES = ("feasibility.md", "quality.md", "warnsdorff.md", "morphology.md")
PLOT_FILES = ("hsr_bar.svg", "revisits_vs_distance.svg")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def manifest_path(dataset: Path) -> Path:
    return Path(str(dataset) + ".manifest.json")


def dump_line(obj: dict) -> str:
    """The canonical JSONL encoding the dataset checksum is taken over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def results_digest(records: list[dict]) -> str:
    """SHA-256 of every result field except latency_ms, order-independent.

    Two runs of byte-identical planners and metrics give the same digest
    whatever the worker count and however long each plan took.
    """
    rows = sorted(dump_line({k: v for k, v in r.items() if k != "latency_ms"}) for r in records)
    return sha256_text("\n".join(rows))


def check_dataset(dataset: Path, count: int) -> tuple[list[str], dict | None]:
    """Problems with a generated dataset, and its manifest when readable."""
    try:
        payload = dataset.read_text()
        manifest = json.loads(manifest_path(dataset).read_text())
        records = [json.loads(line) for line in payload.splitlines() if line.strip()]
    except (OSError, ValueError) as exc:
        return [f"dataset unreadable: {exc}"], None
    problems = []
    if sha256_text(payload) != manifest.get("sha256"):
        problems.append("dataset SHA-256 differs from its manifest")
    if len(records) != count or manifest.get("count") != count:
        problems.append(f"expected {count} instances, found {len(records)}")
    lo, hi = manifest.get("config", {}).get("size_band", (0, 0))
    ids = set()
    for rec in records:
        n = len(rec["cells"])
        if not (lo <= n <= hi):
            problems.append(f"{rec['id']}: {n} cells outside the size band")
        if rec["audited_feasible"] is not True or not rec["base_links"]:
            problems.append(f"{rec['id']}: not audited or no base links")
        ids.add(rec["id"])
    if len(ids) != len(records):
        problems.append("duplicate instance ids")
    return problems, manifest


def _adjacency(rec: dict) -> list[set[int]]:
    n = len(rec["cells"])
    adj: list[set[int]] = [set() for _ in range(n + 2)]
    for a, b in rec["edges"]:
        adj[a].add(b)
        adj[b].add(a)
    for virtual, links in ((n, rec["base_links"]), (n + 1, rec["terminal_links"])):
        for i in links:
            adj[virtual].add(i)
            adj[i].add(virtual)
    return adj


def grade(rec: dict, adj: list[set[int]], result: dict) -> str | None:
    """Re-grade one result record; return a problem description or None."""
    n = len(rec["cells"])
    walk = result["walk"]
    where = f"{result['instance_id']}/{result['method']}"
    if not walk or walk[0] != n:
        return f"{where}: walk does not start at the base"
    if any(v >= n for v in walk[1:-1]):
        return f"{where}: virtual node inside the walk"
    if any(b not in adj[a] for a, b in zip(walk, walk[1:])):
        return f"{where}: walk steps between non-adjacent nodes"
    visits = Counter(v for v in walk if v < n)
    revisits = sum(visits.values()) - len(visits)
    complete = len(visits) == n and len(walk) > 1 and walk[-1] == n + 1
    status = (HAMILTONIAN if revisits == 0 else COVERAGE) if complete else FAIL
    if result["status"] != status or result["revisits"] != revisits:
        return f"{where}: stored {result['status']}/{result['revisits']}, walk grades {status}/{revisits}"
    return None


def check_results(results: Path, instances: list[dict], rng, sample: int) -> tuple[list[str], list[dict]]:
    """Problems with a results file: matrix completeness plus `sample` walks re-graded."""
    try:
        records = read_jsonl(results)
    except (OSError, ValueError) as exc:
        return [f"results unreadable: {exc}"], []
    by_id = {rec["id"]: rec for rec in instances}
    expected = {(iid, m) for iid in by_id for m in METHODS}
    got = Counter((r.get("instance_id"), r.get("method")) for r in records)
    problems = []
    if set(got) != expected or len(records) != len(expected):
        problems.append(f"results do not form the {len(by_id)} x {len(METHODS)} matrix")
    for r in rng.sample(records, min(sample, len(records))):
        rec = by_id.get(r.get("instance_id"))
        problem = "unknown instance" if rec is None else grade(rec, _adjacency(rec), r)
        if problem:
            problems.append(problem)
    return problems, records


def check_report(report_dir: Path, plots_dir: Path) -> list[str]:
    missing = [f for f in REPORT_FILES if not (report_dir / f).is_file()]
    missing += [f for f in PLOT_FILES if not (plots_dir / f).is_file()]
    return [f"report file missing: {f}" for f in missing]
