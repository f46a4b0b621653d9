"""Dataset generation, auditing, batch evaluation, and report emission.

Instances and results are append-only JSON-Lines files: every line parses on
its own, and identical inputs always produce identical bytes. A manifest JSON
sits next to each dataset with the generation config, rejection tallies, and
a payload checksum, so a dataset can be regenerated and verified bit for bit.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from hexcover.graphbuild import (
    CoverageGraph,
    GenerationConfig,
    Instance,
    LatticeFrame,
    Rejection,
    build_instance,
    choose_family,
    exterior_boundary,
    graph_from_coords,
)
from hexcover.hexgeom import InvalidParameterError, Point
from hexcover.metrics import (
    IncompleteMatrixError,
    SummaryRow,
    aggregate_summary,
    compute_path_metrics,
    validate_path,
)
from hexcover.planners import METHOD_ORDER, PLANNERS, WARNSDORFF_SLUGS, _spec, timed_plan

DATASET_SCHEMA = "hexcover-dataset/2"
RESULTS_SCHEMA = "hexcover-results/1"
ORACLE_DISPLAY = "Exact DFS (oracle)"

# `generate` gives up once this many seeds in a row are rejected, so that a
# config no seed can pass ends in seconds instead of never. The longest run
# of rejections under the default config in seeds 0-1151 is 3 (seeds
# 373-375), so no dataset of those seeds comes near the bound.
MAX_CONSECUTIVE_REJECTIONS = 200


class DatasetError(ValueError):
    """Unreadable, unparseable, or self-inconsistent dataset/results file."""


class EmptyDatasetError(DatasetError):
    pass


class EvaluationError(RuntimeError):
    """A planner or a metric raised while `run` evaluated an instance."""


def resolve_workers(workers: int | None) -> int:
    """`workers` if given, else `HEXCOVER_WORKERS`, else one per CPU.

    A count below 1 or a non-integer `HEXCOVER_WORKERS` is rejected.
    """
    if workers is None:
        env = os.environ.get("HEXCOVER_WORKERS")
        if not env:
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(env)
        except ValueError:
            raise InvalidParameterError(
                f"HEXCOVER_WORKERS must be an integer, got {env!r}"
            ) from None
    if workers < 1:
        raise InvalidParameterError(f"worker count must be at least 1, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# Instance (de)serialization


def instance_to_record(inst: Instance) -> dict:
    g = inst.graph
    edges = []
    for i in range(g.n):
        for j in g.cell_neighbors(i):
            if i < j:
                edges.append([i, j])
    m = inst.aoi.morphology
    return {
        "schema": DATASET_SCHEMA,
        "id": inst.id,
        "seed": inst.seed,
        "family_hint": inst.aoi.family_hint,
        "morphology": {"label": m.label, "compactness": m.compactness, "aspect": m.aspect},
        "hex_radius": inst.hex_radius,
        "frame": {"origin": [g.frame.origin.x, g.frame.origin.y], "angle": g.frame.angle},
        "cells": [[c.coord.col, c.coord.row, c.center.x, c.center.y] for c in g.cells],
        "edges": edges,
        "base": [g.base_pos.x, g.base_pos.y],
        "terminal": [g.terminal_pos.x, g.terminal_pos.y],
        "base_links": list(g.base_links),
        "terminal_links": list(g.terminal_links),
        "audited_feasible": inst.audited_feasible,
    }


@dataclass(frozen=True)
class LoadedInstance:
    id: str
    seed: int
    family_hint: str
    morphology_label: str
    compactness: float
    aspect: float
    hex_radius: float
    audited_feasible: bool
    graph: CoverageGraph


def record_to_instance(rec: dict) -> LoadedInstance:
    """The instance a dataset record describes.

    A missing or ill-typed field raises DatasetError naming the instance, as
    do links that `attach_base` could not have made: base and terminal links
    that differ, or a link to a cell off the exterior boundary.
    """
    try:
        coords = [(int(c[0]), int(c[1])) for c in rec["cells"]]
        frame = LatticeFrame(
            Point(*rec["frame"]["origin"]), float(rec["frame"]["angle"])
        )
        graph = graph_from_coords(
            coords,
            float(rec["hex_radius"]),
            rec["base_links"],
            rec["terminal_links"],
            Point(*rec["base"]),
            frame,
            edges=[tuple(e) for e in rec["edges"]],
        )
        if graph.base_links != graph.terminal_links:
            raise DatasetError(f"instance {rec['id']}: base_links and terminal_links differ")
        boundary = exterior_boundary(set(coords))
        for i in graph.base_links:
            if graph.cells[i].coord not in boundary:
                raise DatasetError(
                    f"instance {rec['id']}: link {i} is not an exterior-boundary cell"
                )
        for cell, stored in zip(graph.cells, sorted(rec["cells"])):
            if cell.center.x != stored[2] or cell.center.y != stored[3]:
                raise DatasetError(f"instance {rec['id']}: stored centroid mismatch")
        return LoadedInstance(
            id=rec["id"],
            seed=int(rec["seed"]),
            family_hint=rec["family_hint"],
            morphology_label=rec["morphology"]["label"],
            compactness=float(rec["morphology"]["compactness"]),
            aspect=float(rec["morphology"]["aspect"]),
            hex_radius=float(rec["hex_radius"]),
            audited_feasible=bool(rec["audited_feasible"]),
            graph=graph,
        )
    except (DatasetError, InvalidParameterError):
        raise
    except KeyError as exc:
        raise DatasetError(f"instance {rec.get('id')}: missing field {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise DatasetError(f"instance {rec.get('id')}: ill-typed field: {exc}") from exc


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_jsonl(path: str | Path, schema: str, convert) -> list:
    """Every record of a JSON-Lines file of `schema`, passed through `convert`.

    A record of another schema or a parse or `convert` failure raises
    DatasetError naming `<path>:<line>:`; a file without records raises
    EmptyDatasetError.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"file not found: {path}")
    with path.open() as fh:
        return _parse_jsonl(path, fh, schema, convert)


def _parse_jsonl(path: Path, lines, schema: str, convert) -> list:
    """_read_jsonl over the text lines `lines` of the file at `path`."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            found = rec.get("schema") if isinstance(rec, dict) else None
            if found != schema:
                raise ValueError(f"schema {found!r} is not {schema!r}")
            out.append(convert(rec))
        except (KeyError, ValueError, TypeError) as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise EmptyDatasetError(f"{path}: file contains no records")
    return out


def _audited(rec: dict) -> dict:
    if rec["audited_feasible"] is not True:
        raise ValueError(f"instance {rec['id']} is not audited feasible")
    return rec


def _read_manifest(path: str | Path, schema: str, key: str):
    """Field `key` of the manifest `<path>.manifest.json`, or None when there
    is no manifest; an unreadable manifest or one of another schema raises
    DatasetError."""
    manifest_path = Path(str(path) + ".manifest.json")
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
        version, value = manifest["version"], manifest[key]
    except (ValueError, TypeError, KeyError) as exc:
        raise DatasetError(f"{manifest_path}: unreadable manifest: {exc!r}") from exc
    if version != schema:
        raise DatasetError(f"{manifest_path}: schema {version!r} is not {schema!r}")
    return value


def _read_dataset(
    path: str | Path, convert, sha256: str | None = None
) -> tuple[list, str]:
    """Every record of a dataset file, passed through `convert`, and the
    SHA-256 of the file's bytes.

    The file is checked first against its manifest when
    `<path>.manifest.json` exists, and against `sha256` when given: a
    manifest of another schema, or a SHA-256 that is not that of the file's
    bytes, raises DatasetError.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise DatasetError(f"file not found: {path}") from None
    digest = hashlib.sha256(data).hexdigest()
    manifest_sha256 = _read_manifest(path, DATASET_SCHEMA, "sha256")
    if manifest_sha256 not in (None, digest):
        raise DatasetError(f"{path}: SHA-256 does not match {path}.manifest.json")
    if sha256 not in (None, digest):
        raise DatasetError(
            f"{path}: SHA-256 {digest[:12]}... is not {sha256[:12]}..., the dataset"
            " the results were run on"
        )
    # The bytes already read, decoded and split into lines as opening the
    # file in text mode would.
    lines = io.TextIOWrapper(io.BytesIO(data))
    return _parse_jsonl(Path(path), lines, DATASET_SCHEMA, convert), digest


def load_instances(path: str | Path, sha256: str | None = None) -> list[LoadedInstance]:
    """The instances of a dataset file; with `sha256`, only if the file's
    bytes have that SHA-256."""
    return _read_dataset(path, lambda rec: record_to_instance(_audited(rec)), sha256)[0]


# ---------------------------------------------------------------------------
# Generation


@dataclass(frozen=True)
class DatasetManifest:
    """What a dataset was generated from, what was rejected, and its checksum.

    `seeds_scanned` is the exact number of seeds consumed, from `seed_start`
    up to and including the seed that admitted the last instance, so it
    equals `count` plus the sum of `rejections`.
    """

    version: str
    config: dict
    seed_start: int
    count: int
    seeds_scanned: int
    rejections: dict
    morphology_counts: dict
    sha256: str

    def to_dict(self) -> dict:
        return asdict(self)


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker soon after the process that started
    it is gone.

    A worker waits on its task queue, whose write end it also holds, so the
    death of its parent, by SIGKILL say, never wakes it. A daemon thread
    watches the parent's id instead: it changes when the worker is
    reparented.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_exit_with_parent, initargs=(os.getpid(),)
    )


def _build_for_seed(args: tuple[int, dict]):
    seed, config_dict = args
    config = GenerationConfig.from_dict(config_dict)
    family = choose_family(seed, config)
    out = build_instance(family, seed, config)
    if isinstance(out, Rejection):
        return seed, "rej", out.reason
    return seed, "ok", instance_to_record(out)


def generate_dataset(
    count: int,
    seed: int,
    config: GenerationConfig,
    out_path: str | Path,
    workers: int | None = None,
) -> DatasetManifest:
    """Write `count` audited instances scanning seeds upward from `seed`.

    The admitted set is the first `count` audit-passing seeds in ascending
    order, so the output is identical for any worker count. After
    MAX_CONSECUTIVE_REJECTIONS rejected seeds in a row it raises
    InvalidParameterError and writes nothing.
    """
    if count <= 0:
        raise InvalidParameterError("count must be positive")
    config.validate()
    workers = resolve_workers(workers)
    out_path = Path(out_path)
    # An output directory that cannot be made fails before any seed is built.
    out_path.parent.mkdir(parents=True, exist_ok=True)

    records: list[dict] = []
    rejections: dict[str, int] = {}
    morphology: dict[str, int] = {}
    next_seed = seed
    cfg_dict = config.to_dict()

    # Sampling draws from numpy. The workers fork from this process, so one
    # import here spares each of them its own.
    import numpy  # noqa: F401

    # Results are consumed in seed order from a bounded window of futures:
    # while one slow audit holds up the consumer, the other workers keep
    # building the seeds after it.
    rejected_in_a_row = 0
    with _pool(workers) as pool:
        window: deque = deque()
        while len(records) < count and rejected_in_a_row < MAX_CONSECUTIVE_REJECTIONS:
            while len(window) < 4 * workers:
                window.append(pool.submit(_build_for_seed, (next_seed, cfg_dict)))
                next_seed += 1
            last_seed, kind, payload = window.popleft().result()
            if kind == "rej":
                rejections[payload] = rejections.get(payload, 0) + 1
                rejected_in_a_row += 1
            else:
                records.append(payload)
                label = payload["morphology"]["label"]
                morphology[label] = morphology.get(label, 0) + 1
                rejected_in_a_row = 0
        pool.shutdown(cancel_futures=True)
    if len(records) < count:
        tally = ", ".join(f"{r} {n}" for r, n in sorted(rejections.items()))
        raise InvalidParameterError(
            f"seeds {last_seed - rejected_in_a_row + 1}-{last_seed} were all rejected"
            f" (rejections so far: {tally}): the generation config admits too few"
            " instances"
        )

    payload_text = "".join(_dump_line(rec) + "\n" for rec in records)
    out_path.write_text(payload_text)
    digest = hashlib.sha256(payload_text.encode()).hexdigest()
    manifest = DatasetManifest(
        version=DATASET_SCHEMA,
        config=cfg_dict,
        seed_start=seed,
        count=count,
        seeds_scanned=count + sum(rejections.values()),
        rejections=dict(sorted(rejections.items())),
        morphology_counts=dict(sorted(morphology.items())),
        sha256=digest,
    )
    manifest_path = Path(str(out_path) + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Audit


def audit_dataset(path: str | Path) -> dict:
    """Re-run the exact oracle on every instance; report failures."""
    from hexcover.oracle import hamiltonian_audit

    instances = load_instances(path)
    infeasible = [inst.id for inst in instances if not hamiltonian_audit(inst.graph).feasible]
    return {
        "total": len(instances),
        "feasible": len(instances) - len(infeasible),
        "infeasible_ids": infeasible,
    }


# ---------------------------------------------------------------------------
# Batch evaluation


@dataclass(frozen=True)
class ResultRecord:
    instance_id: str
    method: str
    status: str
    walk: tuple[int, ...]
    revisits: int
    distance_norm: float
    turns_rad: float
    latency_ms: float

    def to_dict(self) -> dict:
        # vars(), not asdict(): asdict deep-copies every walk node, ~100x slower.
        return {"schema": RESULTS_SCHEMA, **vars(self)}

    @classmethod
    def from_dict(cls, r: dict) -> "ResultRecord":
        return cls(
            r["instance_id"], r["method"], r["status"], tuple(r["walk"]),
            int(r["revisits"]), float(r["distance_norm"]), float(r["turns_rad"]),
            float(r["latency_ms"]),
        )


def resolve_methods(methods: Sequence[str] | str) -> list[str]:
    if methods == "all" or methods == ["all"]:
        return list(METHOD_ORDER)
    out = [_spec(name).slug for name in methods]
    if not out:
        raise InvalidParameterError("no methods requested")
    if len(set(out)) != len(out):
        raise InvalidParameterError(f"a method is requested twice: {','.join(out)}")
    return out


def _evaluate_instance(args: tuple[dict, list[str]]) -> list[dict]:
    rec, methods = args
    inst = record_to_instance(rec)
    out = []
    for method in methods:
        try:
            result, ms = timed_plan(inst.graph, method)
            status, revisits, distance, turns = compute_path_metrics(inst.graph, result.walk)
        except Exception as exc:  # one line naming the cell, not a traceback
            raise EvaluationError(
                f"instance {inst.id}, method {method}: {type(exc).__name__}: {exc}"
            ) from exc
        record = ResultRecord(inst.id, method, status, result.walk, revisits, distance, turns, ms)
        out.append(record.to_dict())
    return out


def run_benchmark(
    dataset_path: str | Path,
    methods: Sequence[str] | str,
    out_path: str | Path | None = None,
    workers: int | None = None,
) -> list[ResultRecord]:
    """Evaluate every requested method on every instance.

    Output records are sorted by (instance_id, method); all fields except
    latency_ms are deterministic and independent of the worker count. With
    `out_path`, the records are written there and `<out_path>.manifest.json`
    names the results schema and the dataset's SHA-256.
    """
    method_list = resolve_methods(methods)
    raw_records, dataset_sha256 = _read_dataset(dataset_path, _audited)
    workers = resolve_workers(workers)
    if out_path is not None:
        # An output directory that cannot be made fails before any plan runs.
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
    tasks = [(rec, method_list) for rec in raw_records]
    results: list[dict] = []
    if workers == 1:
        for task in tasks:
            results.extend(_evaluate_instance(task))
    else:
        with _pool(workers) as pool:
            for chunk in pool.map(_evaluate_instance, tasks, chunksize=4):
                results.extend(chunk)

    results.sort(key=lambda r: (r["instance_id"], r["method"]))
    records = [ResultRecord.from_dict(r) for r in results]
    if out_path is not None:
        out_path.write_text("".join(_dump_line(r) + "\n" for r in results))
        manifest = {"version": RESULTS_SCHEMA, "dataset_sha256": dataset_sha256}
        Path(str(out_path) + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
    return records


def load_results(
    path: str | Path, instances: Sequence[LoadedInstance]
) -> list[ResultRecord]:
    """Parse a results file and re-grade every walk against `instances`.

    A record of an unknown method, a walk of no instance, not a walk at all
    (MalformedWalkError), or not grading to its stored status and revisits
    fails the load at its line; a file with no record for some instance
    raises IncompleteMatrixError.
    """
    graphs = {i.id: i.graph for i in instances}

    def convert(r: dict) -> ResultRecord:
        rec = ResultRecord.from_dict(r)
        _spec(rec.method)  # refuses a method that is no planner
        g = graphs.get(rec.instance_id)
        if g is None:
            raise ValueError(f"unknown instance {rec.instance_id}")
        if validate_path(g, rec.walk) != (rec.status, rec.revisits):
            raise ValueError(
                "stored status/revisits do not match the walk (tamper check failed)"
            )
        return rec

    records = _read_jsonl(path, RESULTS_SCHEMA, convert)
    missing = sorted(graphs.keys() - {r.instance_id for r in records})
    if missing:
        head = ", ".join(missing[:5])
        raise IncompleteMatrixError(f"{path}: no results for {len(missing)} instances ({head} ...)")
    return records


# ---------------------------------------------------------------------------
# Reporting

# Every number a report shows is a field of a SummaryRow from aggregate_summary
# over the dataset's instances. Each table shows the method's display name,
# then these fields; `family` is the planner's and `n` the row's instance count.
FEASIBILITY_COLUMNS = ("family", "hsr_pct", "ccr_pct", "n")
QUALITY_COLUMNS = (
    "revisits_mean", "revisits_sd", "distance_mean", "distance_sd",
    "turns_mean", "turns_sd", "latency_mean_ms", "n_covered",
)
WARNSDORFF_COLUMNS = (
    "hsr_pct", "distance_mean", "distance_sd", "turns_mean", "turns_sd",
    "latency_mean_ms",
)


def _table(rows: Iterable[SummaryRow], columns: Sequence[str]) -> list[dict]:
    out = []
    for row in rows:
        spec = PLANNERS[row.method]
        fields = {**vars(row), "family": spec.family, "n": row.n_instances}
        out.append({"method": spec.display, **{c: fields[c] for c in columns}})
    return out


def morphology_table(
    records: list[ResultRecord],
    instances: Sequence[LoadedInstance],
    rows: list[SummaryRow],
) -> list[dict]:
    """Warnsdorff HSR per morphology stratum, with per-stratum n: each stratum
    is aggregate_summary over its instances' Warnsdorff records, and the
    Overall row is `rows`, the summary over every instance."""
    warnsdorff = [row.method for row in rows if row.method in WARNSDORFF_SLUGS]
    strata = []
    for stratum in ("Compact", "Elongated", "Irregular"):
        ids = {i.id for i in instances if i.morphology_label == stratum}
        subset = [r for r in records if r.instance_id in ids and r.method in warnsdorff]
        summary = aggregate_summary(subset, warnsdorff) if subset else []
        strata.append((stratum, len(ids), summary))
    strata.append(("Overall", len(instances), rows))
    out = []
    for stratum, n, summary in strata:
        hsr = {row.method: row.hsr_pct for row in summary}
        columns = {PLANNERS[s].display: hsr.get(s) for s in WARNSDORFF_SLUGS}
        out.append({"morphology": stratum, "n": n, **columns})
    return out


def write_report(
    results_path: str | Path,
    dataset_path: str | Path,
    out_dir: str | Path,
    fmt: str = "markdown",
    strata: str | None = None,
    plots_dir: str | Path | None = None,
) -> list[Path]:
    """Emit feasibility, quality, and Warnsdorff tables (plus optional strata
    breakdown and SVG plots) from a results file."""
    if fmt not in ("markdown", "csv"):
        raise InvalidParameterError("format must be 'markdown' or 'csv'")
    if strata not in (None, "morphology"):
        raise InvalidParameterError("only morphology strata are supported")
    # Results whose manifest names another dataset are refused.
    sha256 = _read_manifest(results_path, RESULTS_SCHEMA, "dataset_sha256")
    instances = load_instances(dataset_path, sha256)
    records = load_results(results_path, instances)
    methods = sorted({r.method for r in records}, key=METHOD_ORDER.index)
    rows = aggregate_summary(records, method_order=methods)
    by_method = {row.method: row for row in rows}
    oracle = {"method": ORACLE_DISPLAY, "family": "Oracle", "hsr_pct": 100.0,
              "ccr_pct": 100.0, "n": len(instances)}
    tables = {
        "feasibility": [oracle, *_table(rows, FEASIBILITY_COLUMNS)],
        "quality": _table(rows, QUALITY_COLUMNS),
        "warnsdorff": _table(
            [by_method[s] for s in WARNSDORFF_SLUGS if s in by_method], WARNSDORFF_COLUMNS
        ),
    }
    if strata == "morphology":
        tables["morphology"] = morphology_table(records, instances, rows)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "md" if fmt == "markdown" else "csv"
    written = [
        _write_table(out_dir / f"{name}.{ext}", fmt, table)
        for name, table in tables.items()
        if table
    ]
    if plots_dir is not None:
        plots_dir = Path(plots_dir)
        plots_dir.mkdir(parents=True, exist_ok=True)
        written.append(_write_hsr_bar_svg(plots_dir / "hsr_bar.svg", rows))
        written.append(
            _write_revisits_scatter_svg(plots_dir / "revisits_vs_distance.svg", rows)
        )
    return written


def _write_table(path: Path, fmt: str, table: list[dict]) -> Path:
    cols = list(table[0])
    if fmt == "csv":
        import csv

        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in table:
                writer.writerow({k: ("" if v is None else repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    else:
        lines = ["| " + " | ".join(cols) + " |", "| " + " | ".join("---" for _ in cols) + " |"]
        for row in table:
            cells = [row[k] for k in cols]
            cells = ["-" if v is None else f"{v:.2f}" if isinstance(v, float) else str(v) for v in cells]
            lines.append("| " + " | ".join(cells) + " |")
        path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Minimal deterministic SVG plots


def _write_svg(path: Path, w: int, h: int, body: list[str], title: str) -> Path:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        *body,
        f'<text x="20" y="20" font-size="12">{title}</text>',
        "</svg>",
    ]
    path.write_text("\n".join(parts) + "\n")
    return path


def _write_hsr_bar_svg(path: Path, rows: list[SummaryRow]) -> Path:
    w, h = 900, 420
    margin, base_y = 60, 360
    parts = []
    bar_w = (w - 2 * margin) / len(rows) * 0.7
    step = (w - 2 * margin) / len(rows)
    for k, row in enumerate(rows):
        x = margin + k * step
        bar_h = (base_y - 40) * row.hsr_pct / 100.0
        parts.append(
            f'<rect x="{x:.1f}" y="{base_y - bar_h:.1f}" width="{bar_w:.1f}" '
            f'height="{bar_h:.1f}" fill="#33689e"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y + 12}" font-size="8" '
            f'text-anchor="end" transform="rotate(-45 {x + bar_w / 2:.1f} '
            f'{base_y + 12})">{PLANNERS[row.method].display}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y - bar_h - 4:.1f}" '
            f'font-size="9" text-anchor="middle">{row.hsr_pct:.1f}</text>'
        )
    return _write_svg(path, w, h, parts, "Hamiltonian success rate (%)")


def _write_revisits_scatter_svg(path: Path, rows: list[SummaryRow]) -> Path:
    w, h = 640, 480
    margin = 70
    pts = [
        (row.revisits_mean, row.distance_mean, PLANNERS[row.method].display)
        for row in rows
        if row.revisits_mean is not None and row.distance_mean is not None
    ]
    parts = []
    if pts:
        max_x = max(p[0] for p in pts) or 1.0
        min_y = min(p[1] for p in pts)
        max_y = max(p[1] for p in pts)
        span_y = (max_y - min_y) or 1.0
        for rx, dy, label in pts:
            px = margin + (w - 2 * margin) * rx / max_x
            py = h - margin - (h - 2 * margin) * (dy - min_y) / span_y
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="#b03a2e"/>')
            parts.append(
                f'<text x="{px + 6:.1f}" y="{py - 4:.1f}" font-size="8">{label}</text>'
            )
    title = "Mean revisits vs normalized distance (coverage-complete subset)"
    return _write_svg(path, w, h, parts, title)
