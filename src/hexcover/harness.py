"""Dataset generation, auditing, batch evaluation, and report emission.

Instances and results are append-only JSON-Lines files: every line parses on
its own, and identical inputs always produce identical bytes. A manifest JSON
sits next to each dataset with the generation config, rejection tallies, and
a payload checksum, so a dataset can be regenerated and verified bit for bit.

This module imports only the instance model (`hexcover.lattice`) when it
loads, and the model's walk grader checks each record's witness. What it
takes from the generation pipeline (for `generate`), the method table (for
`run` and `report`), the metrics (for `run` and `report`) and the planners
(for `run`) is bound on first use, so each command compiles only the
modules it runs: `audit` loads the model alone, and `report` the model, the
method table and `metrics`, without the planners.
"""

from __future__ import annotations

import errno
import hashlib
import importlib
import io
import itertools
import json
import os
import threading
from collections import Counter, deque
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from hexcover.lattice import (
    STATUS_HAMILTONIAN,
    IncompleteMatrixError,
    Instance,
    InvalidParameterError,
    LatticeFrame,
    MalformedWalkError,
    MorphologyClass,
    Point,
    _json_number,
    exterior_boundary,
    graph_from_coords,
    label_from,
    validate_path,
)

# The names this module takes from the modules not every command runs, by
# the module they come from. Each is bound into this module on first use:
# by `_bind`, which every function that reads them calls first, or by
# `__getattr__` (PEP 562) when it is looked up from outside.
_LAZY = {
    "graphbuild": ("BLOCK_SEEDS", "GenerationConfig", "Rejection", "build_block", "choose_family"),
    "methods": ("METHOD_ORDER", "METHODS", "WARNSDORFF_SLUGS", "method_row"),
    "metrics": ("SummaryRow", "aggregate_summary", "compute_path_metrics"),
    "planners": ("timed_plan",),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def _bind(*modules: str) -> None:
    """Bind the names each of `modules` lends this module. A name already
    bound is kept, so a wrapper or a test double set over it stays in use."""
    namespace = globals()
    for module in modules:
        unbound = [name for name in _LAZY[module] if name not in namespace]
        if unbound:
            source = importlib.import_module(f"hexcover.{module}")
            for name in unbound:
                namespace[name] = getattr(source, name)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


DATASET_SCHEMA = "hexcover-dataset/3"
RESULTS_SCHEMA = "hexcover-results/1"
# The keys of a results record, each written by `run` and read by `report`.
RESULT_FIELDS = frozenset((
    "schema", "instance_id", "method", "status", "walk", "revisits",
    "distance_norm", "turns_rad", "latency_ms",
))
ORACLE_DISPLAY = "Exact DFS (oracle)"

# `generate` gives up once this many seeds in a row are rejected, so that a
# config no seed can pass ends in seconds instead of never. The longest run
# of rejections under the default config in seeds 0-1151 is 3 (seeds
# 373-375), so no dataset of those seeds comes near the bound.
MAX_CONSECUTIVE_REJECTIONS = 200

# A pool keeps this many tasks per worker in flight (see _in_order).
TASKS_PER_WORKER = 4


class DatasetError(ValueError):
    """Unreadable, unparseable, or self-inconsistent dataset/results file."""


class EmptyDatasetError(DatasetError):
    pass


class EvaluationError(RuntimeError):
    """A planner or a metric raised while `run` evaluated an instance."""


def _output_file(path: str | Path) -> Path:
    """`path` as a Path whose directory exists. A path that names a
    directory, or whose directory cannot be made, fails here, before any
    seed is built or any plan runs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return path


def _output_dir(path: str | Path) -> Path:
    """`path` as a Path, checked but not made: one that is a file, or lies
    under one, raises NotADirectoryError, as `mkdir` could not make it."""
    path = Path(path)
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(found))
    return path


def _allowed_cpus() -> list[int]:
    """The ids of the CPUs this process may run on, ascending
    (`os.sched_getaffinity`; every CPU of `os.cpu_count` where that does not
    exist)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def resolve_workers(workers: int | None) -> int:
    """`workers` if given, else one per CPU this process may run on.

    A count below 1 is rejected.
    """
    if workers is None:
        return len(_allowed_cpus())
    if workers < 1:
        raise InvalidParameterError(f"worker count must be at least 1, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# Instance (de)serialization


def instance_to_record(inst: Instance) -> dict:
    g = inst.graph
    m = inst.morphology
    return {
        "schema": DATASET_SCHEMA,
        "id": inst.id,
        "seed": inst.seed,
        "family_hint": inst.family_hint,
        "morphology": {"label": m.label, "compactness": m.compactness, "aspect": m.aspect},
        "hex_radius": g.h,
        "frame": {"origin": [g.frame.origin.x, g.frame.origin.y], "angle": g.frame.angle},
        "cells": [[col, row, x, y] for (col, row), (x, y) in zip(g.coords, g.positions)],
        "edges": [[i, j] for i in range(g.n) for j in g.internal_adjacency[i] if i < j],
        "base": [*g.base_pos],
        "terminal": [*g.base_pos],
        "base_links": list(g.base_links),
        "terminal_links": list(g.terminal_links),
        "audited_feasible": True,
        "witness": list(inst.witness),
    }


def record_to_instance(rec: dict) -> Instance:
    """The instance a dataset record describes.

    The instance is built from the record's seed, family, compactness,
    aspect, hex_radius, frame, base, cell coordinates, base_links (for both
    link sets) and witness. Every other field, the id and the morphology
    label among them, is derived from those, so the record is refused unless
    `instance_to_record` writes it back unchanged. Before that, it is refused
    unless its `audited_feasible` is JSON true: the round trip compares with
    ==, and 1 == True. For the same reason the seed and each witness entry
    must be JSON integers, and each float it is built from a finite JSON
    float. Then the witness must grade as a Hamiltonian path of the graph,
    which certifies the instance feasible in one pass over the walk. Last, a
    link to a cell off the exterior boundary is refused: `attach_base` links
    only those cells. That check floods the cells' bounding box, so it runs
    only once the witness has shown the cells face-connected, which bounds
    the box by the cell count; a record with one far-off cell is refused by
    its witness in time linear in its size. Each refusal raises DatasetError
    naming the instance and the first field at fault.
    """
    name = f"instance {rec.get('id')}"
    if rec.get("audited_feasible") is not True:
        raise DatasetError(f"{name} is not audited feasible")
    try:
        m, frame, seed = rec["morphology"], rec["frame"], rec["seed"]
        if type(seed) is not int:
            raise TypeError(f"'seed' is {seed!r}, not an integer")
        witness = tuple(rec["witness"])
        for v in witness:
            if type(v) is not int:
                raise TypeError(f"'witness' holds {v!r}, not an integer")
        graph = graph_from_coords(
            [(int(c[0]), int(c[1])) for c in rec["cells"]],
            _json_number(rec["hex_radius"], "hex_radius", float),
            rec["base_links"],
            rec["base_links"],
            Point(*(_json_number(v, "base", float) for v in rec["base"])),
            LatticeFrame(
                Point(*(_json_number(v, "frame.origin", float) for v in frame["origin"])),
                _json_number(frame["angle"], "frame.angle", float),
            ),
        )
        compactness = _json_number(m["compactness"], "morphology.compactness", float)
        aspect = _json_number(m["aspect"], "morphology.aspect", float)
        inst = Instance(
            seed,
            str(rec["family_hint"]),
            MorphologyClass(label_from(compactness, aspect), compactness, aspect),
            graph,
            witness,
        )
    except KeyError as exc:
        raise DatasetError(f"{name}: missing field {exc}") from exc
    except InvalidParameterError as exc:
        raise DatasetError(f"{name}: {exc}") from exc
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DatasetError(f"{name}: ill-typed field: {exc}") from exc
    written = instance_to_record(inst)
    if written != rec:
        missing = [k for k in written if k not in rec]
        if missing:
            raise DatasetError(f"{name}: missing field {missing[0]!r}")
        key = next(k for k in rec if k not in written or written[k] != rec[k])
        problem = "does not round-trip" if key in written else "is not a dataset field"
        raise DatasetError(f"{name}: field {key!r} {problem}")
    try:
        status, _ = validate_path(graph, witness)
    except MalformedWalkError as exc:
        raise DatasetError(f"{name}: witness is not a walk of the graph: {exc}") from exc
    if status != STATUS_HAMILTONIAN:
        raise DatasetError(f"{name}: witness grades {status}, not {STATUS_HAMILTONIAN}")
    boundary = exterior_boundary(graph.coords)
    for i in graph.base_links:
        if graph.coords[i] not in boundary:
            raise DatasetError(f"{name}: link {i} is not an exterior-boundary cell")
    return inst


# json.dumps with these options builds a new encoder on every call.
# No NaN or Infinity: neither is JSON, and the loaders refuse both.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _dump_line(obj: dict) -> str:
    return _LINE_ENCODER.encode(obj)


def _parse_json(text: str):
    """json.loads, where a document nested too deep for the parser raises
    ValueError, as any other malformed JSON does."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _read_jsonl(path: str | Path, schema: str, convert, check=None) -> tuple[list, str]:
    """Every record of a JSON-Lines file of `schema`, passed with its line
    number through `convert`, and the SHA-256 of the file's bytes.

    The file is read once, and `check(sha256)` runs before any record is
    parsed. Bytes that are not UTF-8, a record of another schema, or a parse
    or `convert` failure raise DatasetError naming `<path>:<line>:`; a file
    without records raises EmptyDatasetError.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise DatasetError(f"file not found: {path}") from None
    digest = hashlib.sha256(data).hexdigest()
    if check is not None:
        check(digest)
    # The whole file is checked first, so that a bad byte is named by its
    # line as text mode counts lines: "\r\n", "\n" and "\r" each end one.
    # The decoded copy is dropped: text mode then decodes a chunk at a time.
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n")
        lineno = before.count(b"\n") + before.count(b"\r") + 1
        raise DatasetError(
            f"{path}:{lineno}: not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    out = []
    # Split into lines as a file opened in text mode would be.
    for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), start=1):
        if not line.strip():
            continue
        try:
            rec = _parse_json(line)
            found = rec.get("schema") if isinstance(rec, dict) else None
            if found != schema:
                raise ValueError(f"schema {found!r} is not {schema!r}")
            out.append(convert(rec, lineno))
        except (KeyError, ValueError, TypeError) as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise EmptyDatasetError(f"{path}: file contains no records")
    return out, digest


def _read_manifest(path: str | Path, schema: str, key: str):
    """Field `key` of the manifest `<path>.manifest.json`, or None when there
    is no manifest; an unreadable manifest or one of another schema raises
    DatasetError."""
    manifest_path = Path(str(path) + ".manifest.json")
    if not manifest_path.exists():
        return None
    try:
        manifest = _parse_json(manifest_path.read_text(encoding="utf-8"))
        version, value = manifest["version"], manifest[key]
    except (ValueError, TypeError, KeyError) as exc:
        raise DatasetError(f"{manifest_path}: unreadable manifest: {exc!r}") from exc
    if version != schema:
        raise DatasetError(f"{manifest_path}: schema {version!r} is not {schema!r}")
    return value


def _read_dataset(path: str | Path, convert, sha256: str | None = None) -> tuple[list, str]:
    """_read_jsonl of a dataset file. A manifest of another schema, a SHA-256
    other than that in `<path>.manifest.json` or `sha256`, or a record whose
    id an earlier record already has raises DatasetError.
    """

    def check(digest: str) -> None:
        if _read_manifest(path, DATASET_SCHEMA, "sha256") not in (None, digest):
            raise DatasetError(f"{path}: SHA-256 does not match {path}.manifest.json")
        if sha256 not in (None, digest):
            raise DatasetError(
                f"{path}: SHA-256 {digest[:12]}... is not {sha256[:12]}..., the dataset"
                " the results were run on"
            )

    seen: set[str] = set()

    def once(rec: dict, lineno: int):
        if "id" not in rec:
            raise DatasetError("missing field 'id'")
        if rec["id"] in seen:
            raise DatasetError(f"instance {rec['id']}: id already used by an earlier record")
        seen.add(rec["id"])
        return convert(rec, lineno)

    return _read_jsonl(path, DATASET_SCHEMA, once, check)


def load_instances(path: str | Path, sha256: str | None = None) -> list[Instance]:
    """The instances of a dataset file; with `sha256`, only if the file's
    bytes have that SHA-256."""
    return _read_dataset(path, lambda rec, _: record_to_instance(rec), sha256)[0]


# ---------------------------------------------------------------------------
# Generation


class DatasetManifest(NamedTuple):
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
        return self._asdict()


def _start_worker(cpus: list[int], ticket) -> None:
    """Pool initializer: end this worker as soon as the command that started
    it is gone, then move it onto a CPU of its own.

    A worker waits on its task queue, whose write end it also holds, so the
    death of the command, by SIGKILL say, never wakes it. A daemon thread
    waits on the worker's parent sentinel instead, a pipe end that
    multiprocessing gives every worker under fork, forkserver and spawn
    alike and that turns ready when the command's end closes. (Under fork a
    worker forked later holds a copy of that end too, and ends first.) The
    parent process id is no such sign: a forkserver worker's parent is the
    fork server, not the command. The thread starts first, so a worker held
    up below still ends with the command.

    A kernel that does not balance load between CPUs (a cpuset whose
    `sched_load_balance` is 0) leaves every worker on the CPU it started on,
    the command's. So the worker that draws number k from `ticket` is moved
    onto `cpus[k % len(cpus)]`, then given back the mask it started with,
    which leaves a kernel that does balance free to move it later. A worker
    that cannot be moved (no `os.sched_setaffinity`, or a failing call, as
    after a cpuset change) runs where it is.
    """
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    sentinel = parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()

    k = ticket.get()
    ticket.put(k + 1)
    place = getattr(os, "sched_setaffinity", None)
    if place is not None:
        allowed = os.sched_getaffinity(0)
        try:
            place(0, {cpus[k % len(cpus)]})
            place(0, allowed)
        except OSError:
            pass


def _in_order(fn, tasks: Iterable, workers: int) -> Iterator:
    """`fn(task)` for each of `tasks`, in task order.

    At 1 worker this is `map(fn, tasks)` in this process, which takes the
    next task only once the consumer has taken the last result. Otherwise a
    pool of `workers` processes keeps TASKS_PER_WORKER x `workers` tasks ahead
    of the consumer, taking each next task from `tasks` when the consumer
    has taken a result, so while one slow task holds the consumer up the
    others go on with the tasks after it. A consumer that stops early, and so
    drops the generator, cancels the tasks not begun. The workers are spread
    round robin over the CPUs this process may run on (see `_start_worker`).
    """
    if workers == 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import SimpleQueue

    # The queue holds one number at a time, the next worker's. One id per
    # worker put up front would fill its 64-KiB pipe, which no worker reads
    # before the pool starts, at about 7,000 workers and block this process.
    ticket = SimpleQueue()
    ticket.put(0)
    pool = ProcessPoolExecutor(workers, initializer=_start_worker,
                               initargs=(_allowed_cpus(), ticket))
    window: deque = deque()
    try:
        for task in tasks:
            window.append(pool.submit(fn, task))
            if len(window) == TASKS_PER_WORKER * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the tasks already begun
        ticket.close()


def _build_block(task: tuple[range, GenerationConfig]) -> list[tuple[str, str | None]]:
    """For each seed of the block, in order: (morphology label, dataset line)
    if it is admitted, (rejection reason, None) if it is not."""
    _bind("graphbuild")
    seeds, config = task
    outs = build_block([(choose_family(s, config), s) for s in seeds], config)
    return [
        (out.reason, None) if isinstance(out, Rejection)
        else (out.morphology.label, _dump_line(instance_to_record(out)) + "\n")
        for out in outs
    ]


def generate_dataset(
    count: int,
    seed: int,
    config: GenerationConfig,
    out_path: str | Path,
    workers: int | None = None,
) -> DatasetManifest:
    """Write `count` audited instances scanning seeds upward from `seed`.

    The admitted set is the first `count` audit-passing seeds in ascending
    order, so the output is identical for any worker count. Seeds are built
    in blocks of consecutive seeds, inline at 1 worker and as pool tasks at
    2 or more. A block is sized from the instances still missing beyond the
    seeds already sent out, so that every seed of a block of more than one
    is one the scan reaches: at 1 worker no seed past the last admitted one
    is built. After MAX_CONSECUTIVE_REJECTIONS rejected seeds in a row it
    raises InvalidParameterError and writes nothing.

    It sets OPENBLAS_NUM_THREADS to 1 in this process's environment if that
    variable is unset; it acts only if numpy is not yet imported.
    """
    if count <= 0:
        raise InvalidParameterError("count must be positive")
    _bind("graphbuild")
    cfg_dict = config.to_dict()
    config = GenerationConfig.from_dict(cfg_dict)  # validated, typed as the manifest reads back
    workers = resolve_workers(workers)
    out_path = _output_file(out_path)

    lines: list[str] = []
    rejections: Counter = Counter()
    morphology: Counter = Counter()
    rejected_in_a_row = 0
    scanned = 0

    # Sampling draws from numpy and admission runs the oracle. A pool worker
    # forked from this process inherits both, so one import here spares each
    # of them its own; a worker started by forkserver or spawn imports them.
    # No hexcover code calls a BLAS routine, so the OpenBLAS bundled with
    # numpy is told to start no thread of its own, here and in every worker,
    # which inherits the environment; a value the user set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy  # noqa: F401

    import hexcover.oracle  # noqa: F401

    in_flight = 1 if workers == 1 else TASKS_PER_WORKER * workers

    def blocks() -> Iterator[tuple[range, GenerationConfig]]:
        # Each seed sent out and not yet taken back may admit an instance.
        start = seed
        while True:
            missing = count - len(lines) - (start - seed - scanned)
            size = max(1, min(BLOCK_SEEDS, missing // in_flight))
            yield range(start, start + size), config
            start += size

    # The loop holds the only reference to the pool's generator, so a break
    # drops it and cancels the blocks not begun.
    for outcome, line in itertools.chain.from_iterable(_in_order(_build_block, blocks(), workers)):
        scanned += 1
        if line is None:
            rejections[outcome] += 1
            rejected_in_a_row += 1
            if rejected_in_a_row == MAX_CONSECUTIVE_REJECTIONS:
                break
        else:
            lines.append(line)
            morphology[outcome] += 1
            rejected_in_a_row = 0
            if len(lines) == count:
                break
    if len(lines) < count:
        last_seed = seed + scanned - 1
        tally = ", ".join(f"{r} {n}" for r, n in sorted(rejections.items()))
        raise InvalidParameterError(
            f"seeds {last_seed - rejected_in_a_row + 1}-{last_seed} were all rejected"
            f" (rejections so far: {tally}): the generation config admits too few"
            " instances"
        )

    payload_text = "".join(lines)
    out_path.write_text(payload_text)
    digest = hashlib.sha256(payload_text.encode()).hexdigest()
    manifest = DatasetManifest(
        version=DATASET_SCHEMA,
        config=cfg_dict,
        seed_start=seed,
        count=count,
        seeds_scanned=scanned,
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
    """Load every instance, which checks each record's witness, and count
    them. A record whose witness is not a Hamiltonian path of its graph
    fails the load, so every instance counted is feasible."""
    instances = load_instances(path)
    return {"total": len(instances), "feasible": len(instances)}


# ---------------------------------------------------------------------------
# Batch evaluation


def resolve_methods(methods: Sequence[str] | str) -> list[str]:
    _bind("methods")
    if methods == "all" or methods == ["all"]:
        return list(METHOD_ORDER)
    out = [method_row(name).slug for name in methods]
    if not out:
        raise InvalidParameterError("no methods requested")
    if len(set(out)) != len(out):
        raise InvalidParameterError(f"a method is requested twice: {','.join(out)}")
    return out


def _evaluate_instances(task: tuple[str, list[tuple[int, dict]], list[str]]) -> str:
    """The results lines of `task`'s dataset records, each instance's in
    method-name order; the methods are planned, and timed, in the order given.

    A record that does not load raises DatasetError naming `<path>:<line>:`,
    as the dataset reader does.
    """
    _bind("planners", "metrics")
    path, numbered, methods = task
    lines = []
    for lineno, rec in numbered:
        try:
            inst = record_to_instance(rec)
        except DatasetError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
        by_method = {}
        for method in methods:
            try:
                result, ms = timed_plan(inst.graph, method)
                status, revisits, distance, turns = compute_path_metrics(inst.graph, result.walk)
            except Exception as exc:  # one line naming the cell, not a traceback
                raise EvaluationError(
                    f"instance {inst.id}, method {method}: {type(exc).__name__}: {exc}"
                ) from exc
            by_method[method] = _dump_line({
                "schema": RESULTS_SCHEMA, "instance_id": inst.id, "method": method,
                "status": status, "walk": result.walk, "revisits": revisits,
                "distance_norm": distance, "turns_rad": turns, "latency_ms": ms,
            }) + "\n"
        lines.extend(by_method[m] for m in sorted(by_method))
    return "".join(lines)


def run_benchmark(
    dataset_path: str | Path,
    methods: Sequence[str] | str,
    out_path: str | Path,
    workers: int | None = None,
) -> int:
    """Evaluate every requested method on every instance, write the records
    to `out_path` and return their count.

    Records are sorted by (instance_id, method), whatever the order of the
    dataset's lines or of `methods`; all fields except latency_ms are
    deterministic and independent of the worker count.
    `<out_path>.manifest.json` names the results schema and the dataset's
    SHA-256. An `out_path` that is the dataset or its manifest is refused
    before any plan runs.
    """
    method_list = resolve_methods(methods)
    numbered, dataset_sha256 = _read_dataset(dataset_path, lambda rec, n: (n, rec))
    workers = resolve_workers(workers)
    out_path = _output_file(out_path)
    for kept in (Path(dataset_path), Path(str(dataset_path) + ".manifest.json")):
        if kept.exists() and out_path.exists() and out_path.samefile(kept):
            raise DatasetError(f"{out_path}: the results would overwrite {kept}")
    # `str` leaves an ill-typed id for record_to_instance to refuse.
    numbered.sort(key=lambda pair: str(pair[1]["id"]))
    # Four instances a task: at one a task, pool round trips made `run` of
    # 1000 instances at 2 workers, each on its own CPU, about 4 % slower.
    path = str(dataset_path)
    tasks = [(path, numbered[i : i + 4], method_list) for i in range(0, len(numbered), 4)]
    out_path.write_text("".join(_in_order(_evaluate_instances, tasks, workers)))
    manifest = {"version": RESULTS_SCHEMA, "dataset_sha256": dataset_sha256}
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return len(numbered) * len(method_list)


def load_results(path: str | Path, instances: Sequence[Instance]) -> list[dict]:
    """Parse a results file and re-grade every walk against `instances`.

    A record of an unknown method, a walk of no instance, not a walk at all
    (MalformedWalkError), or not grading to its stored status and revisits
    fails the load at its line, and so does a missing field, a key no
    results record has, a `revisits` that is not a JSON integer or a
    `distance_norm`, `turns_rad` or `latency_ms` that is not a finite JSON
    number; a file with no record for some instance raises
    IncompleteMatrixError. The records are returned as dicts, those three
    numbers as floats.
    """
    _bind("methods")
    graphs = {i.id: i.graph for i in instances}

    def convert(rec: dict, _lineno: int) -> dict:
        if rec.keys() != RESULT_FIELDS:
            key = next((k for k in rec if k not in RESULT_FIELDS), None)
            if key is not None:
                raise ValueError(f"field {key!r} is not a results field")
            raise ValueError(f"missing field {min(RESULT_FIELDS - rec.keys())!r}")
        method_row(rec["method"])  # refuses a method that is no planner
        g = graphs.get(rec["instance_id"])
        if g is None:
            raise ValueError(f"unknown instance {rec['instance_id']}")
        for key in ("distance_norm", "turns_rad", "latency_ms"):
            rec[key] = _json_number(rec[key], key)
        revisits = _json_number(rec["revisits"], "revisits", int)
        if validate_path(g, rec["walk"]) != (rec["status"], revisits):
            raise ValueError(
                "stored status/revisits do not match the walk (tamper check failed)"
            )
        return rec

    records, _ = _read_jsonl(path, RESULTS_SCHEMA, convert)
    missing = sorted(graphs.keys() - {r["instance_id"] for r in records})
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
        entry = METHODS[row.method]
        fields = {**row._asdict(), "family": entry.family, "n": row.n_instances}
        out.append({"method": entry.display, **{c: fields[c] for c in columns}})
    return out


def morphology_table(
    records: list[dict], instances: Sequence[Instance], rows: list[SummaryRow]
) -> list[dict]:
    """Warnsdorff HSR per morphology stratum, with per-stratum n: each stratum
    is aggregate_summary over its instances' Warnsdorff records, and the
    Overall row is `rows`, the summary over every instance."""
    warnsdorff = [row.method for row in rows if row.method in WARNSDORFF_SLUGS]
    strata = []
    for stratum in ("Compact", "Elongated", "Irregular"):
        ids = {i.id for i in instances if i.morphology.label == stratum}
        subset = [r for r in records if r["instance_id"] in ids and r["method"] in warnsdorff]
        summary = aggregate_summary(subset, warnsdorff) if subset else []
        strata.append((stratum, len(ids), summary))
    strata.append(("Overall", len(instances), rows))
    out = []
    for stratum, n, summary in strata:
        hsr = {row.method: row.hsr_pct for row in summary}
        columns = {METHODS[s].display: hsr.get(s) for s in WARNSDORFF_SLUGS}
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
    breakdown and SVG plots) from a results file.

    `out_dir` and `plots_dir` are checked before any file is read, so a
    path that cannot be a directory fails before any work."""
    if fmt not in ("markdown", "csv"):
        raise InvalidParameterError("format must be 'markdown' or 'csv'")
    if strata not in (None, "morphology"):
        raise InvalidParameterError("only morphology strata are supported")
    _bind("methods", "metrics")
    out_dir = _output_dir(out_dir)
    if plots_dir is not None:
        plots_dir = _output_dir(plots_dir)
    # Results whose manifest names another dataset are refused.
    sha256 = _read_manifest(results_path, RESULTS_SCHEMA, "dataset_sha256")
    instances = load_instances(dataset_path, sha256)
    records = load_results(results_path, instances)
    methods = sorted({r["method"] for r in records}, key=METHOD_ORDER.index)
    rows = aggregate_summary(records, methods)
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

    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "md" if fmt == "markdown" else "csv"
    written = [
        _write_table(out_dir / f"{name}.{ext}", fmt, table)
        for name, table in tables.items()
        if table
    ]
    if plots_dir is not None:
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
            f'{base_y + 12})">{METHODS[row.method].display}</text>'
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
        (row.revisits_mean, row.distance_mean, METHODS[row.method].display)
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
