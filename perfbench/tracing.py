"""Traced, serial, in-process pass over one workload and its per-module metrics.

Span-recording wrappers are patched over public names of the program for the
length of the pass and restored afterwards; nothing inside the program
changes. `generate_dataset` always forks a pool, where wrappers cannot see,
so the pass calls `build_instance(choose_family(s, cfg), s, cfg)` itself over
the seed range the untraced `generate` scanned, and must reproduce that
command's dataset SHA-256. The traced `run_benchmark` runs at 1 worker and
must reproduce the untraced run's non-latency result digest. Either mismatch
is a failed operation.

A span records its name, start, end, parent and a trace id shared by the
spans of one seed (`seed:<n>`) or one instance (its id). Spans stay in
memory and are written out with the seed-cost ledger when the pass ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

import checks

STAGES = ("aoi.sample_aoi", "aoi.insert_obstacles", "graphbuild.tessellate",
          "graphbuild.postprocess_mask", "graphbuild.attach_base")
REASONS = ("degenerate", "size-band", "base-attachment", "infeasible", "audit-inconclusive")

# (name, unit) of every per-module metric, in the order they are printed.
METRICS = [
    *((f"{stage}.busy_s", "s") for stage in STAGES),
    ("graphbuild.graph_from_coords.busy_s", "s"),
    ("graphbuild.build_instance.self_s", "s"),
    *((f"graphbuild.rejected.{r}", "count") for r in REASONS),
    ("oracle.admit.busy_s", "s"), ("oracle.admit.p50_ms", "ms"), ("oracle.admit.max_ms", "ms"),
    ("oracle.admit.nodes_sum", "count"), ("oracle.admit.nodes_p50", "count"),
    ("oracle.admit.nodes_max", "count"), ("oracle.admit.decided_ratio", "share"),
    ("oracle.reaudit.busy_s", "s"), ("oracle.reaudit.p50_ms", "ms"),
    ("oracle.reaudit.nodes_sum", "count"),
    *((f"planners.{m}.busy_s", "s") for m in checks.METHODS),
    *((f"planners.{m}.fail", "count") for m in checks.METHODS),
    ("planners.plan_p50_ms", "ms"), ("planners.plan_p99_ms", "ms"),
    ("metrics.run.busy_s", "s"), ("metrics.report.busy_s", "s"),
    ("metrics.aggregate_summary.busy_s", "s"),
    ("harness.record_to_instance.busy_s", "s"),
    *((f"harness.{f}.self_s", "s")
      for f in ("generate_dataset", "run_benchmark", "load_results", "write_report")),
    ("harness.generate.pool_idle_share", "share"), ("harness.run.pool_idle_share", "share"),
    ("cli.import_s", "s"),
    ("trace.overhead_share", "share"),
]


class Span:
    __slots__ = ("name", "trace", "parent", "start", "end", "attrs")

    def __init__(self, name, trace, parent):
        self.name, self.trace, self.parent = name, trace, parent
        self.attrs = None


class Tracer:
    """Spans kept in memory, plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.graph_trace: dict[int, str] = {}

    def open(self, name: str, trace=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        # Inside a seed's or an instance's span, children share its id.
        if parent is not None and self.spans[parent].trace is not None:
            trace = self.spans[parent].trace
        span = Span(name, trace, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def phase(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def wrap(self, module, attr: str, name: str, trace_of=None, record=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.open(name, trace_of(args) if trace_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record:
                record(span, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def _install(tracer: Tracer, gb, oracle, harness) -> None:
    def graph_trace(args):
        return tracer.graph_trace.get(id(args[0]))

    def remember_graph(span, args, inst):
        tracer.graph_trace[id(inst.graph)] = span.trace

    def audit_attrs(span, args, res):
        span.attrs = (res.nodes_expanded, res.feasible is not None)

    def plan_attrs(span, args, result):
        span.attrs = args[1]

    for attr in ("sample_aoi", "insert_obstacles"):
        tracer.wrap(gb, attr, f"aoi.{attr}")
    for attr in ("tessellate", "postprocess_mask", "attach_base", "graph_from_coords"):
        tracer.wrap(gb, attr, f"graphbuild.{attr}")
    tracer.wrap(gb, "build_instance", "graphbuild.build_instance",
                trace_of=lambda a: f"seed:{a[1]}")
    tracer.wrap(oracle, "hamiltonian_audit", "oracle.hamiltonian_audit",
                trace_of=graph_trace, record=audit_attrs)
    tracer.wrap(harness, "record_to_instance", "harness.record_to_instance",
                trace_of=lambda a: a[0].get("id"), record=remember_graph)
    tracer.wrap(harness, "timed_plan", "planners.timed_plan",
                trace_of=graph_trace, record=plan_attrs)
    tracer.wrap(harness, "compute_path_metrics", "metrics.compute_path_metrics",
                trace_of=graph_trace)
    tracer.wrap(harness, "aggregate_summary", "metrics.aggregate_summary")
    for attr in ("load_instances", "load_results", "run_benchmark", "write_report"):
        tracer.wrap(harness, attr, f"harness.{attr}")


def _generate(gb, harness, manifest: dict, out: Path) -> tuple[str, list[dict]]:
    """Serial twin of generate_dataset over the scanned seeds; (SHA-256, ledger rows)."""
    cfg = gb.GenerationConfig.from_dict(manifest["config"])
    start, scanned, count = manifest["seed_start"], manifest["seeds_scanned"], manifest["count"]
    records, ledger = [], []
    for s in range(start, start + scanned):
        family = gb.choose_family(s, cfg)
        inst = gb.build_instance(family, s, cfg)
        admitted = not isinstance(inst, gb.Rejection)
        if admitted and len(records) < count:
            records.append(harness.instance_to_record(inst))
        ledger.append({"seed": s, "family": family,
                       "outcome": "admitted" if admitted else inst.reason})
    # Serialised, hashed and written as generate_dataset does it, with the
    # program's own encoder, so this part of its self time is the program's.
    payload = "".join(harness._dump_line(r) + "\n" for r in records)
    out.write_text(payload)
    return hashlib.sha256(payload.encode()).hexdigest(), ledger


def _span_cost_s() -> float:
    """Tracer cost per span, from a wrapped no-op against the bare one."""
    ns = types.SimpleNamespace(f=lambda x: x)
    n = 20000
    t0 = time.perf_counter()
    for i in range(n):
        ns.f(i)
    bare = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(ns, "f", "calibrate")
    t0 = time.perf_counter()
    for i in range(n):
        ns.f(i)
    traced = time.perf_counter() - t0
    tracer.restore()
    return max(traced - bare, 0.0) / n


def _p(values, q: float) -> float:
    """Percentile `q` (0-100) by the inclusive method; 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def _summarize(tracer: Tracer, pipe, ledger, fails: Counter, import_s: float) -> tuple[dict, dict]:
    spans = tracer.spans
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    phase = [""] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is None:
            phase[i] = s.name
        else:
            phase[i] = phase[s.parent]
            child[s.parent] += dur[i]

    def picks(name, step=None):
        return [i for i, s in enumerate(spans)
                if s.name == name and (step is None or phase[i] == step)]

    def busy(name, step=None):
        return sum(dur[i] for i in picks(name, step))

    def self_s(name):
        return sum(dur[i] - child[i] for i in picks(name))

    wl = pipe.wl
    v: dict[str, float] = {f"{s}.busy_s": busy(s) for s in STAGES}
    v["graphbuild.graph_from_coords.busy_s"] = busy("graphbuild.graph_from_coords")
    v["graphbuild.build_instance.self_s"] = self_s("graphbuild.build_instance")
    tally = Counter(row["outcome"] for row in ledger)
    v.update({f"graphbuild.rejected.{r}": tally[r] for r in REASONS})

    for step, key in (("generate", "admit"), ("audit", "reaudit")):
        ids = picks("oracle.hamiltonian_audit", step)
        ms = [dur[i] * 1e3 for i in ids]
        nodes = [spans[i].attrs[0] for i in ids]
        v[f"oracle.{key}.busy_s"] = sum(ms) / 1e3
        v[f"oracle.{key}.p50_ms"] = _p(ms, 50)
        v[f"oracle.{key}.nodes_sum"] = sum(nodes)
        if key == "admit":
            v["oracle.admit.max_ms"] = max(ms, default=0.0)
            v["oracle.admit.nodes_p50"] = _p(nodes, 50)
            v["oracle.admit.nodes_max"] = max(nodes, default=0)
            decided = sum(spans[i].attrs[1] for i in ids)
            v["oracle.admit.decided_ratio"] = decided / len(ids) if ids else 0.0

    plans = picks("planners.timed_plan")
    for m in checks.METHODS:
        v[f"planners.{m}.busy_s"] = sum(dur[i] for i in plans if spans[i].attrs == m)
        v[f"planners.{m}.fail"] = fails[m]
    plan_ms = [dur[i] * 1e3 for i in plans]
    v["planners.plan_p50_ms"] = _p(plan_ms, 50)
    v["planners.plan_p99_ms"] = _p(plan_ms, 99)

    v["metrics.run.busy_s"] = busy("metrics.compute_path_metrics", "run")
    v["metrics.report.busy_s"] = busy("metrics.compute_path_metrics", "report")
    v["metrics.aggregate_summary.busy_s"] = busy("metrics.aggregate_summary")
    v["harness.record_to_instance.busy_s"] = busy("harness.record_to_instance")
    v["harness.generate_dataset.self_s"] = self_s("generate")
    for f in ("run_benchmark", "load_results", "write_report"):
        v[f"harness.{f}.self_s"] = self_s(f"harness.{f}")

    gen_busy = busy("graphbuild.build_instance")
    run_busy = busy("harness.run_benchmark")
    v["harness.generate.pool_idle_share"] = 1.0 - gen_busy / (wl.workers * pipe.walls["generate"][-1])
    v["harness.run.pool_idle_share"] = 1.0 - run_busy / (wl.run_workers * pipe.walls["run"][-1])
    v["cli.import_s"] = import_s
    traced_s = sum(dur[i] for i, s in enumerate(spans) if s.parent is None)
    v["trace.overhead_share"] = _span_cost_s() * len(spans) / traced_s

    geometry = sum(v[f"{s}.busy_s"] for s in STAGES)
    plan_busy = sum(v[f"planners.{m}.busy_s"] for m in checks.METHODS)
    shares = {
        "audit_share_of_generation": v["oracle.admit.busy_s"] / gen_busy,
        "geometry_share_of_generation": geometry / gen_busy,
        "planner_plus_metrics_share_of_run": (plan_busy + v["metrics.run.busy_s"]) / run_busy,
        "generation_busy_s": gen_busy,
        "run_busy_s": run_busy,
        "spans": len(spans),
    }

    by_seed: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if phase[i] == "generate" and s.trace is not None:
            row = by_seed.setdefault(s.trace, {"stage_ms": {}})
            if s.name == "oracle.hamiltonian_audit":
                row["nodes_expanded"] = s.attrs[0]
                row["audit_ms"] = dur[i] * 1e3
            elif s.name == "graphbuild.build_instance":
                row["total_ms"] = dur[i] * 1e3
            else:
                row["stage_ms"][s.name] = row["stage_ms"].get(s.name, 0.0) + dur[i] * 1e3
    for row in ledger:
        row.update({"nodes_expanded": None, "audit_ms": None}, **by_seed.get(f"seed:{row['seed']}", {}))
    return v, shares


def _ledger_summary(ledger: list[dict]) -> dict:
    hist = Counter(
        f"2^{int(math.log2(row['nodes_expanded']))}" if row["nodes_expanded"] else "0"
        for row in ledger if row["nodes_expanded"] is not None
    )
    slowest = sorted(ledger, key=lambda r: -r.get("total_ms", 0.0))[:5]
    return {
        "nodes_expanded_log2_histogram": dict(
            sorted(hist.items(), key=lambda kv: -1 if kv[0] == "0" else int(kv[0][2:]))
        ),
        "slowest_seeds": [{k: r.get(k) for k in ("seed", "family", "outcome", "total_ms",
                                                  "audit_ms", "nodes_expanded")}
                          for r in slowest],
    }


def per_module(pipe, untraced_ok: bool, out_dir: Path) -> dict:
    """Run the traced pass after the untraced one; return the per-module metrics."""
    metrics = {name: {"value": 0.0, "unit": unit} for name, unit in METRICS}
    if not untraced_ok:
        return metrics
    # The traced pass cannot be killed like a command: only start it when
    # 1.5 times the untraced pass still fits before the deadline.
    untraced_s = sum(w[-1] for w in pipe.walls.values())
    if pipe.deadline - time.perf_counter() < 1.5 * untraced_s:
        pipe.op("trace", 0, 0.0, ["too little time left for the traced pass"])
        return metrics
    helps = [pipe.cli("--help") for _ in range(3)]
    for rc, wall in helps:
        pipe.op("help", rc, wall, [])
    import_s = statistics.median(wall for _, wall in helps)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import hexcover.graphbuild as gb
    import hexcover.harness as harness
    import hexcover.oracle as oracle

    work = pipe.work / "traced"
    work.mkdir(parents=True, exist_ok=True)
    dataset, results = work / "instances.jsonl", work / "results.jsonl"
    tracer = Tracer()
    _install(tracer, gb, oracle, harness)
    try:
        sha, ledger = tracer.phase("generate", _generate, gb, harness, pipe.manifest, dataset)
        audit = tracer.phase("audit", harness.audit_dataset, dataset)
        tracer.phase("run", harness.run_benchmark, dataset, "all", results, workers=1)
        tracer.phase("report", harness.write_report, results, dataset, work / "report",
                     fmt="markdown", strata="morphology", plots_dir=work / "plots")
    except Exception as exc:  # a fault in the program is a failed operation
        pipe.op("trace", 0, 0.0, [f"traced pass raised {exc!r}"])
        return metrics
    finally:
        tracer.restore()

    records = checks.read_jsonl(results)
    problems = []
    if sha != pipe.dataset_sha:
        problems.append("traced generation does not reproduce the dataset SHA-256")
    if checks.results_digest(records) != pipe.digest:
        problems.append("traced run does not reproduce the non-latency result digest")
    if audit["feasible"] != audit["total"]:
        problems.append("traced audit found instances that are not feasible")
    pipe.op("determinism", 0, 0.0, problems)

    fails = Counter(r["method"] for r in records if r["status"] == checks.FAIL)
    values, shares = _summarize(tracer, pipe, ledger, fails, import_s)
    for name, _ in METRICS:
        metrics[name]["value"] = values[name]

    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = tracer.spans[0].start
    doc = {
        "workload": pipe.wl.name,
        "dataset_sha256": sha,
        "environment": {"nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "numpy": sys.modules["numpy"].__version__,
                        "platform": platform.platform()},
        "untraced_walls_s": {k: w[-1] for k, w in pipe.walls.items()},
        "shares": shares,
        "metrics": {k: m["value"] for k, m in metrics.items()},
        "ledger_summary": _ledger_summary(ledger),
        "ledger": ledger,
        "spans": [[s.name, s.trace, s.parent, round(s.start - t0, 7), round(s.end - t0, 7)]
                  for s in tracer.spans],
    }
    (out_dir / f"{pipe.wl.name}-trace.json").write_text(json.dumps(doc) + "\n")
    return metrics
