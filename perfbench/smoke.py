#!/usr/bin/env python3
"""Smoke test of the benchmark itself on a tiny seed range.

    python3 perfbench/smoke.py

Each workload runs on 3 instances from seed 73 (one 16-seed scan). The test
checks that the printed metric names match BENCHMARK.json, that the traced
generation reproduces generate_dataset's SHA-256, that a corrupted result
line counts as a failed operation, and that `--workers` never exceeds nproc.
Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys

import checks
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny(wl: run.Workload) -> run.Workload:
    return dataclasses.replace(wl, name=f"smoke-{wl.name}", seed_start=73, count=3)


def check_names(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in spec}
    assert printed == declared, sorted(set(printed) ^ set(declared))
    assert all(NAME.match(k) for k in printed), [k for k in printed if not NAME.match(k)]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    pipes = []

    # 1. Metric names of both modes, on every workload's steps.
    for wl in run.WORKLOADS.values():
        result, _, pipe = run.run_workload(tiny(wl), 1, 0, False, run.STATE / "work" / f"smoke-{wl.name}")
        assert result["correct"], pipe.problems
        check_names(result, spec["end_to_end"])
        pipes.append(pipe)

    # 2. The traced pass reproduces generate_dataset's SHA-256 (pool-size run).
    wl = tiny(run.WORKLOADS["gen-tail"])
    result, info, pipe = run.run_workload(wl, 1, 0, True, run.STATE / "work" / wl.name)
    assert result["correct"], pipe.problems
    check_names(result, spec["per_layer"])
    trace_doc = json.loads((run.STATE / "out" / f"{wl.name}-trace.json").read_text())
    assert trace_doc["dataset_sha256"] == pipe.manifest["sha256"] == info["dataset_sha256"]
    assert "determinism" in pipe.walls, "determinism check did not pass"
    pipes.append(pipe)

    # 3. A corrupted result line is a failed operation.
    pipe = pipes[1]
    records = checks.read_jsonl(pipe.results)
    victim = next(r for r in records if r["status"] == checks.HAMILTONIAN)
    victim["revisits"] = 1
    pipe.results.write_text("".join(checks.dump_line(r) + "\n" for r in records))
    problems, _ = checks.check_results(pipe.results, pipe.instances, random.Random(0), len(records))
    assert problems, "the independent grader accepted a corrupted record"
    failed = pipe.failed
    assert not pipe.report(), "report accepted a corrupted results file"
    assert pipe.failed == failed + 1 and pipe.failed / pipe.attempted > 0

    # 4. --workers never exceeds nproc, and asking for more starts nothing.
    for argv in (a for p in pipes for a in p.argvs):
        if "--workers" in argv:
            assert int(argv[argv.index("--workers") + 1]) <= run.NPROC, argv
    greedy = run.Pipeline(dataclasses.replace(wl, workers=run.NPROC + 1), 1, pipe.work)
    try:
        greedy.generate()
    except ValueError:
        assert not greedy.argvs
    else:
        raise AssertionError("a --workers value above nproc was accepted")

    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
