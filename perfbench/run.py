#!/usr/bin/env python3
"""End-to-end benchmark of the hexcover pipeline: generate -> audit -> run -> report.

    python3 perfbench/run.py --workload gen-tail --seed 1 --seconds 10 --trace 0

The benchmark is one closed-loop client of the real CLI: it starts each
`python -m hexcover.cli` command only after the previous one has exited, and
never passes `--workers` above the CPUs this process may use. Every command's
output is checked (see checks.py); a non-zero exit or a failed check counts
as a failed operation.

Workloads (their dataset seeds are part of their definition and fixed):

- gen-tail  generate --count 40 from seed 0 (seeds 0-47) at the pool size,
            then audit, run and report. Seeds 7 and 44 exhaust the 2M-node
            audit budget, so the oracle and the pool's block barrier
            dominate generation. `run` is timed at 1 worker: at 2 workers
            this 0.4-s command spread past its bound between runs of the
            same code. The traced pass runs it at the pool size, so
            harness.run.pool_idle_share still measures run's pool.
- gen-bulk  generate --count 195 from seed 73 (seeds 73-296, none with an
            audit tail) at 1 worker, then audit, run and report: geometry
            dominates generation, planners and metrics dominate run and
            report, and no pool is involved.

A run makes three rounds. Each round sets up three times (each a warm-up
import of the CLI), times a generate (gen-tail only in its first round), and
then repeats audit, run and report for a third of `--seconds`, so that every
command's samples spread over the whole run. `pipeline_s` is the sum of the
four command times, the roadmap's unit of work.

`--seed` seeds the benchmark's own choices: which result records the
independent grader re-checks after each `run`.

`--trace 0` prints the end-to-end metrics. Other tenants of a shared
machine slow each CPU by up to 2x, in phases of seconds to minutes, and a
command that runs one process goes to each CPU in turn. Beside every command
a probe thread on the command's CPUs times a fixed pure-Python search every
0.1 s, in CPU time; each sample is scaled by REFERENCE_S over the probe's
median, which reads it at the speed of a CPU that runs the probe in
REFERENCE_S. Each command's time is the median of its scaled samples (see
provenance.json for the spreads with and without the scaling). `setup_s` is
the median of the nine set-ups, `peak_rss_mb` the largest peak RSS of any
command. `--trace 1` makes one round with one pass of each step, then the
in-process traced pass of tracing.py, and prints the per-module metrics.

The last line of stdout is the JSON result. The line before it carries the
dataset SHA-256, the digest of the non-latency result fields (so two builds
can be compared byte for byte) and every timing sample, raw and scaled.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
# generate_dataset scans seeds in blocks of max(16, 8 x workers). Up to 3
# workers gen-tail scans exactly seeds 0-47; at 4 or more the block would reach
# seed 62 (a 1.3M-node infeasibility proof) and change the workload, so the
# pool is capped at 2 and every machine gets the same inputs.
POOL = min(NPROC, 2)
ROUNDS = 3
SETUPS_PER_ROUND = 3
GRADE_SAMPLE = 256
# Every command is killed once the run has lasted this long, so the
# benchmark ends within its 180-second limit whatever the program does.
RUN_DEADLINE_S = 170
# Command times are reported at the speed of a CPU on which reference_s()
# takes this long; on the machine of provenance.json it takes 1.9-4.2 ms,
# depending on how much other tenants slow it.
REFERENCE_S = 0.0025
PROBE_PERIOD_S = 0.1
ALL_STEPS = ("generate", "audit", "run", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    seed_start: int
    count: int
    workers: int  # generate's pool
    run_workers: int
    generates: int  # rounds that time a generate; gen-tail affords one


WORKLOADS = {
    # --count 40 admits every feasible seed of 0-47: the scan ends at 48.
    "gen-tail": Workload("gen-tail", 0, 40, POOL, 1, 1),
    # --count 195 scans seeds 73-296, none of which has a tail audit.
    "gen-bulk": Workload("gen-bulk", 73, 195, 1, 1, ROUNDS),
}
LOOP_STEPS = ("audit", "run", "report")


def _grid(side: int) -> list[list[int]]:
    """Adjacency lists of a side x side king-move grid."""
    cells = range(side * side)
    return [[j for dr in (-1, 0, 1) for dc in (-1, 0, 1)
             if (dr or dc) and 0 <= c // side + dr < side and 0 <= c % side + dc < side
             for j in (c + dr * side + dc,)] for c in cells]


REFERENCE_GRID = _grid(40)


def reference_s() -> float:
    """CPU time of a fixed pure-Python graph search: the CPU-speed probe.

    CPU time, not wall time: the probe shares its CPU with the command it
    watches, and waiting for its turn says nothing about the CPU's speed.
    """
    adj = REFERENCE_GRID
    t0 = time.thread_time()
    for source in range(0, len(adj), 600):
        seen = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
    return time.thread_time() - t0


class SpeedProbe:
    """Times reference_s() on `cpus` every PROBE_PERIOD_S until the block ends.

    Run beside a command on the command's CPUs, it sees the speed that other
    tenants leave the command, at a cost of about 2 % of one CPU.
    """

    def __init__(self, cpus: set[int]):
        self.cpus = cpus
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        os.sched_setaffinity(0, self.cpus)  # pins this thread only
        while True:
            self.samples.append(reference_s())
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _remove(*paths: Path) -> None:
    for path in paths:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)


class Pipeline:
    """One workload's CLI commands, their checks, and the samples they yield."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.rng = random.Random(seed)
        self.dataset = work / "instances.jsonl"
        self.results = work / "results.jsonl"
        self.report_dir = work / "report"
        self.plots_dir = work / "plots"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.argvs: list[list[str]] = []
        self.walls: dict[str, list[float]] = {}
        self.rss_mb: list[float] = []
        self.scaled: dict[str, list[float]] = {}
        self.speed = 1.0  # REFERENCE_S / probe median during the last command
        self._cpus = sorted(os.sched_getaffinity(0))
        self.manifest: dict | None = None
        self.instances: list[dict] = []
        self.dataset_sha: str | None = None
        self.digest: str | None = None

    def reset_work(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def cli(self, *args: str) -> tuple[int, float]:
        """Run one CLI command to completion; return its exit code and wall time."""
        workers = int(args[args.index("--workers") + 1]) if "--workers" in args else 1
        if workers > NPROC:
            raise ValueError(f"--workers above nproc={NPROC}: {args}")
        argv = [sys.executable, "-m", "hexcover.cli", *args]
        self.argvs.append(argv)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("HEXCOVER_WORKERS", None)
        # A one-process command runs on one CPU, each CPU in turn, and the
        # probe beside it on the same CPU: other tenants slow each CPU alone.
        cpus = set(self._cpus)
        if workers == 1:
            cpus = {self._cpus[len(self.argvs) % len(self._cpus)]}
        with open(self.work / "cli.log", "ab") as log, SpeedProbe(cpus) as probe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            with contextlib.suppress(ProcessLookupError):  # already exited
                os.sched_setaffinity(proc.pid, cpus)
            # The kill takes the command's pool workers with it (same session).
            timer = threading.Timer(
                max(self.deadline - t0, 0.0), os.killpg, (proc.pid, signal.SIGKILL)
            )
            timer.start()
            try:
                # wait4 reports the peak RSS of the command and its pool workers.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): stop the command and its pool.
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.speed = REFERENCE_S / statistics.median(probe.samples)
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        return proc.returncode, wall

    def op(self, step: str, rc: int, wall: float, problems: list[str]) -> bool:
        if rc != 0:
            problems = [f"exit code {rc}", *problems]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{step}: {p}" for p in problems)
        else:
            self.walls.setdefault(step, []).append(wall)
            self.scaled.setdefault(step, []).append(wall * self.speed)
        return not problems

    def warm(self) -> bool:
        rc, wall = self.cli("--help")
        return self.op("help", rc, wall, [])

    def generate(self) -> bool:
        wl = self.wl
        # Each check grades what this command wrote, never an earlier output.
        _remove(self.dataset, checks.manifest_path(self.dataset))
        rc, wall = self.cli(
            "generate", "--count", str(wl.count), "--seed", str(wl.seed_start),
            "--workers", str(wl.workers), "--out", str(self.dataset),
        )
        problems: list[str] = []
        if rc == 0:
            problems, manifest = checks.check_dataset(self.dataset, wl.count)
            if manifest is not None:
                if self.dataset_sha not in (None, manifest["sha256"]):
                    problems.append("dataset differs from the previous generation")
                self.manifest, self.dataset_sha = manifest, manifest["sha256"]
                self.instances = checks.read_jsonl(self.dataset)
        return self.op("generate", rc, wall, problems)

    def audit(self) -> bool:
        rc, wall = self.cli("audit", "--dataset", str(self.dataset))
        return self.op("audit", rc, wall, [])

    def run(self) -> bool:
        _remove(self.results)
        rc, wall = self.cli(
            "run", "--dataset", str(self.dataset), "--methods", "all",
            "--workers", str(self.wl.run_workers), "--out", str(self.results),
        )
        problems: list[str] = []
        if rc == 0:
            problems, records = checks.check_results(
                self.results, self.instances, self.rng, GRADE_SAMPLE
            )
            digest = checks.results_digest(records)
            if self.digest not in (None, digest):
                problems.append("non-latency result fields differ from the previous run")
            self.digest = digest
        return self.op("run", rc, wall, problems)

    def report(self) -> bool:
        _remove(self.report_dir, self.plots_dir)
        rc, wall = self.cli(
            "report", "--results", str(self.results), "--dataset", str(self.dataset),
            "--out", str(self.report_dir), "--format", "markdown",
            "--strata", "morphology", "--plots", str(self.plots_dir),
        )
        problems = checks.check_report(self.report_dir, self.plots_dir) if rc == 0 else []
        return self.op("report", rc, wall, problems)

    def loop(self, seconds: float) -> bool:
        """Repeat audit, run and report for `seconds` (at least once)."""
        t0 = time.perf_counter()
        while all(getattr(self, s)() for s in LOOP_STEPS):
            if time.perf_counter() - t0 >= seconds:
                return True
        return False


def end_to_end(pipe: Pipeline) -> dict:
    # Other tenants slow the machine for seconds to minutes. The probe scale
    # removes most of that from each sample, and the median ignores the
    # samples where probe and command saw different speeds.
    step_s = {f"{s}_s": statistics.median(pipe.scaled.get(s, [0.0])) for s in ALL_STEPS}
    m = pipe.manifest or {}
    scanned = m.get("seeds_scanned", 0)
    undecided = m.get("rejections", {}).get("audit-inconclusive", 0)
    values = {
        "setup_s": (statistics.median(pipe.scaled.get("help", [0.0])), "s"),
        "pipeline_s": (sum(step_s.values()), "s"),
        **{k: (v, "s") for k, v in step_s.items()},
        "decided_share": (1.0 - undecided / scanned if scanned else 0.0, "share"),
        "peak_rss_mb": (max(pipe.rss_mb, default=0.0), "MB"),
    }
    # A zero only stands in for a value after a failed operation, which
    # already makes the run incorrect; it keeps the result line well formed.
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, measure and check one workload; return (result line, info, pipeline).

    A run is ROUNDS rounds. A round sets up SETUPS_PER_ROUND times (each a
    warm-up import of the CLI), times a generate in the workload's first
    `generates` rounds, then repeats audit, run and report for a third of
    `seconds`, so the set-ups and each command's samples spread over the
    whole run. The traced run makes one round with one pass of each step,
    and runs `run` at the pool size.
    """
    if trace:
        wl = dataclasses.replace(wl, run_workers=wl.workers)
    pipe = Pipeline(wl, seed, work)
    pipe.reset_work()
    rounds = 1 if trace else ROUNDS
    for r in range(rounds):
        if not all(pipe.warm() for _ in range(SETUPS_PER_ROUND)):
            break
        if r < wl.generates and not pipe.generate():
            break
        if not pipe.loop(0 if trace else seconds / rounds):
            break
    complete = pipe.failed == 0
    info = {"workload": wl.name, "dataset_sha256": pipe.dataset_sha,
            "results_digest": pipe.digest, "samples_s": pipe.walls}
    if trace:
        import tracing

        metrics = tracing.per_module(pipe, complete, STATE / "out")
        info["trace_file"] = str(STATE / "out" / f"{wl.name}-trace.json")
    else:
        metrics = end_to_end(pipe)
        info["scaled_samples_s"] = pipe.scaled
    info["problems"] = pipe.problems[:20]
    result = {"correct": pipe.failed == 0, "attempted": pipe.attempted,
              "failed": pipe.failed, "metrics": metrics}
    return result, info, pipe


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "hexcover" / "cli.py").is_file():
        print(f"error: no hexcover sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    result, info, _ = run_workload(
        wl, args.seed, args.seconds, bool(args.trace), STATE / "work" / wl.name
    )
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
