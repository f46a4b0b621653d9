import builtins
import concurrent.futures
import errno
import functools
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import read_results, results_digest

from hexcover import graphbuild, harness
from hexcover.cli import main as cli_main
from hexcover.graphbuild import GenerationConfig
from hexcover.harness import (
    DatasetError,
    EmptyDatasetError,
    audit_dataset,
    generate_dataset,
    load_instances,
    load_results,
    run_benchmark,
    write_report,
)
from hexcover.lattice import (
    STATUS_HAMILTONIAN,
    Instance,
    InvalidParameterError,
    MorphologyClass,
    Point,
    exterior_boundary,
    graph_from_coords,
    label_from,
)
from hexcover.methods import METHOD_ORDER, METHODS
from hexcover.oracle import hamiltonian_audit

N_SMALL = 6

# SHA-256 of the N_SMALL dataset bytes and of its sorted non-latency result
# lines (the rule of perfbench/checks.results_digest). A refactor must leave
# both as they are; a change to what is generated, planned or measured moves
# them on purpose and updates them here.
PINNED_DATASET_SHA256 = "e3b4cc661c68d55bab8ecb50c83d8530fc539821a24c928df3d164678a7b04fe"
PINNED_RESULTS_DIGEST = "075151f3394d0a1fb8b79c61f5c69797471990608759eb1eebde6d57a31914c6"
# SHA-256 of the 40 instances admitted from seeds 0-47 (two seeds infeasible,
# six outside the size band, several with obstacle holes): every geometry
# stage from sampling to base attachment, checked byte for byte.
PINNED_SEEDS_0_47_SHA256 = "598fb8d2f4f469d656a9e82a0052f982bd9fcc4b90dbc64eb15de427ccd998fd"
# The same two datasets with each record's witness deleted and the schema
# set back to hexcover-dataset/2: the bytes written before records carried
# a witness, which adding one must leave as they were.
PINNED_SCHEMA_2_SHA256 = {
    N_SMALL: "767a2c7f82c32fd75df44a02278f2e8c2b5c9e09bd684bfd3d5982230b73e1c4",
    40: "81bee7c5c5cec3e45208f0428ae6068588d4c5d097649bdf7c8a9f7f1c33d08d",
}
# The non-latency results digest of all 17 methods on that dataset.
PINNED_SEEDS_0_47_RESULTS_DIGEST = (
    "de6c7ceca2f7fc0b3cf748ec3ad56aff80e32ab28968ceab02aff196a3573a93"
)
# SHA-256 of the markdown report (`--strata morphology`) of all 17 methods on
# that dataset; quality.md and warnsdorff.md are hashed without their
# latency_mean_ms column, the one number that differs between runs.
PINNED_SEEDS_0_47_REPORT_SHA256 = {
    "feasibility.md": "d40fccb79b468a5ac9d757d0d653fe6de3a9df539f2cedc5445ebf95e8646f76",
    "morphology.md": "a481a177ea2657201ec29868b8545b192f301ab64b2f92f0495a63c415dae3fd",
    "quality.md": "6b2f3eb55860980073d8be6dc3505d27c7c4c61ef0be1875c0705a79d72282c4",
    "warnsdorff.md": "d6b3f5982a69e39f13bc2f5cf5df259d9374f446b4de868f57275e49bf536519",
}
# The same report as csv, every float at full precision, without the
# latency_mean_ms column (the SHA-256 of _drop_column's text): the markdown
# rounds to two decimals, so only these see a last-bit change in a mean or SD.
PINNED_SEEDS_0_47_CSV_REPORT_SHA256 = {
    "feasibility.csv": "3566e269d530a56992585d1173a563cf7cb600ebfc27c6880f4d0131723c6b0a",
    "morphology.csv": "fd981c68eab64b34322f9d2e9a95e9ee69c79ca534d5a1628a0dc0ad2e212b18",
    "quality.csv": "e369b8dc3c7a9ac6c2311e8e5adf9cf8e3c9dfb143dafdf546f1b6d00ffe469f",
    "warnsdorff.csv": "901a86b5065b056d561d244ca09aca2cca3eebb317a419cf63936b0bb36d1a0d",
}


def run_python(code: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports this checkout's hexcover.

    On timeout the interpreter is killed with any pool workers it forked,
    and the test fails.
    """
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", code, *args]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path), start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"no exit within {timeout} s: {argv[3:]}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "instances.jsonl"
    manifest = generate_dataset(N_SMALL, seed=0, config=GenerationConfig(), out_path=path)
    return path, manifest


@pytest.fixture(scope="module")
def seeds_0_47(tmp_path_factory):
    path = tmp_path_factory.mktemp("tail") / "tail.jsonl"
    manifest = generate_dataset(40, 0, GenerationConfig(), path, workers=2)
    return path, manifest


@pytest.fixture(scope="module")
def results(dataset, tmp_path_factory):
    path, _ = dataset
    out = tmp_path_factory.mktemp("results") / "results.jsonl"
    assert run_benchmark(path, "all", out, workers=1) == N_SMALL * 17
    return out, read_results(out)


class TestGenerate:
    def test_deterministic_bytes(self, dataset, tmp_path):
        path, manifest = dataset
        again = tmp_path / "again.jsonl"
        m2 = generate_dataset(N_SMALL, seed=0, config=GenerationConfig(), out_path=again)
        assert path.read_bytes() == again.read_bytes()
        assert manifest.sha256 == m2.sha256

    def test_worker_count_does_not_change_bytes(self, dataset, tmp_path):
        path, _ = dataset
        par = tmp_path / "par.jsonl"
        generate_dataset(N_SMALL, seed=0, config=GenerationConfig(), out_path=par, workers=3)
        assert path.read_bytes() == par.read_bytes()

    def test_one_worker_starts_no_pool(self, dataset, tmp_path, monkeypatch):
        path, _ = dataset

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started at 1 worker")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        serial = tmp_path / "serial.jsonl"
        generate_dataset(N_SMALL, seed=0, config=GenerationConfig(), out_path=serial, workers=1)
        assert serial.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("count", [1, 2, 5, 12])
    def test_block_tasks_do_not_change_bytes(self, tmp_path, count):
        serial = tmp_path / "w1.jsonl"
        manifest = generate_dataset(count, 0, GenerationConfig(), serial, workers=1)
        for workers in (2, 3):
            par = tmp_path / f"w{workers}.jsonl"
            assert generate_dataset(count, 0, GenerationConfig(), par, workers=workers) == manifest
            assert par.read_bytes() == serial.read_bytes()
            on_disk = Path(str(par) + ".manifest.json").read_bytes()
            assert on_disk == Path(str(serial) + ".manifest.json").read_bytes()

    def test_one_worker_builds_no_seed_past_the_last(self, tmp_path, monkeypatch):
        built = []
        real = harness.build_block

        def counting(seeds, config):
            built.extend(seed for _, seed in seeds)
            return real(seeds, config)

        monkeypatch.setattr(harness, "build_block", counting)
        manifest = generate_dataset(N_SMALL, 0, GenerationConfig(), tmp_path / "d.jsonl", workers=1)
        assert built == list(range(manifest.seeds_scanned))

    @pytest.mark.parametrize("count, workers", [(12, 3), (40, 2)])
    def test_pool_scans_no_further_than_one_seed_a_task(
        self, tmp_path, monkeypatch, count, workers
    ):
        # With one seed a task, the pool reached at most the tasks in flight
        # past the last seed scanned; blocks of seeds must reach no further.
        sent = []
        real = harness._in_order

        def recording(fn, tasks, workers):
            def seen():
                for task in tasks:
                    sent.extend(task[0])
                    yield task

            return real(fn, seen(), workers)

        monkeypatch.setattr(harness, "_in_order", recording)
        manifest = generate_dataset(count, 0, GenerationConfig(), tmp_path / "d.jsonl", workers)
        assert sent == list(range(len(sent)))
        in_flight = harness.TASKS_PER_WORKER * workers
        assert len(sent) <= manifest.seeds_scanned + in_flight - 1

    def test_every_block_size_builds_the_lines_of_a_block_of_one(self, monkeypatch):
        config = GenerationConfig()
        one = [out for s in range(200) for out in harness._build_block((range(s, s + 1), config))]
        passes = []
        real = graphbuild.tessellate

        def counting(lattices, h):
            passes.append(len(lattices))
            return real(lattices, h)

        monkeypatch.setattr(graphbuild, "tessellate", counting)
        for size in range(2, graphbuild.BLOCK_SEEDS + 1):
            passes.clear()
            blocks = [range(s, min(s + size, 200)) for s in range(0, 200, size)]
            assert [out for b in blocks for out in harness._build_block((b, config))] == one
            # One clip pass a block.
            assert len(passes) == len(blocks)

    def test_size_band_and_audit_flags(self, dataset):
        path, _ = dataset
        instances = load_instances(path)
        assert len(instances) == N_SMALL
        for inst in instances:
            assert 28 <= inst.graph.n <= 46
        for line in path.read_text().splitlines():
            assert json.loads(line)["audited_feasible"] is True

    def test_manifest_contents(self, dataset):
        path, manifest = dataset
        on_disk = json.loads(Path(str(path) + ".manifest.json").read_text())
        assert on_disk["sha256"] == manifest.sha256
        assert on_disk["count"] == N_SMALL
        assert on_disk["config"]["size_band"] == [28, 46]

    def test_rejects_nonpositive_count(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            generate_dataset(0, 0, GenerationConfig(), tmp_path / "x.jsonl")

    def test_seed_past_the_philox_key_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        code = cli_main(["generate", "--count", "1", "--seed", str(2**128),
                         "--out", str(data), "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and "2**128" in err[0]
        assert not data.exists()


class TestAudit:
    def test_fresh_dataset_fully_feasible(self, dataset):
        path, _ = dataset
        report = audit_dataset(path)
        assert report["total"] == N_SMALL
        assert report["feasible"] == N_SMALL

    def test_mutated_dataset_detected(self, dataset, tmp_path, capsys):
        path, _ = dataset
        rec = json.loads(path.read_text().splitlines()[0])
        # One shared link: a path cannot start and end at the same cell, so
        # the instance is infeasible, and its witness, which starts and ends
        # at two linked cells, is no walk of the graph.
        b = rec["base_links"][0]
        mutated = _relabel(path, tmp_path / "m.jsonl", 1, base_links=[b], terminal_links=[b])
        code = cli_main(["audit", "--dataset", str(mutated)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(f"error: {mutated}:1: instance {rec['id']}: witness ")

    def test_audit_runs_no_search(self, dataset, monkeypatch):
        # Each record's witness is its certificate: no search runs.
        from hexcover import oracle

        def no_search(*args, **kwargs):
            raise AssertionError("audit ran a search")

        for name in ("hamiltonian_audit", "_dfs", "frontier_audit"):
            monkeypatch.setattr(oracle, name, no_search)
        path, _ = dataset
        assert audit_dataset(path) == {"total": N_SMALL, "feasible": N_SMALL}

    def test_strip_deeper_than_the_recursion_limit_audits(self, tmp_path, capsys):
        # One column of cells linked at both ends, longer than the recursion
        # limit: `oracle._dfs` recurses once a cell, the witness check is one
        # loop over the walk.
        n = 1100
        assert n > sys.getrecursionlimit()
        g = graph_from_coords([(0, r) for r in range(n)], 1.0, [0, n - 1], [0, n - 1],
                              Point(0.0, -3.0))
        morphology = MorphologyClass(label_from(0.01, 1000.0), 0.01, 1000.0)
        inst = Instance(0, "elongated", morphology, g, (g.base_node, *range(n), g.terminal_node))
        path = tmp_path / "strip.jsonl"
        path.write_text(harness._dump_line(harness.instance_to_record(inst)) + "\n")
        code = cli_main(["audit", "--dataset", str(path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.splitlines() == ["instances: 1", "feasible: 1"]

    def test_empty_dataset_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(EmptyDatasetError):
            audit_dataset(empty)

    def test_parse_error_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\nnot json\n')
        with pytest.raises(DatasetError, match=":1:"):
            load_instances(bad)

    def test_dataset_file_opened_once(self, dataset, monkeypatch):
        # The SHA-256 and the records come from one read of the file.
        path, _ = dataset
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
                opened.append(args)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        assert len(load_instances(path)) == N_SMALL
        assert len(opened) == 1

    def test_blank_lines_skipped_and_counted(self, dataset, tmp_path):
        path, _ = dataset
        lines = path.read_text().splitlines()
        ids = [i.id for i in load_instances(path)]
        padded = tmp_path / "padded.jsonl"
        for sep in (b"\n", b"\r\n"):
            padded.write_bytes(sep.join(s.encode() for s in ["", lines[0], "  ", *lines[1:], ""]))
            assert [i.id for i in load_instances(padded)] == ids
            padded.write_bytes(sep.join(s.encode() for s in ["", lines[0], " ", "{", *lines[1:]]))
            with pytest.raises(DatasetError, match=f"^{re.escape(str(padded))}:4: "):
                load_instances(padded)

    def test_bytes_not_utf8_are_named_by_their_line(self, dataset, tmp_path):
        # The line is counted as text mode splits lines, on every newline.
        path, _ = dataset
        lines = path.read_bytes().splitlines()
        spoiled = tmp_path / "spoiled.jsonl"
        for sep in (b"\n", b"\r\n", b"\r"):
            spoiled.write_bytes(sep.join([*lines[:2], lines[2][:9] + b"\xff" + lines[2][9:]]))
            with pytest.raises(DatasetError, match=f"^{re.escape(str(spoiled))}:3: not UTF-8"):
                load_instances(spoiled)


class TestRun:
    def test_cardinality(self, results):
        _, records = results
        assert len(records) == N_SMALL * 17
        methods = {r["method"] for r in records}
        assert methods == set(METHOD_ORDER)

    def test_worker_independence_modulo_latency(self, dataset, results, tmp_path):
        path, _ = dataset
        _, rec1 = results
        run_benchmark(path, "all", tmp_path / "r2.jsonl", workers=2)
        rec2 = read_results(tmp_path / "r2.jsonl")

        def strip(recs):
            return [{k: v for k, v in r.items() if k != "latency_ms"} for r in recs]

        assert strip(rec1) == strip(rec2)

    def test_hamiltonian_records_have_zero_revisits(self, results):
        _, records = results
        seen = 0
        for r in records:
            if r["status"] == STATUS_HAMILTONIAN:
                assert r["revisits"] == 0
                seen += 1
        assert seen > 0

    def test_records_sorted(self, results):
        _, records = results
        keys = [(r["instance_id"], r["method"]) for r in records]
        assert keys == sorted(keys)

    def test_unknown_method_listed(self, dataset, tmp_path):
        path, _ = dataset
        with pytest.raises(InvalidParameterError, match="boustrophedon"):
            run_benchmark(path, ["not-a-method"], tmp_path / "r.jsonl")
        assert not (tmp_path / "r.jsonl").exists()

    def test_subset_of_methods(self, dataset, tmp_path):
        path, _ = dataset
        count = run_benchmark(
            path, ["warnsdorff-ti-index", "morton"], tmp_path / "sub.jsonl"
        )
        assert count == len(read_results(tmp_path / "sub.jsonl")) == N_SMALL * 2

    @pytest.mark.parametrize("slug", METHOD_ORDER)
    def test_a_method_alone_writes_its_lines_of_the_full_run(
        self, dataset, results, tmp_path, slug
    ):
        # A method's records do not depend on which other methods ran.
        path, _ = dataset
        out = tmp_path / "alone.jsonl"
        assert run_benchmark(path, [slug], out, workers=1) == N_SMALL

        def strip(lines):
            return [re.sub(r',"latency_ms":[^,}]*', "", line) for line in lines]

        full = [line for line in results[0].read_text().splitlines()
                if json.loads(line)["method"] == slug]
        assert strip(out.read_text().splitlines()) == strip(full)

    def test_tamper_check_on_load(self, results, dataset, tmp_path):
        rpath, _ = results
        dpath, _ = dataset
        instances = load_instances(dpath)
        load_results(rpath, instances)  # clean file passes
        lines = rpath.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["status"] = (
            "CoverageSuccess" if rec["status"] != "CoverageSuccess" else "HamiltonianSuccess"
        )
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        with pytest.raises(DatasetError, match="tamper"):
            load_results(tampered, instances)

    def test_results_depend_only_on_the_records(self, dataset, results, tmp_path):
        path, _ = dataset
        reversed_data = tmp_path / "reversed.jsonl"
        reversed_data.write_text("".join(reversed(path.read_text().splitlines(True))))
        run_benchmark(reversed_data, "all", tmp_path / "r.jsonl", workers=1)

        def strip(file):
            return [re.sub(r',"latency_ms":[^,}]*', "", line)
                    for line in file.read_text().splitlines()]

        assert strip(tmp_path / "r.jsonl") == strip(results[0])

    def test_methods_run_in_the_order_given_and_lines_in_slug_order(
        self, dataset, tmp_path, monkeypatch
    ):
        path, _ = dataset
        calls, plan = [], harness.timed_plan

        def timed_plan(graph, method):
            calls.append(method)
            return plan(graph, method)

        monkeypatch.setattr(harness, "timed_plan", timed_plan)
        out = tmp_path / "r.jsonl"
        assert cli_main(["run", "--dataset", str(path), "--methods", "morton,boustrophedon",
                         "--out", str(out), "--workers", "1"]) == 0
        assert calls == ["morton", "boustrophedon"] * N_SMALL
        keys = [(r["instance_id"], r["method"]) for r in read_results(out)]
        assert keys == sorted(keys)
        assert [m for _, m in keys] == ["boustrophedon", "morton"] * N_SMALL


class TestFileBoundary:
    def test_pinned_dataset_and_results_digests(self, dataset, results):
        path, manifest = dataset
        rpath, _ = results
        assert manifest.sha256 == PINNED_DATASET_SHA256
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DATASET_SHA256
        assert results_digest(rpath) == PINNED_RESULTS_DIGEST

    def test_pinned_dataset_of_seeds_0_to_47(self, seeds_0_47):
        _, manifest = seeds_0_47
        assert manifest.seeds_scanned == 48
        assert manifest.rejections == {"infeasible": 2, "size-band": 6}
        assert manifest.sha256 == PINNED_SEEDS_0_47_SHA256

    @pytest.mark.parametrize("which", ["dataset", "seeds_0_47"])
    def test_records_without_witness_are_the_schema_2_bytes(self, request, which):
        path, manifest = request.getfixturevalue(which)
        lines = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            del rec["witness"]
            lines.append(harness._dump_line({**rec, "schema": "hexcover-dataset/2"}) + "\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == PINNED_SCHEMA_2_SHA256[manifest.count]

    def test_pinned_report_of_seeds_0_to_47(self, seeds_0_47, tmp_path):
        dpath, _ = seeds_0_47
        rpath, out = tmp_path / "r.jsonl", tmp_path / "rep"
        run_benchmark(dpath, "all", rpath, workers=1)
        assert results_digest(rpath) == PINNED_SEEDS_0_47_RESULTS_DIGEST
        write_report(rpath, dpath, out, strata="morphology")
        digests = {
            name: hashlib.sha256(
                _drop_md_column((out / name).read_text(), "latency_mean_ms").encode()
            ).hexdigest()
            for name in PINNED_SEEDS_0_47_REPORT_SHA256
        }
        assert digests == PINNED_SEEDS_0_47_REPORT_SHA256
        write_report(rpath, dpath, out, fmt="csv", strata="morphology")
        digests = {
            name: hashlib.sha256(
                _drop_column((out / name).read_text(), "latency_mean_ms").encode()
            ).hexdigest()
            for name in PINNED_SEEDS_0_47_CSV_REPORT_SHA256
        }
        assert digests == PINNED_SEEDS_0_47_CSV_REPORT_SHA256

    @pytest.mark.parametrize("edit", ["instance-missing", "cell-repeated"])
    def test_report_refuses_results_that_do_not_cover_the_dataset_once(
        self, dataset, results, tmp_path, capsys, edit
    ):
        dpath, _ = dataset
        rpath, _ = results
        lines = rpath.read_text().splitlines()
        first = json.loads(lines[0])
        if edit == "instance-missing":
            names = first["instance_id"]
            lines = [ln for ln in lines if json.loads(ln)["instance_id"] != names]
        else:
            lines.append(lines[0])
            names = f"{first['instance_id']}:{first['method']}"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = cli_main(["report", "--results", str(bad), "--dataset", str(dpath),
                         "--out", str(tmp_path / "rep"), "--strata", "morphology"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert names in err[0]

    @pytest.mark.parametrize(
        "command", [["run", "--workers", "1"], ["run", "--workers", "2"], ["audit"]],
        ids=["run-inline", "run-pool", "audit"],
    )
    @pytest.mark.parametrize(
        "field, value, says",
        [("edges", None, "missing field 'edges'"), ("cells", 5, "ill-typed field"),
         # A column whose centre no double holds.
         ("cells", lambda cells: [[10**400, *cells[0][1:]], *cells[1:]], "ill-typed field")],
        ids=["no-edges", "int-cells", "huge-column"],
    )
    def test_malformed_record_is_one_error_line(
        self, dataset, tmp_path, capsys, command, field, value, says
    ):
        dpath, _ = dataset
        lines = dpath.read_text().splitlines()
        rec = json.loads(lines[1])
        if value is None:
            del rec[field]
        elif callable(value):
            rec[field] = value(rec[field])
        else:
            rec[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
        out = ["--out", str(tmp_path / "r.jsonl")] if command[0] == "run" else []
        code = cli_main([*command, "--dataset", str(bad), *out])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"instance {rec['id']}: {says}" in err[0]
        assert f"{bad}:2:" in err[0]

    @pytest.mark.parametrize(
        "command", [["run", "--workers", "1"], ["run", "--workers", "2"], ["audit"]],
        ids=["run-inline", "run-pool", "audit"],
    )
    def test_record_without_an_id_names_the_missing_field(
        self, dataset, tmp_path, capsys, command
    ):
        dpath, _ = dataset
        lines = dpath.read_text().splitlines()
        rec = json.loads(lines[1])
        del rec["id"]
        bad = tmp_path / "noid.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
        out = ["--out", str(tmp_path / "r.jsonl")] if command[0] == "run" else []
        code = cli_main([*command, "--dataset", str(bad), *out])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}:2: missing field 'id'"]

    @pytest.mark.parametrize(
        "field, retype",
        [("revisits", str), ("revisits", float), ("latency_ms", str),
         ("distance_norm", lambda value: True)],
        ids=["revisits-str", "revisits-float", "latency-str", "distance-bool"],
    )
    def test_ill_typed_result_number_is_refused(self, dataset, results, tmp_path, field, retype):
        # The same value, retyped, so that only the type check can refuse it.
        dpath, _ = dataset
        rpath, records = results
        bad = _relabel(rpath, tmp_path / "typed.jsonl", 2, **{field: retype(records[1][field])})
        with pytest.raises(DatasetError, match=f"^{re.escape(str(bad))}:2: .*not a JSON number"):
            load_results(bad, load_instances(dpath))

    @pytest.mark.parametrize(
        "field, literal",
        [("latency_ms", "NaN"), ("turns_rad", "Infinity"), ("distance_norm", "-Infinity"),
         ("latency_ms", "1e999"), ("latency_ms", "1" + "0" * 400)],
        ids=["latency-nan", "turns-inf", "distance-minus-inf", "latency-1e999",
             "latency-huge-int"],
    )
    def test_non_finite_result_number_is_refused(
        self, dataset, results, tmp_path, capsys, field, literal
    ):
        # json reads each literal but the last as a float, and 1e999 as inf;
        # the last is an integer past the double range, which reads as inf.
        dpath, _ = dataset
        rpath, _ = results
        bad = _relabel(rpath, tmp_path / "nonfinite.jsonl", 2, **{field: "@"})
        bad.write_text(bad.read_text().replace('"@"', literal))
        code = cli_main(["report", "--results", str(bad), "--dataset", str(dpath),
                         "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: {bad}:2: {field!r} is {float(literal)!r}, not a finite number"]
        assert not (tmp_path / "rep").exists()

    def test_result_record_with_an_unknown_key_is_refused(
        self, dataset, results, tmp_path, capsys
    ):
        dpath, _ = dataset
        rpath, _ = results
        bad = _relabel(rpath, tmp_path / "keyed.jsonl", 2, comment="hand-edited")
        with pytest.raises(DatasetError, match=":2: field 'comment' is not a results field$"):
            load_results(bad, load_instances(dpath))
        code = cli_main(["report", "--results", str(bad), "--dataset", str(dpath),
                         "--out", str(tmp_path / "rep")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: ")
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("field", ["walk", "instance_id", "method", "latency_ms"])
    def test_result_record_without_a_field_names_it(
        self, dataset, results, tmp_path, capsys, field
    ):
        dpath, _ = dataset
        rpath, _ = results
        lines = rpath.read_text().splitlines()
        rec = json.loads(lines[1])
        del rec[field]
        bad = tmp_path / "missing.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
        code = cli_main(["report", "--results", str(bad), "--dataset", str(dpath),
                         "--out", str(tmp_path / "rep")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}:2: missing field {field!r}"]
        assert not (tmp_path / "rep").exists()

    def test_lines_are_never_written_with_nan_or_infinity(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                harness._dump_line({"distance_norm": value})

    def test_schema_checked_on_load(self, dataset, results, tmp_path):
        dpath, _ = dataset
        rpath, _ = results
        old = _relabel(dpath, tmp_path / "v1.jsonl", 2, schema="hexcover-dataset/1")
        with pytest.raises(DatasetError, match=":2: schema 'hexcover-dataset/1'"):
            run_benchmark(old, "all", tmp_path / "r.jsonl", workers=2)
        assert not (tmp_path / "r.jsonl").exists()
        with pytest.raises(DatasetError, match=":2:"):
            load_instances(old)
        res = _relabel(rpath, tmp_path / "r0.jsonl", 3, schema="hexcover-results/0")
        with pytest.raises(DatasetError, match=":3: schema"):
            load_results(res, load_instances(dpath))

    # 1 == True, so only the `audited_feasible` check in record_to_instance
    # refuses the second: the round trip compares fields with ==.
    @pytest.mark.parametrize("flag", [False, 1])
    def test_unaudited_instance_rejected(self, dataset, tmp_path, flag):
        dpath, _ = dataset
        bad = _relabel(dpath, tmp_path / "unaudited.jsonl", 1, audited_feasible=flag)
        with pytest.raises(DatasetError, match=":1: .* not audited feasible"):
            run_benchmark(bad, "all", tmp_path / "r.jsonl", workers=2)
        assert not (tmp_path / "r.jsonl").exists()
        with pytest.raises(DatasetError, match="not audited feasible"):
            load_instances(bad)

    def test_malformed_walk_is_io_error(self, dataset, results, tmp_path, capsys):
        dpath, _ = dataset
        rpath, _ = results
        rec = json.loads(rpath.read_text().splitlines()[0])
        g = next(i.graph for i in load_instances(dpath) if i.id == rec["instance_id"])
        off_base = next(i for i in range(g.n) if i not in g.adjacency[g.base_node])
        walk = [g.base_node, off_base, *rec["walk"][2:]]
        bad = _relabel(rpath, tmp_path / "malformed.jsonl", 1, walk=walk)
        code = cli_main(["report", "--results", str(bad), "--dataset", str(dpath),
                         "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:1:")
        assert "not adjacent" in err[0]

    def test_unknown_method_in_results_is_one_error_line(
        self, dataset, results, tmp_path, capsys
    ):
        dpath, _ = dataset
        rpath, _ = results
        lines = rpath.read_text().splitlines()
        foreign = json.dumps({**json.loads(lines[0]), "method": "foo"})
        bad = tmp_path / "foreign.jsonl"
        bad.write_text("\n".join([*lines, foreign]) + "\n")
        code = cli_main(["report", "--results", str(bad), "--dataset", str(dpath),
                         "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:{len(lines) + 1}:")
        assert "'foo'" in err[0]
        assert not (tmp_path / "rep").exists()


class TestReport:
    def test_markdown_tables(self, results, dataset, tmp_path):
        rpath, _ = results
        dpath, _ = dataset
        out = tmp_path / "report"
        written = write_report(rpath, dpath, out, fmt="markdown", strata="morphology")
        names = {p.name for p in written}
        assert {"feasibility.md", "quality.md", "warnsdorff.md", "morphology.md"} <= names
        feas = (out / "feasibility.md").read_text().splitlines()
        # Header + separator + oracle row + 17 method rows.
        assert len(feas) == 2 + 1 + 17
        assert "Exact DFS (oracle)" in feas[2]
        morph = (out / "morphology.md").read_text()
        assert "| n |" in morph.replace("|  n  |", "| n |") or " n " in morph.splitlines()[0]

    def test_csv_round_trip(self, results, dataset, tmp_path):
        import csv

        rpath, _ = results
        dpath, _ = dataset
        out = tmp_path / "csvrep"
        write_report(rpath, dpath, out, fmt="csv")
        with (out / "feasibility.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18  # oracle + 17
        # Re-aggregate from the results file and compare the parsed numbers.
        from hexcover.metrics import aggregate_summary

        records = load_results(rpath, load_instances(dpath))
        methods = sorted({r["method"] for r in records}, key=METHOD_ORDER.index)
        summary = {r.method: r for r in aggregate_summary(records, methods)}
        display_to_slug = {row.display: slug for slug, row in METHODS.items()}
        for row in rows[1:]:
            slug = display_to_slug[row["method"]]
            assert float(row["hsr_pct"]) == summary[slug].hsr_pct
            assert float(row["ccr_pct"]) == summary[slug].ccr_pct

    def test_plots_written(self, results, dataset, tmp_path):
        rpath, _ = results
        dpath, _ = dataset
        out = tmp_path / "rep"
        plots = tmp_path / "plots"
        written = write_report(rpath, dpath, out, fmt="markdown", plots_dir=plots)
        svgs = [p for p in written if p.suffix == ".svg"]
        assert len(svgs) == 2
        for svg in svgs:
            text = svg.read_text()
            assert text.startswith("<svg")
            assert "</svg>" in text

    def test_report_deterministic(self, results, dataset, tmp_path):
        rpath, _ = results
        dpath, _ = dataset
        a, b = tmp_path / "a", tmp_path / "b"
        write_report(rpath, dpath, a, fmt="csv")
        write_report(rpath, dpath, b, fmt="csv")
        for name in ("feasibility.csv", "quality.csv", "warnsdorff.csv"):
            left = (a / name).read_text()
            right = (b / name).read_text()
            # Latency is the only nondeterministic column and lives in
            # quality.csv; strip it before comparing.
            if name == "quality.csv":
                left = _drop_column(left, "latency_mean_ms")
                right = _drop_column(right, "latency_mean_ms")
            assert left == right


def _lose_a_cell(lines: list[str]) -> tuple[int, dict]:
    """(line number, record): the first record of `lines` that, without one
    of its cells that has no link, is an infeasible instance, re-encoded
    without that cell and with the witness it had. Everything but its
    witness passes the loader's checks."""
    for lineno, line in enumerate(lines, start=1):
        inst = harness.record_to_instance(json.loads(line))
        g = inst.graph
        for k in range(g.n):
            if k in g.base_links:
                continue
            links = [i - (i > k) for i in g.base_links]
            lost = graph_from_coords(g.coords[:k] + g.coords[k + 1:], g.h, links, links,
                                     g.base_pos, g.frame)
            if not hamiltonian_audit(lost).feasible:
                return lineno, harness.instance_to_record(inst._replace(graph=lost))
    raise AssertionError("no cell's loss makes an instance infeasible")


def _far_cell_record() -> dict:
    """A record of cells (0, 0), (0, 1) and (10**6, 0), whose witness skips
    the far cell: it writes back unchanged, and its witness grades Fail."""
    g = graph_from_coords([(0, 0), (0, 1), (10**6, 0)], 1.0, [0, 1], [0, 1], Point(0.0, -3.0))
    morphology = MorphologyClass(label_from(0.5, 1.0), 0.5, 1.0)
    inst = Instance(0, "compact", morphology, g, (g.base_node, 0, 1, g.terminal_node))
    return harness.instance_to_record(inst)


def _relabel(path: Path, out: Path, lineno: int, **fields) -> Path:
    """Copy a JSON-Lines file, overwriting `fields` in record `lineno` (1-based)."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **fields})
    out.write_text("\n".join(lines) + "\n")
    return out


def _drop_md_column(md: str, col: str) -> str:
    """A markdown table without column `col` (unchanged if it has none)."""
    rows = [line[2:-2].split(" | ") for line in md.splitlines()]
    if col in rows[0]:
        k = rows[0].index(col)
        for row in rows:
            del row[k]
    return "".join(f"| {' | '.join(row)} |\n" for row in rows)


def _drop_column(csv_text: str, col: str) -> str:
    import csv
    import io

    rows = list(csv.DictReader(io.StringIO(csv_text)))
    for row in rows:
        row.pop(col, None)
    return json.dumps(rows)


def _not_utf8(path: Path, out: Path) -> Path:
    """A copy of the JSON-Lines file `path` with a 0xff byte inside its second line."""
    first, second, *rest = path.read_bytes().split(b"\n")
    out.write_bytes(b"\n".join([first, second[:5] + b"\xff" + second[5:], *rest]))
    return out


def _nested(path, out: Path) -> Path:
    """One line of 200,000 nested '[', deeper than the JSON parser recurses."""
    out.write_text("[" * 200_000 + "\n")
    return out


# Each spoiler, with the line its error names.
SPOILERS = [pytest.param(_not_utf8, 2, id="not-utf8"), pytest.param(_nested, 1, id="nested")]


def _assert_refused_in_one_line(code: int, capsys, names: str) -> None:
    """An I/O refusal: exit 2 and one `error:` line, naming `names`."""
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and names in err[0], err


class TestCli:
    def test_full_pipeline(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        res = tmp_path / "r.jsonl"
        rep = tmp_path / "rep"
        assert cli_main(["generate", "--count", "3", "--seed", "100",
                         "--out", str(data), "--workers", "1"]) == 0
        assert cli_main(["audit", "--dataset", str(data)]) == 0
        assert cli_main(["run", "--dataset", str(data), "--methods",
                         "warnsdorff-ti-index,boustrophedon", "--out", str(res),
                         "--workers", "1"]) == 0
        assert cli_main(["report", "--results", str(res), "--dataset", str(data),
                         "--out", str(rep), "--format", "markdown"]) == 0
        assert (rep / "feasibility.md").exists()

    def test_unknown_method_exit_code(self, dataset, tmp_path, capsys):
        path, _ = dataset
        code = cli_main(["run", "--dataset", str(path), "--methods", "astar",
                         "--out", str(tmp_path / "x.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert "valid:" in err

    def test_repeated_method_is_validation_error(self, dataset, tmp_path, capsys):
        path, _ = dataset
        out = tmp_path / "x.jsonl"
        code = cli_main(["run", "--dataset", str(path), "--methods", "morton,morton",
                         "--out", str(out), "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and "morton" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--workers", "-1"]], ids=["flag"])
    def test_bad_worker_count_is_validation_error(self, dataset, tmp_path, capsys, flag):
        path, _ = dataset
        code = cli_main(["run", "--dataset", str(path), "--out",
                         str(tmp_path / "x.jsonl"), *flag])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert "worker" in err[0].lower()

    def test_generate_refuses_an_out_that_is_a_directory_before_any_seed(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_build(*args):
            raise AssertionError("a seed was built for an --out that is a directory")

        monkeypatch.setattr(harness, "build_block", no_build)
        code = cli_main(["generate", "--count", "200", "--out", str(tmp_path),
                         "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and str(tmp_path) in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_run_refuses_an_out_that_is_a_directory_before_any_plan(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        def no_plan(*args):
            raise AssertionError("a plan ran for an --out that is a directory")

        monkeypatch.setattr(harness, "timed_plan", no_plan)
        path, _ = dataset
        code = cli_main(["run", "--dataset", str(path), "--out", str(tmp_path),
                         "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and str(tmp_path) in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spelling", ["same", "dotdot", "manifest"])
    def test_run_refuses_an_out_that_is_its_dataset(
        self, dataset, tmp_path, monkeypatch, capsys, spelling
    ):
        def no_plan(*args):
            raise AssertionError("a plan ran for an --out that is the dataset")

        monkeypatch.setattr(harness, "timed_plan", no_plan)
        path, _ = dataset
        data = tmp_path / "d.jsonl"
        manifest = Path(str(data) + ".manifest.json")
        data.write_bytes(path.read_bytes())
        manifest.write_bytes(Path(str(path) + ".manifest.json").read_bytes())
        out = {"same": str(data), "dotdot": str(tmp_path / ".." / tmp_path.name / data.name),
               "manifest": str(manifest)}[spelling]
        code = cli_main(["run", "--dataset", str(data), "--out", out, "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and out in err[0]
        assert data.read_bytes() == path.read_bytes()
        assert manifest.read_bytes() == Path(str(path) + ".manifest.json").read_bytes()
        assert sorted(tmp_path.iterdir()) == [data, manifest]

    @pytest.mark.parametrize(
        "flag, bad", [("--out", "afile"), ("--plots", "afile"), ("--plots", "afile/sub")]
    )
    def test_report_refuses_a_bad_directory_before_loading(
        self, dataset, results, tmp_path, monkeypatch, capsys, flag, bad
    ):
        def no_load(*args):
            raise AssertionError("the dataset was loaded for a bad report path")

        monkeypatch.setattr(harness, "load_instances", no_load)
        dpath, _ = dataset
        rpath, _ = results
        afile = tmp_path / "afile"
        afile.write_text("")
        paths = {"--out": tmp_path / "rep", "--plots": tmp_path / "plots", flag: tmp_path / bad}
        code = cli_main(["report", "--results", str(rpath), "--dataset", str(dpath),
                         "--out", str(paths["--out"]), "--plots", str(paths["--plots"])])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and str(afile) in err[0]
        assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == ""

    def test_default_workers_are_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert harness.resolve_workers(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness.resolve_workers(None) == 8

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = cli_main(["audit", "--dataset", str(tmp_path / "nope.jsonl")])
        assert code == 2

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size_band": [28, 46]}))
        data = tmp_path / "d.jsonl"
        assert cli_main(["generate", "--count", "2", "--seed", "7",
                         "--config", str(cfg), "--out", str(data),
                         "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 instances" in out

    def test_readme_config_example_is_the_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Generation config", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        assert json.loads(block) == GenerationConfig().to_dict()

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines()[-1] == "True"

    @pytest.mark.parametrize(
        "config, says",
        [
            ({"hex_raduis": 2.0}, "hex_raduis"),
            ({"size_band": [28, 46, 50]}, "size_band"),
            ({"size_band": 5}, "size_band"),
            ({"family_mix": [["compact"]]}, "family_mix"),
            ({"family_mix": [["coastal", 1.0]]}, "family_mix"),
            ({"audit_budget": 2000000}, "audit_budget"),
            ({"hex_radius": "nan"}, "hex_radius"),
            ([{"hex_radius": 1.0}], "JSON object"),
            # JSON values that Python would coerce to a valid config.
            ({"hex_radius": "1.0"}, "hex_radius"),
            ({"scale": True}, "scale"),
            ({"size_band": [True, 46]}, "size_band"),
            ({"family_mix": [["compact", "0.56"], ["irregular", 0.32], ["elongated", 0.12]]},
             "family_mix"),
            # Weights that sum to 1 (or compare as if they did) but are no shares.
            ({"family_mix": [["compact", 1.5], ["irregular", -0.5]]}, "family_mix"),
            ({"family_mix": [["compact", float("nan")], ["irregular", 1.0]]}, "family_mix"),
        ],
        ids=["unknown-key", "band-of-3", "band-int", "mix-pair", "mix-family",
             "budget-key", "radius-nan", "list", "radius-string", "scale-bool",
             "band-bool", "mix-weight-string", "mix-negative", "mix-nan"],
    )
    def test_bad_config_is_validation_error(
        self, tmp_path, monkeypatch, capsys, config, says
    ):
        def no_build(*args):
            raise AssertionError("generation started on a bad config")

        # Every seed is built through this name, in the command's process or
        # in a forked pool worker, which inherits the patch.
        monkeypatch.setattr(harness, "build_block", no_build)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        data = tmp_path / "d.jsonl"
        code = cli_main(["generate", "--count", "1", "--config", str(cfg),
                         "--out", str(data), "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and says in err[0]
        assert not data.exists()

    # numpy's RuntimeWarning on a non-finite ring would precede the error line.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e308, 1e-300], ids=["ring-inf", "area-zero"])
    def test_config_whose_shapes_are_degenerate_is_refused_in_one_line(
        self, tmp_path, capsys, scale
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scale": scale}))
        data = tmp_path / "d.jsonl"
        code = cli_main(["generate", "--count", "1", "--config", str(cfg),
                         "--out", str(data), "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and "degenerate 200" in err[0]
        assert not data.exists()

    # A cell area past the double range is refused by name; below it every
    # shape is degenerate. numpy's overflow warning in the clip, which once
    # preceded the error line from 2e154 up, fails the test here.
    LARGEST_FINITE_AREA_RADIUS = 8.318247473008161e153

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hex_radius", [
        1e150, 1e152, 1e153,
        *(float(f"{k}e152") for k in range(50, 201, 5)),
        LARGEST_FINITE_AREA_RADIUS, math.nextafter(LARGEST_FINITE_AREA_RADIUS, math.inf),
        3e154, 5e154, 7e154, 9e154, 1e155, 1e160, 1e200, 1e250, 1e300, 1e308,
    ])
    def test_huge_hex_radius_is_refused_in_one_line(self, tmp_path, capsys, hex_radius):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hex_radius": hex_radius}))
        data = tmp_path / "d.jsonl"
        code = cli_main(["generate", "--count", "1", "--config", str(cfg),
                         "--out", str(data), "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        if hex_radius > self.LARGEST_FINITE_AREA_RADIUS:
            assert "hex_radius" in err[0] and "not finite" in err[0]
        else:
            assert "degenerate 200" in err[0]
        assert not data.exists()

    @pytest.mark.parametrize(("spoil", "line"), SPOILERS)
    @pytest.mark.parametrize("command", ["audit", "run", "report"])
    def test_unparseable_dataset_is_refused_in_one_line(
        self, dataset, results, tmp_path, capsys, spoil, line, command
    ):
        bad = spoil(dataset[0], tmp_path / "bad.jsonl")
        # A results file without a manifest names no dataset digest, so
        # `report` gets as far as parsing the dataset.
        res = tmp_path / "r.jsonl"
        res.write_bytes(results[0].read_bytes())
        argv = {
            "audit": ["audit", "--dataset", str(bad)],
            "run": ["run", "--dataset", str(bad), "--out", str(tmp_path / "x.jsonl"),
                    "--workers", "1"],
            "report": ["report", "--results", str(res), "--dataset", str(bad),
                       "--out", str(tmp_path / "rep")],
        }[command]
        _assert_refused_in_one_line(cli_main(argv), capsys, f"{bad}:{line}:")

    @pytest.mark.parametrize(("spoil", "line"), SPOILERS)
    def test_unparseable_results_are_refused_in_one_line(
        self, dataset, results, tmp_path, capsys, spoil, line
    ):
        bad = spoil(results[0], tmp_path / "bad.jsonl")
        code = cli_main(["report", "--results", str(bad), "--dataset", str(dataset[0]),
                         "--out", str(tmp_path / "rep")])
        _assert_refused_in_one_line(code, capsys, f"{bad}:{line}:")

    def test_manifest_nested_too_deep_is_refused_in_one_line(self, dataset, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_bytes(dataset[0].read_bytes())
        manifest = _nested(data, Path(f"{data}.manifest.json"))
        code = cli_main(["audit", "--dataset", str(data)])
        _assert_refused_in_one_line(code, capsys, str(manifest))

    def test_config_nested_too_deep_is_refused_in_one_line(self, tmp_path, capsys):
        cfg = _nested(None, tmp_path / "cfg.json")
        data = tmp_path / "d.jsonl"
        code = cli_main(["generate", "--count", "1", "--config", str(cfg),
                         "--out", str(data), "--workers", "1"])
        _assert_refused_in_one_line(code, capsys, str(cfg))
        assert not data.exists()

    def test_audit_run_report_never_import_numpy(self, dataset, tmp_path):
        path, _ = dataset
        res, rep = tmp_path / "r.jsonl", tmp_path / "rep"
        code = """
import contextlib, io, sys
from hexcover.cli import main
data, res, rep = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit:
        pass
assert main(["audit", "--dataset", data]) == 0
assert main(["run", "--dataset", data, "--methods", "all", "--workers", "1",
             "--out", res]) == 0
assert main(["report", "--results", res, "--dataset", data, "--out", rep,
             "--strata", "morphology", "--plots", rep + "/plots"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""
        proc = run_python(code, str(path), str(res), str(rep), timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_each_command_imports_only_what_it_runs(self, dataset, tmp_path):
        data = str(dataset[0])
        code = """
import contextlib, io, json, sys
from hexcover.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

        def modules(*argv: str) -> set[str]:
            proc = run_python(code, *argv, timeout=120)
            assert proc.returncode == 0, proc.stderr
            exit_code, loaded = json.loads(proc.stdout)
            assert exit_code == 0
            return set(loaded)

        # No one-process command starts a pool or logs, and none builds a
        # dataclass. Only numpy, in `generate`, loads `inspect`; the exact
        # means need neither `statistics` nor the `fractions` it loads.
        unused = {"concurrent.futures.process", "multiprocessing", "logging", "dataclasses"}
        heavy = unused | {"inspect", "statistics", "fractions"}

        def ours(loaded: set[str]) -> set[str]:
            return {m for m in loaded if m.split(".")[0] == "hexcover"}

        # Every command but --help reads the instance model, whose grader
        # checks each record's witness; only generate compiles the
        # generation modules and the oracle. report names the methods by
        # their table and summarises with metrics; only run plans.
        model = {"hexcover", "hexcover.cli", "hexcover.harness", "hexcover.lattice"}
        summarise = model | {"hexcover.methods", "hexcover.metrics"}
        evaluate = summarise | {"hexcover.planners"}
        help_modules = modules("--help")
        assert ours(help_modules) == {"hexcover", "hexcover.cli"}
        assert not help_modules & heavy
        audit = modules("audit", "--dataset", data)
        assert ours(audit) == model
        assert not audit & heavy
        res = str(tmp_path / "r.jsonl")
        run = modules("run", "--dataset", data, "--methods", "all", "--workers", "1",
                      "--out", res)
        assert ours(run) == evaluate
        assert not run & heavy
        report = modules("report", "--results", res, "--dataset", data, "--strata",
                         "morphology", "--out", str(tmp_path / "rep"))
        assert ours(report) == summarise
        assert not report & heavy
        generate = modules("generate", "--count", "2", "--workers", "1",
                           "--out", str(tmp_path / "d.jsonl"))
        assert ours(generate) == model | {
            "hexcover.oracle", "hexcover.graphbuild", "hexcover.aoi", "hexcover.hexgeom"}
        assert not generate & unused

    def test_wrappers_set_over_harness_names_are_called(self, tmp_path):
        # What a tracer does: a bare import, then getattr and setattr over
        # each name it times. Every command's function calls the wrappers.
        code = """
import sys
import hexcover.harness as harness
names = ("timed_plan", "compute_path_metrics", "aggregate_summary",
         "record_to_instance", "build_block")
calls = dict.fromkeys(names, 0)
for name in names:
    def counted(*args, _real=getattr(harness, name), _name=name, **kwargs):
        calls[_name] += 1
        return _real(*args, **kwargs)
    setattr(harness, name, counted)
data, res, rep = sys.argv[1:]
harness.generate_dataset(3, 0, harness.GenerationConfig(), data, workers=1)
assert calls["build_block"] > 0, calls
harness.run_benchmark(data, "all", res, workers=1)
assert calls["timed_plan"] == calls["compute_path_metrics"] == 3 * 17, calls
harness.write_report(res, data, rep)
assert calls["record_to_instance"] == 2 * 3, calls
assert calls["aggregate_summary"] > 0, calls
"""
        proc = run_python(code, str(tmp_path / "d.jsonl"), str(tmp_path / "r.jsonl"),
                          str(tmp_path / "rep"), timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_every_exported_name_imports(self):
        code = """
import hexcover, importlib
assert len(hexcover.__all__) == sum(map(len, hexcover._EXPORTS.values()))
for name in hexcover.__all__:
    exec(f"from hexcover import {name}")
    module = importlib.import_module(f"hexcover.{hexcover._MODULE_OF[name]}")
    assert getattr(hexcover, name) is getattr(module, name), name
from hexcover import aoi
assert aoi.__name__ == "hexcover.aoi"
"""
        proc = run_python(code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    # `generate` in a fresh interpreter, then what it left: the OpenBLAS
    # thread count in its environment and the threads of its process.
    OPENBLAS_AFTER_GENERATE = """
import contextlib, io, json, os, sys
from hexcover.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""

    def test_generate_starts_no_openblas_thread(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        proc = run_python(self.OPENBLAS_AFTER_GENERATE, "generate", "--count", "2",
                          "--workers", "1", "--out", str(tmp_path / "d.jsonl"), timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, openblas, threads = json.loads(proc.stdout)
        assert code == 0
        assert openblas == "1"
        # OpenBLAS would start a thread per allowed CPU beyond the first.
        if threads is not None and len(harness._allowed_cpus()) >= 2:
            assert threads == 1

    def test_generate_keeps_a_preset_openblas_thread_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        data = tmp_path / "d.jsonl"
        proc = run_python(self.OPENBLAS_AFTER_GENERATE, "generate", "--count", str(N_SMALL),
                          "--seed", "0", "--workers", "1", "--out", str(data), timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, openblas, _ = json.loads(proc.stdout)
        assert (code, openblas) == (0, "3")
        assert hashlib.sha256(data.read_bytes()).hexdigest() == PINNED_DATASET_SHA256

    def test_generate_stops_when_no_seed_can_pass(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size_band": [1000, 2000]}))
        data = tmp_path / "d.jsonl"
        code = "import sys; from hexcover.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = run_python(code, "generate", "--count", "1", "--config", str(cfg),
                          "--out", str(data), "--workers", "2", timeout=60)
        err = proc.stderr.splitlines()
        assert proc.returncode == 1
        assert len(err) == 1 and err[0].startswith("error:") and "rejected" in err[0]
        assert f"seeds 0-{harness.MAX_CONSECUTIVE_REJECTIONS - 1} " in err[0]
        assert not data.exists()
        assert not Path(str(data) + ".manifest.json").exists()

    @pytest.mark.parametrize("command", ["audit", "run", "report"])
    def test_dataset_checked_against_manifest(
        self, dataset, results, tmp_path, capsys, command
    ):
        # The manifest is checked before any record is read: a relabelled
        # stratum, which the record's own round trip would refuse too, is
        # refused for its SHA-256.
        dpath, _ = dataset
        rpath, _ = results
        rec = json.loads(dpath.read_text().splitlines()[2])
        label = "Irregular" if rec["morphology"]["label"] != "Irregular" else "Compact"
        edited = _relabel(dpath, tmp_path / "d.jsonl", 3,
                          morphology={**rec["morphology"], "label": label})
        manifest = Path(str(dpath) + ".manifest.json").read_text()
        Path(str(edited) + ".manifest.json").write_text(manifest)
        argv = {
            "audit": ["audit", "--dataset", str(edited)],
            "run": ["run", "--dataset", str(edited), "--out", str(tmp_path / "r.jsonl")],
            "report": ["report", "--results", str(rpath), "--dataset", str(edited),
                       "--out", str(tmp_path / "rep")],
        }[command]
        code = cli_main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "SHA-256" in err[0]
        assert not (tmp_path / "r.jsonl").exists()
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("tamper", ["interior-link", "split-links"])
    @pytest.mark.parametrize("command", ["audit", "run", "report"])
    def test_links_attach_base_cannot_make_are_refused(
        self, dataset, results, tmp_path, capsys, command, tamper
    ):
        # With no manifest beside the file, only the record can show the
        # edit. Both edits add a link and drop none, so the instance stays
        # feasible and every stored walk grades as before.
        dpath, _ = dataset
        rpath, _ = results
        for lineno, line in enumerate(dpath.read_text().splitlines(), start=1):
            rec = json.loads(line)
            cells = [tuple(c[:2]) for c in rec["cells"]]
            boundary = exterior_boundary(set(cells))
            interior = [i for i, c in enumerate(cells) if c not in boundary]
            unlinked = [i for i, c in enumerate(cells)
                        if c in boundary and i not in rec["base_links"]]
            if interior and unlinked:
                break
        if tamper == "interior-link":
            links = sorted(rec["base_links"] + interior[:1])
            fields = {"base_links": links, "terminal_links": links}
        else:
            fields = {"terminal_links": sorted(rec["base_links"] + unlinked[:1])}
        edited = _relabel(dpath, tmp_path / "d.jsonl", lineno, **fields)
        res = tmp_path / "res.jsonl"
        res.write_bytes(rpath.read_bytes())
        argv = {
            "audit": ["audit", "--dataset", str(edited)],
            "run": ["run", "--dataset", str(edited), "--out", str(tmp_path / "r.jsonl")],
            "report": ["report", "--results", str(res), "--dataset", str(edited),
                       "--out", str(tmp_path / "rep")],
        }[command]
        code = cli_main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"instance {rec['id']}: " in err[0]
        assert not (tmp_path / "r.jsonl").exists()
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize(
        "tamper",
        ["dropped-edge", "moved-terminal", "repeated-cell", "reversed-links",
         "edge-out-of-range", "extra-key", "link-out-of-range", "radius-0",
         "relabelled-stratum", "edited-id", "repeated-id"],
    )
    @pytest.mark.parametrize("command", ["audit", "run-1", "run-2", "report"])
    def test_records_that_do_not_round_trip_are_refused(
        self, dataset, results, tmp_path, capsys, command, tamper
    ):
        # A record loads only if instance_to_record writes it back unchanged,
        # and only if no earlier record has its id. With no manifest beside
        # the file, only the records can show the edit.
        dpath, _ = dataset
        rpath, _ = results
        lineno, rec = next(
            (k, rec) for k, line in enumerate(dpath.read_text().splitlines(), start=1)
            if len((rec := json.loads(line))["base_links"]) > 1
        )
        n, edges, cells = len(rec["cells"]), rec["edges"], rec["cells"]
        # The repeated cell is the last cell again, as index n, joined to the
        # last cell's neighbours: its edges and links stay face-adjacent and
        # in range.
        last = [[min(e), n] for e in edges if n - 1 in e]
        label = "Irregular" if rec["morphology"]["label"] != "Irregular" else "Compact"
        fields = {
            "dropped-edge": {"edges": edges[1:]},
            "moved-terminal": {"terminal": [1e6, 1e6]},
            "repeated-cell": {"cells": [*cells, cells[-1]], "edges": edges + last},
            "reversed-links": {"base_links": rec["base_links"][::-1],
                               "terminal_links": rec["terminal_links"][::-1]},
            "edge-out-of-range": {"edges": [*edges, [0, n]]},
            "extra-key": {"note": "edited"},
            "link-out-of-range": {"base_links": [999], "terminal_links": [999]},
            "radius-0": {"hex_radius": 0.0},
            "relabelled-stratum": {"morphology": {**rec["morphology"], "label": label}},
            "edited-id": {"id": "hx9999999999"},
            "repeated-id": {},
        }[tamper]
        edited = _relabel(dpath, tmp_path / "d.jsonl", lineno, **fields)
        if tamper == "repeated-id":
            with edited.open("a") as fh:
                fh.write(json.dumps(rec) + "\n")
        res = tmp_path / "res.jsonl"
        res.write_bytes(rpath.read_bytes())
        run = ["run", "--dataset", str(edited), "--out", str(tmp_path / "r.jsonl")]
        argv = {
            "audit": ["audit", "--dataset", str(edited)],
            "run-1": [*run, "--workers", "1"],
            "run-2": [*run, "--workers", "2"],
            "report": ["report", "--results", str(res), "--dataset", str(edited),
                       "--out", str(tmp_path / "rep")],
        }[command]
        code = cli_main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"instance {fields.get('id', rec['id'])}: " in err[0]
        assert not (tmp_path / "r.jsonl").exists()
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize(
        "tamper, says",
        [("swapped-cells", "witness is not a walk of the graph: "),
         ("dropped-cell", "witness "),
         ("float-entry", "ill-typed field: 'witness' holds 3.0, not an integer"),
         ("bool-entry", "ill-typed field: 'witness' holds True, not an integer"),
         ("cell-lost", "witness is not a walk of the graph: "),
         ("revisited-cells", "witness grades CoverageSuccess, not HamiltonianSuccess")],
        ids=["swapped-cells", "dropped-cell", "float-entry", "bool-entry", "cell-lost",
             "revisited-cells"],
    )
    @pytest.mark.parametrize("command", ["audit", "run-1", "run-2", "report"])
    def test_record_whose_witness_is_no_hamiltonian_path_is_refused(
        self, dataset, seeds_0_47, results, tmp_path, capsys, command, tamper, says
    ):
        # With no manifest beside the file, only the record can show the
        # edit. 3.0 == 3 and True == 1, so the retyped entries write back
        # equal and grade as the integers would: only the type check can
        # refuse them.
        dpath, _ = seeds_0_47 if tamper == "cell-lost" else dataset
        lines = dpath.read_text().splitlines()
        if tamper == "cell-lost":
            lineno, rec = _lose_a_cell(lines)
        else:
            lineno = 2
            rec = json.loads(lines[lineno - 1])
            witness = rec["witness"]
            if tamper == "swapped-cells":
                k = len(witness) // 2
                witness[1], witness[k] = witness[k], witness[1]
            elif tamper == "dropped-cell":
                del witness[len(witness) // 2]
            elif tamper == "revisited-cells":
                # Back to the first cell and on again: a walk, but no path.
                witness[3:3] = witness[1:3]
            else:
                retyped = 3.0 if tamper == "float-entry" else True
                witness[witness.index(int(retyped))] = retyped
        edited = tmp_path / "d.jsonl"
        lines[lineno - 1] = json.dumps(rec)
        edited.write_text("\n".join(lines) + "\n")
        res = tmp_path / "res.jsonl"
        res.write_bytes(results[0].read_bytes())
        run = ["run", "--dataset", str(edited), "--methods", "morton",
               "--out", str(tmp_path / "r.jsonl")]
        argv = {
            "audit": ["audit", "--dataset", str(edited)],
            "run-1": [*run, "--workers", "1"],
            "run-2": [*run, "--workers", "2"],
            "report": ["report", "--results", str(res), "--dataset", str(edited),
                       "--out", str(tmp_path / "rep")],
        }[command]
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {edited}:{lineno}: instance {rec['id']}: {says}")
        assert not (tmp_path / "r.jsonl").exists()
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", ["audit", "run-1", "run-2", "report"])
    def test_record_with_a_far_off_cell_is_refused_by_its_witness(
        self, results, tmp_path, command
    ):
        # The exterior-boundary flood takes time with the cells' bounding
        # box, here a million columns wide. The witness check comes first
        # and refuses the record in time linear in its size.
        data = tmp_path / "far.jsonl"
        data.write_text(harness._dump_line(_far_cell_record()) + "\n")
        res = tmp_path / "res.jsonl"
        res.write_bytes(results[0].read_bytes())
        run = ["run", "--dataset", str(data), "--out", str(tmp_path / "r.jsonl")]
        argv = {
            "audit": ["audit", "--dataset", str(data)],
            "run-1": [*run, "--workers", "1"],
            "run-2": [*run, "--workers", "2"],
            "report": ["report", "--results", str(res), "--dataset", str(data),
                       "--out", str(tmp_path / "rep")],
        }[command]
        code = "import sys\nfrom hexcover.cli import main\nsys.exit(main(sys.argv[1:]))"
        proc = run_python(code, *argv, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error: {data}:1: instance hx0000000000: witness ")
        assert not (tmp_path / "r.jsonl").exists()
        assert not (tmp_path / "rep").exists()

    def test_loader_grades_the_witness_before_the_exterior_flood(self, monkeypatch):
        def flood(cells):
            raise AssertionError("the loader reached exterior_boundary")

        monkeypatch.setattr(harness, "exterior_boundary", flood)
        with pytest.raises(DatasetError, match="witness grades Fail, not HamiltonianSuccess"):
            harness.record_to_instance(_far_cell_record())

    @pytest.mark.parametrize(
        "tamper, literal",
        [("base", "Infinity"), ("base", "1e999"), ("hex_radius", "NaN"),
         ("frame-origin", "-Infinity"), ("frame-angle", "Infinity"),
         ("compactness", "Infinity"), ("aspect", "1e999")],
    )
    @pytest.mark.parametrize("command", ["audit", "run-1", "report"])
    def test_non_finite_record_numbers_are_refused(
        self, dataset, results, tmp_path, capsys, command, tamper, literal
    ):
        # Each number a record supplies must be finite. An infinite base
        # with the same terminal, or an infinite compactness or aspect with
        # the label it implies, writes back unchanged, so only the finiteness
        # check can refuse it. With no manifest beside the file, only the
        # record can show the edit.
        dpath, _ = dataset
        rpath, _ = results
        rec = json.loads(dpath.read_text().splitlines()[0])
        field, value = {
            "base": ("base", ["@", 0.0]),
            "hex_radius": ("hex_radius", "@"),
            "frame-origin": ("frame", {**rec["frame"], "origin": [0.0, "@"]}),
            "frame-angle": ("frame", {**rec["frame"], "angle": "@"}),
            "compactness": ("morphology", {**rec["morphology"], "compactness": "@",
                                           "label": "Compact", "aspect": 1.5}),
            "aspect": ("morphology", {**rec["morphology"], "aspect": "@",
                                      "label": "Elongated"}),
        }[tamper]
        fields = {field: value, **({"terminal": value} if field == "base" else {})}
        edited = _relabel(dpath, tmp_path / "d.jsonl", 1, **fields)
        edited.write_text(edited.read_text().replace('"@"', literal))
        res = tmp_path / "res.jsonl"
        res.write_bytes(rpath.read_bytes())
        argv = {
            "audit": ["audit", "--dataset", str(edited)],
            "run-1": ["run", "--dataset", str(edited), "--out", str(tmp_path / "r.jsonl"),
                      "--workers", "1"],
            "report": ["report", "--results", str(res), "--dataset", str(edited),
                       "--out", str(tmp_path / "rep")],
        }[command]
        code = cli_main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        if command != "run-1":  # `run` reads each record in the task that plans it
            assert err[0].startswith(f"error: {edited}:1: ")
        assert f"instance {rec['id']}: " in err[0]
        assert err[0].endswith(f"is {float(literal)!r}, not a finite number")
        assert not (tmp_path / "r.jsonl").exists()
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize(
        "field, retype",
        [("seed", float), ("hex_radius", lambda value: True), ("hex_radius", int)],
        ids=["seed-float", "radius-bool", "radius-int"],
    )
    @pytest.mark.parametrize("command", ["audit", "run-1", "run-2", "report"])
    def test_retyped_record_scalar_is_refused(
        self, dataset, results, tmp_path, capsys, command, field, retype
    ):
        # The same value, retyped: 1 == 1.0 and True == 1.0, so the record
        # writes back equal, and only the type check can refuse it. With no
        # manifest beside the file, only the record can show the edit.
        dpath, _ = dataset
        rpath, _ = results
        rec = json.loads(dpath.read_text().splitlines()[1])
        assert retype(rec[field]) == rec[field]
        edited = _relabel(dpath, tmp_path / "d.jsonl", 2, **{field: retype(rec[field])})
        res = tmp_path / "res.jsonl"
        res.write_bytes(rpath.read_bytes())
        run = ["run", "--dataset", str(edited), "--methods", "morton",
               "--out", str(tmp_path / "r.jsonl")]
        argv = {
            "audit": ["audit", "--dataset", str(edited)],
            "run-1": [*run, "--workers", "1"],
            "run-2": [*run, "--workers", "2"],
            "report": ["report", "--results", str(res), "--dataset", str(edited),
                       "--out", str(tmp_path / "rep")],
        }[command]
        code = cli_main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(f"error: {edited}:2: instance {rec['id']}: ill-typed field: ")
        assert f"{field!r} is {retype(rec[field])!r}" in err[0]
        assert not (tmp_path / "r.jsonl").exists()
        assert not (tmp_path / "rep").exists()

    def test_manifest_schema_checked(self, dataset, tmp_path, capsys):
        dpath, _ = dataset
        copy = tmp_path / "d.jsonl"
        copy.write_bytes(dpath.read_bytes())
        manifest = json.loads(Path(str(dpath) + ".manifest.json").read_text())
        manifest["version"] = "hexcover-dataset/1"
        Path(str(copy) + ".manifest.json").write_text(json.dumps(manifest))
        code = cli_main(["audit", "--dataset", str(copy)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and "schema 'hexcover-dataset/1'" in err[0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stage", ["timed_plan", "compute_path_metrics"])
    def test_raising_planner_or_metric_is_one_error_line(
        self, dataset, tmp_path, monkeypatch, capsys, stage, workers
    ):
        dpath, _ = dataset
        victim = json.loads(dpath.read_text().splitlines()[3])
        real = getattr(harness, stage)

        def faulty(graph, *args):
            if list(graph.base_pos) == victim["base"]:
                raise ZeroDivisionError("injected fault")
            return real(graph, *args)

        # Pool workers must inherit the patched name.
        _fork_pools(monkeypatch)
        monkeypatch.setattr(harness, stage, faulty)
        out = tmp_path / "r.jsonl"
        code = cli_main(["run", "--dataset", str(dpath), "--methods", "morton",
                         "--out", str(out), "--workers", str(workers)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"instance {victim['id']}" in err[0] and "ZeroDivisionError" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_uncreatable_out_fails_before_any_work(
        self, dataset, tmp_path, monkeypatch, capsys, command
    ):
        dpath, _ = dataset
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "x.jsonl")
        started = []

        def work(*args):
            started.append(args)
            raise AssertionError("work started")

        # generate builds every seed; run plans every cell.
        if command == "generate":
            monkeypatch.setattr(harness, "build_block", work)
            argv = ["generate", "--count", "3", "--out", out, "--workers", "1"]
        else:
            monkeypatch.setattr(harness, "timed_plan", work)
            argv = ["run", "--dataset", str(dpath), "--out", out, "--workers", "1"]
        code = cli_main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and str(blocker) in err[0]
        assert started == []

    def test_run_writes_results_manifest(self, dataset, results):
        (dpath, manifest), (rpath, _) = dataset, results
        on_disk = json.loads(Path(str(rpath) + ".manifest.json").read_text())
        assert on_disk == {"version": "hexcover-results/1", "dataset_sha256": manifest.sha256}

    def test_report_refuses_results_of_another_dataset(self, dataset, results, tmp_path, capsys):
        # The edited copy carries a fresh manifest of its own, so only the
        # results manifest can tell that the results were run on another file.
        dpath, _ = dataset
        rpath, _ = results
        rec = json.loads(dpath.read_text().splitlines()[0])
        family = "compact" if rec["family_hint"] != "compact" else "irregular"
        edited = _relabel(dpath, tmp_path / "d.jsonl", 1, family_hint=family)
        manifest = json.loads(Path(str(dpath) + ".manifest.json").read_text())
        manifest["sha256"] = hashlib.sha256(edited.read_bytes()).hexdigest()
        Path(str(edited) + ".manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["audit", "--dataset", str(edited)]) == 0
        capsys.readouterr()
        code = cli_main(["report", "--results", str(rpath), "--dataset", str(edited),
                         "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "SHA-256" in err[0]
        assert not (tmp_path / "rep").exists()


# `main` under the start method named by argv[1], then the command line.
# Run with -c, a spawned worker has no main module to run again.
UNDER_START_METHOD = """
import multiprocessing, sys
from hexcover.cli import main
multiprocessing.set_start_method(sys.argv[1])
sys.exit(main(sys.argv[2:]))
"""


@pytest.fixture(scope="module")
def seeds_0_11(tmp_path_factory):
    """The dataset of seeds from 0 with 12 instances and its results, both at 1 worker."""
    root = tmp_path_factory.mktemp("twelve")
    data, res = root / "d.jsonl", root / "r.jsonl"
    generate_dataset(12, 0, GenerationConfig(), data, workers=1)
    run_benchmark(data, "all", res, workers=1)
    return data, res


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pools_give_the_one_worker_bytes_under_every_start_method(seeds_0_11, tmp_path, method):
    # A worker that is not forked from the command imports harness afresh,
    # so its tasks bind what they use themselves.
    ref_data, ref_res = seeds_0_11
    data, res = tmp_path / "d.jsonl", tmp_path / "r.jsonl"
    proc = run_python(UNDER_START_METHOD, method, "generate", "--count", "12", "--seed", "0",
                      "--out", str(data), "--workers", "2", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert data.read_bytes() == ref_data.read_bytes()
    manifest = Path(str(data) + ".manifest.json").read_bytes()
    assert manifest == Path(str(ref_data) + ".manifest.json").read_bytes()
    proc = run_python(UNDER_START_METHOD, method, "run", "--dataset", str(ref_data),
                      "--out", str(res), "--workers", "2", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert results_digest(res) == results_digest(ref_res)


def _fork_pools(monkeypatch) -> None:
    """Make `harness` start its pools by fork, so that the workers inherit
    what a test patches whatever the default start method is."""
    fork_pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
    )
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fork_pool)


# The masks a forked pool worker passed to os.sched_setaffinity, in call
# order, and the barrier that holds each of the first tasks until every
# worker has taken one of them, so that every worker returns its calls.
_AFFINITY_CALLS: list[tuple[int, ...]] = []
_EVERY_WORKER = None


def _affinity_calls(task: int) -> tuple[int, list[tuple[int, ...]]]:
    if task < _EVERY_WORKER.parties:
        _EVERY_WORKER.wait(timeout=60)
    return os.getpid(), _AFFINITY_CALLS


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="places workers on 2 or more CPUs",
)
@pytest.mark.parametrize("workers, one_cpu", [(2, False), (3, False), (2, True)])
def test_pool_workers_are_placed_round_robin_on_the_allowed_cpus(monkeypatch, workers, one_cpu):
    real = os.sched_setaffinity
    start = os.sched_getaffinity(0)
    allowed = sorted(start)[-1:] if one_cpu else sorted(start)

    def recording(pid, mask):
        _AFFINITY_CALLS.append(tuple(sorted(mask)))
        real(pid, mask)

    _fork_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_setaffinity", recording)
    monkeypatch.setattr(sys.modules[__name__], "_EVERY_WORKER",
                        multiprocessing.get_context("fork").Barrier(workers))
    real(0, set(allowed))
    try:
        calls = dict(harness._in_order(_affinity_calls, range(4 * workers), workers))
    finally:
        real(0, start)
    assert len(calls) == workers
    # Each worker is moved onto one CPU, then given back the allowed set.
    assert all(len(c) == 2 and len(c[0]) == 1 and c[1] == tuple(allowed) for c in calls.values())
    firsts = sorted(c[0] for c in calls.values())
    assert firsts == sorted((allowed[k % len(allowed)],) for k in range(workers))


@pytest.mark.parametrize("unplaceable", ["refused", "missing"])
def test_a_worker_that_cannot_be_placed_runs_where_it_is(
    seeds_0_11, tmp_path, monkeypatch, unplaceable
):
    tried = tmp_path / "tried"

    def refuse(pid, mask):
        with open(tried, "a") as f:
            f.write(f"{os.getpid()}\n")
        raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

    _fork_pools(monkeypatch)
    if unplaceable == "refused":
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    data = tmp_path / "d.jsonl"
    code = cli_main(["generate", "--count", "12", "--seed", "0", "--out", str(data),
                     "--workers", "2"])
    assert code == 0
    assert data.read_bytes() == seeds_0_11[0].read_bytes()
    if unplaceable == "refused":
        assert len(set(tried.read_text().split())) == 2


def _live_group(pgid: int) -> dict[int, int]:
    """The parent PID of each process of group `pgid` that has not exited
    (zombies have exited), by PID."""
    group = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # the process ended while the table was read
        state, ppid, group_id = stat[stat.rindex(")") + 2:].split()[:3]
        if int(group_id) == pgid and state != "Z":
            group[int(entry.name)] = int(ppid)
    return group


def _pool_workers(pgid: int) -> list[int]:
    """The live pool workers of the command that leads group `pgid`: the
    processes of the group that are the parent of none of the others (a fork
    server is the parent of its workers), but for multiprocessing's resource
    tracker."""
    group = _live_group(pgid)
    parents = set(group.values())
    workers = []
    for pid in group.keys() - parents - {pgid}:
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            workers.append(pid)
    return workers


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table in /proc")
def test_pool_workers_exit_when_generate_is_killed(tmp_path):
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for method in multiprocessing.get_all_start_methods():
        argv = [sys.executable, "-c", UNDER_START_METHOD, method, "generate", "--count", "1000",
                "--out", str(tmp_path / f"{method}.jsonl"), "--workers", "2"]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                env=dict(os.environ, PYTHONPATH=path), start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(_pool_workers(proc.pid)) < 2:
                assert time.monotonic() < deadline, f"the {method} pool workers never started"
                time.sleep(0.1)
            proc.kill()  # SIGKILL to the command alone: it can clean nothing up
            proc.wait(timeout=10)
            # The workers, and any fork server or resource tracker with them.
            deadline = time.monotonic() + 5
            while _live_group(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert _live_group(proc.pid) == {}, f"{method} pool workers outlived generate"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)
