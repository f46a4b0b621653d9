import builtins
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hexcover import harness
from hexcover.cli import main as cli_main
from hexcover.graphbuild import GenerationConfig, exterior_boundary
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
from hexcover.hexgeom import InvalidParameterError
from hexcover.metrics import STATUS_HAMILTONIAN
from hexcover.planners import METHOD_ORDER

N_SMALL = 6

# SHA-256 of the N_SMALL dataset bytes and of its sorted non-latency result
# lines (the rule of perfbench/checks.results_digest). A refactor must leave
# both as they are; a change to what is generated, planned or measured moves
# them on purpose and updates them here.
PINNED_DATASET_SHA256 = "767a2c7f82c32fd75df44a02278f2e8c2b5c9e09bd684bfd3d5982230b73e1c4"
PINNED_RESULTS_DIGEST = "075151f3394d0a1fb8b79c61f5c69797471990608759eb1eebde6d57a31914c6"
# SHA-256 of the 40 instances admitted from seeds 0-47 (two seeds infeasible,
# six outside the size band, several with obstacle holes): every geometry
# stage from sampling to base attachment, checked byte for byte.
PINNED_SEEDS_0_47_SHA256 = "81bee7c5c5cec3e45208f0428ae6068588d4c5d097649bdf7c8a9f7f1c33d08d"
# SHA-256 of the markdown report (`--strata morphology`) of all 17 methods on
# that dataset; quality.md and warnsdorff.md are hashed without their
# latency_mean_ms column, the one number that differs between runs.
PINNED_SEEDS_0_47_REPORT_SHA256 = {
    "feasibility.md": "d40fccb79b468a5ac9d757d0d653fe6de3a9df539f2cedc5445ebf95e8646f76",
    "morphology.md": "a481a177ea2657201ec29868b8545b192f301ab64b2f92f0495a63c415dae3fd",
    "quality.md": "6b2f3eb55860980073d8be6dc3505d27c7c4c61ef0be1875c0705a79d72282c4",
    "warnsdorff.md": "d6b3f5982a69e39f13bc2f5cf5df259d9374f446b4de868f57275e49bf536519",
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
    records = run_benchmark(path, "all", out, workers=1)
    return out, records


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

    def test_size_band_and_audit_flags(self, dataset):
        path, _ = dataset
        instances = load_instances(path)
        assert len(instances) == N_SMALL
        for inst in instances:
            assert 28 <= inst.graph.n <= 46
            assert inst.audited_feasible

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
        assert report["infeasible_ids"] == []

    def test_mutated_dataset_detected(self, dataset, tmp_path, capsys):
        path, _ = dataset
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        # Isolate cell 0: the graph becomes disconnected, hence infeasible.
        rec["edges"] = [e for e in rec["edges"] if 0 not in e]
        mutated = tmp_path / "mutated.jsonl"
        mutated.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        code = cli_main(["audit", "--dataset", str(mutated)])
        out = capsys.readouterr().out
        assert code == 1
        assert rec["id"] in out

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


class TestRun:
    def test_cardinality(self, results):
        _, records = results
        assert len(records) == N_SMALL * 17
        methods = {r.method for r in records}
        assert methods == set(METHOD_ORDER)

    def test_worker_independence_modulo_latency(self, dataset, results, tmp_path):
        path, _ = dataset
        _, rec1 = results
        rec2 = run_benchmark(path, "all", tmp_path / "r2.jsonl", workers=2)

        def strip(recs):
            return [
                (r.instance_id, r.method, r.status, r.walk, r.revisits,
                 r.distance_norm, r.turns_rad)
                for r in recs
            ]

        assert strip(rec1) == strip(rec2)

    def test_hamiltonian_records_have_zero_revisits(self, results):
        _, records = results
        seen = 0
        for r in records:
            if r.status == STATUS_HAMILTONIAN:
                assert r.revisits == 0
                seen += 1
        assert seen > 0

    def test_records_sorted(self, results):
        _, records = results
        keys = [(r.instance_id, r.method) for r in records]
        assert keys == sorted(keys)

    def test_unknown_method_listed(self, dataset):
        path, _ = dataset
        with pytest.raises(InvalidParameterError, match="boustrophedon"):
            run_benchmark(path, ["not-a-method"], None)

    def test_subset_of_methods(self, dataset, tmp_path):
        path, _ = dataset
        records = run_benchmark(
            path, ["warnsdorff-ti-index", "morton"], tmp_path / "sub.jsonl"
        )
        assert len(records) == N_SMALL * 2

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


class TestFileBoundary:
    def test_pinned_dataset_and_results_digests(self, dataset, results):
        path, manifest = dataset
        rpath, _ = results
        assert manifest.sha256 == PINNED_DATASET_SHA256
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DATASET_SHA256
        rows = sorted(
            json.dumps(
                {k: v for k, v in json.loads(line).items() if k != "latency_ms"},
                sort_keys=True, separators=(",", ":"),
            )
            for line in rpath.read_text().splitlines()
        )
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == PINNED_RESULTS_DIGEST

    def test_pinned_dataset_of_seeds_0_to_47(self, seeds_0_47):
        _, manifest = seeds_0_47
        assert manifest.seeds_scanned == 48
        assert manifest.rejections == {"infeasible": 2, "size-band": 6}
        assert manifest.sha256 == PINNED_SEEDS_0_47_SHA256

    def test_pinned_report_of_seeds_0_to_47(self, seeds_0_47, tmp_path):
        dpath, _ = seeds_0_47
        rpath, out = tmp_path / "r.jsonl", tmp_path / "rep"
        run_benchmark(dpath, "all", rpath, workers=1)
        write_report(rpath, dpath, out, strata="morphology")
        digests = {
            name: hashlib.sha256(
                _drop_md_column((out / name).read_text(), "latency_mean_ms").encode()
            ).hexdigest()
            for name in PINNED_SEEDS_0_47_REPORT_SHA256
        }
        assert digests == PINNED_SEEDS_0_47_REPORT_SHA256

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
        [("edges", None, "missing field 'edges'"), ("cells", 5, "ill-typed field")],
        ids=["no-edges", "int-cells"],
    )
    def test_malformed_record_is_one_error_line(
        self, dataset, tmp_path, capsys, command, field, value, says
    ):
        dpath, _ = dataset
        lines = dpath.read_text().splitlines()
        rec = json.loads(lines[1])
        if value is None:
            del rec[field]
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

    def test_unaudited_instance_rejected(self, dataset, tmp_path):
        dpath, _ = dataset
        bad = _relabel(dpath, tmp_path / "unaudited.jsonl", 1, audited_feasible=False)
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
        off_base = next(i for i in range(g.n) if not g.is_edge(g.base_node, i))
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
        methods = sorted({r.method for r in records}, key=METHOD_ORDER.index)
        summary = {r.method: r for r in aggregate_summary(records, methods)}
        from hexcover.planners import PLANNERS

        display_to_slug = {PLANNERS[s].display: s for s in PLANNERS}
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

    @pytest.mark.parametrize(
        "env, flag", [("abc", []), (None, ["--workers", "-1"])], ids=["env", "flag"]
    )
    def test_bad_worker_count_is_validation_error(
        self, dataset, tmp_path, monkeypatch, capsys, env, flag
    ):
        path, _ = dataset
        if env is None:
            monkeypatch.delenv("HEXCOVER_WORKERS", raising=False)
        else:
            monkeypatch.setenv("HEXCOVER_WORKERS", env)
        code = cli_main(["run", "--dataset", str(path), "--out",
                         str(tmp_path / "x.jsonl"), *flag])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert "worker" in err[0].lower()

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
        ],
        ids=["unknown-key", "band-of-3", "band-int", "mix-pair", "mix-family",
             "budget-key", "radius-nan", "list"],
    )
    def test_bad_config_is_validation_error(
        self, tmp_path, monkeypatch, capsys, config, says
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("generation started on a bad config")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        data = tmp_path / "d.jsonl"
        code = cli_main(["generate", "--count", "1", "--config", str(cfg),
                         "--out", str(data), "--workers", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and says in err[0]
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
        # A relabelled stratum still parses and is still audited feasible:
        # only the manifest's SHA-256 can tell the file was edited.
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

        # The pool forks its workers, so they inherit the patched name.
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

        # generate builds seeds only in its pool; run plans every cell.
        if command == "generate":
            monkeypatch.setattr(harness, "_pool", work)
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
        # The relabelled copy carries a fresh manifest of its own, so only the
        # results manifest can tell that the results were run on another file.
        dpath, _ = dataset
        rpath, _ = results
        rec = json.loads(dpath.read_text().splitlines()[0])
        label = "Irregular" if rec["morphology"]["label"] != "Irregular" else "Compact"
        edited = _relabel(dpath, tmp_path / "d.jsonl", 1,
                          morphology={**rec["morphology"], "label": label})
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


def _live_group_members(pgid: int) -> list[int]:
    """PIDs of the processes of group `pgid` that have not exited (zombies
    have exited)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # the process ended while the table was read
        state, _ppid, group = stat[stat.rindex(")") + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table in /proc")
def test_pool_workers_exit_when_generate_is_killed(tmp_path):
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "hexcover.cli", "generate", "--count", "1000",
            "--out", str(tmp_path / "d.jsonl"), "--workers", "2"]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            env=dict(os.environ, PYTHONPATH=path), start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(_live_group_members(proc.pid)) < 3:  # the command and its 2 workers
            assert time.monotonic() < deadline, "the pool workers never started"
            time.sleep(0.1)
        proc.kill()  # SIGKILL to the command alone: it can clean nothing up
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while _live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_group_members(proc.pid) == [], "pool workers outlived generate"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
