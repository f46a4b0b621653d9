"""Command-line front-end: generate / audit / run / report.

Exit codes: 0 success, 1 validation failure (infeasible dataset, unknown
method, incomplete matrix, bad config, a planner or metric that raised), 2 I/O
failure (missing or unreadable files, parse errors, a dataset that does not
match its manifest).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from hexcover.graphbuild import GenerationConfig
from hexcover.harness import (
    DatasetError,
    EvaluationError,
    audit_dataset,
    generate_dataset,
    run_benchmark,
    write_report,
)
from hexcover.hexgeom import InvalidParameterError
from hexcover.metrics import IncompleteMatrixError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _load_config(path: str | None) -> GenerationConfig:
    if path is None:
        return GenerationConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DatasetError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise DatasetError(f"config {path} is not valid JSON: {exc}") from exc
    return GenerationConfig.from_dict(raw)


def _cmd_generate(args) -> int:
    config = _load_config(args.config)
    manifest = generate_dataset(
        args.count, args.seed, config, args.out, workers=args.workers
    )
    print(f"wrote {manifest.count} instances to {args.out}")
    print(f"seeds scanned: {manifest.seeds_scanned}")
    for reason, n in manifest.rejections.items():
        print(f"rejected {reason}: {n}")
    for label, n in manifest.morphology_counts.items():
        print(f"morphology {label}: {n}")
    print(f"sha256: {manifest.sha256}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    report = audit_dataset(args.dataset)
    print(f"instances: {report['total']}")
    print(f"feasible: {report['feasible']}")
    for iid in report["infeasible_ids"]:
        print(f"INFEASIBLE: {iid}")
    if report["infeasible_ids"]:
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_run(args) -> int:
    methods = args.methods.split(",") if args.methods != "all" else "all"
    records = run_benchmark(args.dataset, methods, args.out, workers=args.workers)
    print(f"wrote {len(records)} result records to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    written = write_report(
        args.results,
        args.dataset,
        args.out,
        fmt=args.format,
        strata=args.strata,
        plots_dir=args.plots,
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcover",
        description="Coverage path planning benchmark on irregular hexagonal graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an audited instance dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file with generation parameters")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("audit", help="re-run the exact feasibility oracle")
    p.add_argument("--dataset", required=True)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("run", help="evaluate methods on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--methods", default="all", help="'all' or comma-separated names")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("report", help="emit summary tables and plots")
    p.add_argument("--results", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.add_argument("--strata", choices=["morphology"], default=None)
    p.add_argument("--plots", default=None)
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidParameterError, IncompleteMatrixError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
