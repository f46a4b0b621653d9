"""Command-line front-end: generate / audit / run / report.

Exit codes: 0 success, 1 validation failure (unknown method, incomplete
matrix, bad config, a planner or metric that raised), 2 I/O failure (missing
or unreadable files, parse errors, a dataset that does not match its
manifest, a record whose witness does not certify it feasible).

This module imports the rest of the package only after the arguments parse,
and each command imports what it runs, so `--help` and a usage error load
nothing but `argparse` and this module.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _load_config(path: str | None):
    from hexcover.graphbuild import GenerationConfig
    from hexcover.harness import DatasetError, _parse_json

    if path is None:
        return GenerationConfig()
    try:
        raw = _parse_json(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DatasetError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise DatasetError(f"config {path} is not valid JSON: {exc}") from exc
    return GenerationConfig.from_dict(raw)


def _cmd_generate(args) -> int:
    from hexcover.harness import generate_dataset

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
    from hexcover.harness import audit_dataset

    report = audit_dataset(args.dataset)
    print(f"instances: {report['total']}")
    print(f"feasible: {report['feasible']}")
    return EXIT_OK


def _cmd_run(args) -> int:
    from hexcover.harness import run_benchmark

    methods = args.methods.split(",") if args.methods != "all" else "all"
    count = run_benchmark(args.dataset, methods, args.out, workers=args.workers)
    print(f"wrote {count} result records to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    from hexcover.harness import write_report

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

    p = sub.add_parser("audit", help="check every record's Hamiltonian witness")
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
    from hexcover.harness import DatasetError, EvaluationError
    from hexcover.lattice import IncompleteMatrixError, InvalidParameterError

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
