"""The ``lab`` command line: batch experiments and their summaries.

    lab <experiment> --config <file.json> [--seed <u64>] [--out <dir>] [--workers k]
    lab summarize <dir>

``--seed`` and ``--out`` override the config's master_seed / output_dir.
A run sets its own process up (BLAS threads, allocator): see ``harness.run``.
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ._version import __version__
from .distributions import ConfigurationError
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    IntegrityError,
    dropped_cells,
    run,
    summarize,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Batch experiments on heavy-tailed multiplier processes, "
        "mean widths, sparse recovery and random kernel sections.",
    )
    parser.add_argument("--version", action="version", version=f"lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment grid")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes (>= 1)")

    p = sub.add_parser("summarize", help="aggregate a results directory")
    p.add_argument("results_dir", help="directory containing manifest.json")
    return parser


def _run_experiment(args) -> int:
    try:
        config = ExperimentConfig.from_json(Path(args.config).read_text())
        # an override passes the same checks as the file's value
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=args.out)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, or bytes that are not UTF-8
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if config.experiment != args.command:
        print(
            f"config error: config is for {config.experiment!r}, "
            f"command was {args.command!r}",
            file=sys.stderr,
        )
        return 2

    try:
        manifest = run(config, workers=args.workers)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(manifest.to_dict(), sort_keys=True, indent=1))
    if manifest.failed:
        print(
            f"runtime failure: {len(manifest.failed)} task(s) failed; "
            f"cells dropped from the CSV: {dropped_cells(manifest.failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _summarize(args) -> int:
    try:
        report = summarize(args.results_dir)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    for line in report.format_lines():
        print(line)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "summarize":
        return _summarize(args)
    return _run_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
