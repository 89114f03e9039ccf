"""The ``lab`` command line: batch experiments, summaries, selftest.

    lab <experiment> --config <file.json> [--seed <u64>] [--out <dir>] [--workers k]
    lab summarize <dir>
    lab selftest

``--seed`` and ``--out`` override the config's master_seed / output_dir.
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

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

    sub.add_parser("selftest", help="run the built-in invariant suite")
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


def _selftest() -> int:
    """Quick invariant suite: seconds, not the full pytest acceptance run."""
    from . import geometry, process, recovery
    from .distributions import DistributionSpec, NoiseSpec, empirical_p_norm, sample_batch
    from .harness import config_hash

    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        failures += int(not ok)
        print(f"{status} {name}" + (f" ({detail})" if detail else ""))

    rng = np.random.default_rng(7)

    # support-function symmetry for every family
    for spec in (
        geometry.l1_ball(8),
        geometry.l2_ball(8, 2.0),
        geometry.sparse_cap(8, 3),
        geometry.l1_cap_l2(8, 1.0, 0.5),
        geometry.permutation_polytope(rng.standard_normal(8)),
    ):
        rep = geometry.unconditionality_check(spec, trials=50, seed_path=(11,))
        check(f"unconditional {spec.label()}", rep.passed)

    # sorted-weight inner product equals brute force over signed permutations
    from itertools import permutations

    w = rng.standard_normal(5)
    z = rng.standard_normal(5)
    spec = geometry.permutation_polytope(w)
    brute = max(
        float(np.abs(np.array(p) * z).sum()) for p in permutations(np.abs(w))
    )
    check("permutation polytope brute force", abs(geometry.support(spec, z) - brute) < 1e-10)

    # l1/l2 intersection against the plain l1 and l2 bounds
    spec = geometry.l1_cap_l2(6, 1.0, 0.7)
    zs = rng.standard_normal((200, 6))
    h = geometry.support_batch(spec, zs)
    bound = np.minimum(np.abs(zs).max(axis=1), 0.7 * np.linalg.norm(zs, axis=1))
    check("l1_cap_l2 <= min bound", bool(np.all(h <= bound + 1e-12)))

    # scale equivariance of the moment-growth norm (power-of-two factor)
    samples = rng.standard_normal(500)
    a = empirical_p_norm(samples, 8).value
    b = empirical_p_norm(4.0 * samples, 8).value
    check("p-norm scale equivariance", b == 4.0 * a)

    # event A_u arithmetic
    check("A_u trivial", process.check_A_u(np.zeros(10), 3.0, 1.0, 2.0))
    check("A_u violated", not process.check_A_u(np.array([10.0]), 3.0, 1.0, 2.0))

    # one-dimensional lasso closed form
    N = 50
    col = np.full(N, 1.0)
    prob = recovery.RecoveryProblem(col[:, None], 0.8 * col, np.array([0.8]), 1, lam=0.3)
    res = recovery.lasso(prob)
    check("lasso 1-d soft threshold", abs(res.v_hat[0] - (0.8 - 0.15)) < 1e-9)

    # basis pursuit on an identity system
    prob = recovery.RecoveryProblem(np.eye(4), np.array([1.0, -2.0, 0.0, 3.0]),
                                    np.array([1.0, -2.0, 0.0, 3.0]), 4)
    res = recovery.basis_pursuit(prob)
    check("basis pursuit identity", float(np.abs(res.v_hat - prob.y).max()) < 1e-9)

    # an instance the dual certificate proves is one basis pursuit recovers
    Gamma = np.random.default_rng(21).standard_normal((24, 48))
    v0 = np.zeros(48)
    v0[[3, 17, 30]] = [1.0, -1.0, 1.0]
    res = recovery.basis_pursuit(recovery.RecoveryProblem(Gamma, Gamma @ v0, v0, 3))
    check("certified instance recovered by basis pursuit",
          recovery.certifies_recovery(Gamma, v0) and recovery.recovery_success(res, v0))

    # determinism of a sampled batch
    spec_x = DistributionSpec("student_t", 16, tail_param=6.0)
    noise = NoiseSpec("symmetric_pareto", q0=3.0)
    b1 = sample_batch(spec_x, noise, 32, (123, 0))
    b2 = sample_batch(spec_x, noise, 32, (123, 0))
    check("batch determinism", bool(np.array_equal(b1.X, b2.X) and np.array_equal(b1.xi, b2.xi)))

    # config hash stability under key reordering
    c1 = ExperimentConfig.from_json(
        '{"experiment":"widths","grids":{"sets":[{"family":"l1_ball","dim":4}]},'
        '"trials":1,"master_seed":5,"output_dir":"x"}'
    )
    c2 = ExperimentConfig.from_json(
        '{"master_seed":5,"output_dir":"x","trials":1,'
        '"grids":{"sets":[{"family":"l1_ball","dim":4}]},"experiment":"widths"}'
    )
    check("config hash key-order invariant", config_hash(c1) == config_hash(c2))

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failure(s)")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "summarize":
        return _summarize(args)
    if args.command == "selftest":
        return _selftest()
    return _run_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
