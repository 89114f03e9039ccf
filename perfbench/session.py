"""One benchmark process: import emplab, build the config, then time runs.

    python3 perfbench/session.py --workload W --seed S --probe
    python3 perfbench/session.py --workload W --seed S --out DIR \
        --result FILE --seconds T [--trace]

``--probe`` prints the CLOCK_MONOTONIC time at which the fresh interpreter
has imported emplab, numpy and scipy and built and validated the config,
i.e. just before ``harness.run`` would start, and exits.

Otherwise the process calls ``emplab.harness.run`` in a closed loop, one
call at a time: ``MIN_REPS`` repetitions (``MIN_REPS_TRACED`` with
``--trace``), then more while the next one, judged by the length of the
last, still ends within ``--seconds``.
Repetition ``k`` runs the config of ``workloads.make_config(W, S, k)``: untraced, once at ``workers=1`` and
once at ``workers=2`` (alternating which goes first); with ``--trace``,
untraced and traced at one worker and traced at two.  Every run writes to
its own directory under ``--out``, which is removed after its CSV is
hashed and ``summarize`` has checked it.  The raw record of every run goes
to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import emplab  # noqa: E402
from emplab import harness  # noqa: E402

import workloads  # noqa: E402

MIN_REPS = 5  # enough for a median (see workloads.WALL_SUMMARY)
MIN_REPS_TRACED = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }


def unconverged_share(experiment: str, csv_text: str) -> float:
    """Recovery: unconverged BP + LASSO solves over solves.  Gelfand: share of
    r_G / r_X fixed points not confident.  Other experiments: 0."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if experiment == "recovery":
        solves = 2 * sum(int(r["trials"]) for r in rows)
        bad = sum(int(r["bp_unconverged"]) + int(r["lasso_unconverged"]) for r in rows)
        return bad / solves
    if experiment == "gelfand":
        cells = {r["cell"]: r for r in rows}.values()
        flags = [int(r[k]) for r in cells for k in ("r_G_confident", "r_X_confident")]
        return flags.count(0) / len(flags)
    return 0.0


def timed_run(config_dict: dict, out_dir: Path, workers: int) -> dict:
    """One ``harness.run`` call: its wall time and a record of what it wrote."""
    config = harness.ExperimentConfig.from_dict({**config_dict, "output_dir": str(out_dir)})
    start = time.perf_counter()
    manifest = harness.run(config, workers=workers)
    wall = time.perf_counter() - start
    record = {"workers": workers, "wall_s": wall, "failed_trials": manifest.failed,
              "rows": manifest.rows, "criteria": [], "integrity_error": None}
    try:
        record["criteria"] = [c["status"] for c in harness.summarize(out_dir).criteria]
    except harness.IntegrityError as exc:
        record["integrity_error"] = repr(exc)
    csv_bytes = (out_dir / f"{config.experiment}.csv").read_bytes()
    summary = json.loads((out_dir / "summary.json").read_text())
    record.update(
        csv_sha256=hashlib.sha256(csv_bytes).hexdigest(),
        cells=summary["cells"],
        trials=summary["trials"],
        unconverged_share=unconverged_share(config.experiment, csv_bytes.decode("utf-8")),
    )
    shutil.rmtree(out_dir)
    return record


def measure(workload: str, seed: int, scale: str, out: Path, seconds: float,
            trace: bool) -> list[dict]:
    """Repetitions of the closed loop; each holds one record per run."""
    if trace:
        from spans import Tracer, layer_metrics, parent_metrics

        tracer = Tracer()
        plan = [("w1", 1, False), ("w1_traced", 1, True), ("w2_traced", 2, True)]
    else:
        plan = [("w1", 1, False), ("w2", 2, False)]
    min_reps = MIN_REPS_TRACED if trace else MIN_REPS
    reps = []
    start = last = time.perf_counter()
    # stop before a repetition that would end past ``seconds``, judged by the last one
    while len(reps) < min_reps or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        k = len(reps)
        config = workloads.make_config(workload, seed, k, scale)
        runs = {}
        for key, workers, traced in (plan if k % 2 == 0 else plan[::-1]):
            if traced:
                tracer.install()
            try:
                record = timed_run(config, out / f"r{k}_{key}", workers)
            finally:
                spans = tracer.uninstall() if traced else None
            if traced:
                record["layers"] = layer_metrics(spans) if workers == 1 else parent_metrics(spans)
            runs[key] = record
        reps.append({"master_seed": config["master_seed"], "experiment": config["experiment"],
                     "runs": runs})
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--scale", default="full", choices=workloads.SCALES)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    config = workloads.make_config(args.workload, args.seed, 0, args.scale)
    harness.ExperimentConfig.from_dict({**config, "output_dir": "."})
    if args.probe:
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    reps = measure(args.workload, args.seed, args.scale, Path(args.out), args.seconds,
                   args.trace)
    result = {
        "reps": reps,
        "self_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "environment": environment(),
        "emplab_file": emplab.__file__,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
