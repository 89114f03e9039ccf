"""emplab benchmark: time to a checksummed result at 1 and 2 workers.

    python3 perfbench/run.py --workload gelfand --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  The configs are generated from the seed (see
``workloads.py``) and every run writes under ``.perfbench_work/`` in the
checkout, which is removed on exit.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: set-up time of a fresh interpreter (median of
``SETUP_PROBES``), the wall time of ``harness.run`` at one and at two
workers summed up over the repetitions (mean or median, per workload: see
``workloads.WALL_SUMMARY``), the ratio of the two summed up the same way
over the repetitions, peak RSS, and the share of tasks completed.  With
``--trace 1`` it holds the per-layer metrics of a traced run instead (see
``spans.py``).  The lines before it give the environment and a table that
also shows the failed, unconverged and criteria-pass shares.

Correctness: within a repetition every run's CSV must be byte-identical
(the same config at either worker count, traced or not), ``summarize``
must verify its checksums and decide its criteria, and the expected rows
must be present.  A failed trial or a dropped cell counts its tasks as
failed; a CSV mismatch or an integrity error counts the run's tasks as
failed.  Any failure makes the command exit 1.  Without ``src/emplab`` it
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SESSION = Path(__file__).resolve().parent / "session.py"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3
DEADLINE_S = 170.0  # whole command, set-up probes included
PROBE_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _run_child(cmd: list[str], timeout: float) -> str:
    """Run ``cmd`` in its own session; kill the whole group if it overruns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with {proc.returncode}")
    return out


def setup_times(session_args: list[str]) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = _run_child(session_args + ["--probe"], PROBE_TIMEOUT_S)
        times.append(float(out.strip().splitlines()[-1]) - start)
    return times


def _tasks(run: dict) -> int:
    return run["cells"] * run["trials"]


def check_rep(rep: dict) -> tuple[int, list[str]]:
    """Failed tasks over the runs of one repetition, and what went wrong."""
    failed, problems = 0, []
    reference = next(iter(rep["runs"].values()))["csv_sha256"]
    row_per_cell = rep["experiment"] == "recovery"
    for key, run in rep["runs"].items():
        where = f"seed {rep['master_seed']} {key}"
        bad = []
        if run["integrity_error"]:
            bad.append(f"summarize: {run['integrity_error']}")
        if run["csv_sha256"] != reference:
            bad.append("CSV differs from the other run of the same config")
        if bad:
            failed += _tasks(run)
            problems += [f"{where}: {b}" for b in bad]
            continue
        dropped = {f["cell"] for f in run["failed_trials"]}
        failed += len(dropped) * run["trials"]
        if dropped:
            problems.append(f"{where}: cells dropped after failed trials: {sorted(dropped)}")
        if "insufficient-data" in run["criteria"]:
            problems.append(f"{where}: summarize reports insufficient-data")
        rows = run["cells"] if row_per_cell else _tasks(run)
        if run["rows"] != rows:
            problems.append(f"{where}: {run['rows']} rows, expected {rows}")
        if "layers" in run and run["workers"] == 1:
            self_sum = run["layers"]["trace.self_sum_s"]
            if self_sum > run["wall_s"] + 1e-6:
                problems.append(f"{where}: self times sum to {self_sum} s > wall {run['wall_s']} s")
    return failed, problems


def criteria_pass_share(run: dict) -> float:
    decided = [s for s in run["criteria"] if s in ("pass", "fail")]
    if not decided:
        raise BenchError("summarize decided no criterion")
    return decided.count("pass") / len(decided)


def _median_over(reps: list[dict], value) -> float:
    return statistics.median(value(rep["runs"]) for rep in reps)


def end_to_end(workload: str, result: dict, setup: list[float], failed: int,
               attempted: int) -> dict[str, tuple[float, str]]:
    reps = result["reps"]
    summary = workloads.WALL_SUMMARY[workload]
    w1 = [rep["runs"]["w1"]["wall_s"] for rep in reps]
    w2 = [rep["runs"]["w2"]["wall_s"] for rep in reps]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s.w1": (summary(w1), "s"),
        "wall_s.w2": (summary(w2), "s"),
        # paired within each repetition, whose two runs are back to back, so
        # that a slow spell of the shared machine cancels out of the ratio
        "scaling.w2": (summary([a / b for a, b in zip(w1, w2)]), "x"),
        "peak_rss_mb": ((result["self_maxrss_kb"] + result["children_maxrss_kb"]) / 1024, "MB"),
        "completed_share": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(result: dict, failed_per_rep: list[int]) -> dict[str, tuple[float, str]]:
    reps = result["reps"]
    values = spans.median_metrics([rep["runs"]["w1_traced"]["layers"] for rep in reps])
    values.update(spans.median_metrics([rep["runs"]["w2_traced"]["layers"] for rep in reps]))
    values["harness.tasks"] = _tasks(reps[0]["runs"]["w1"])
    values["harness.tasks_failed"] = statistics.median(
        n / len(rep["runs"]) for n, rep in zip(failed_per_rep, reps))
    values["trace_overhead"] = _median_over(
        reps, lambda r: r["w1_traced"]["wall_s"] / r["w1"]["wall_s"] - 1.0)
    values.update(result_shares(result))
    return {name: (values.get(name, 0), spans.unit(name)) for name in spans.PER_LAYER}


def result_shares(result: dict) -> dict[str, float]:
    """Medians over repetitions of what the results say about the numerics."""
    reps = result["reps"]
    return {
        "results.unconverged_share": _median_over(reps, lambda r: r["w1"]["unconverged_share"]),
        "results.criteria_pass_share": _median_over(
            reps, lambda r: criteria_pass_share(r["w1"])),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: str, work: Path) -> int:
    started = time.monotonic()
    session_args = [sys.executable, str(SESSION), "--workload", workload, "--seed", str(seed),
                    "--scale", scale]
    setup = [] if trace else setup_times(session_args)
    result_path = work / "result.json"
    _run_child(
        session_args + ["--out", str(work / "runs"), "--result", str(result_path),
                        "--seconds", repr(seconds)] + (["--trace"] if trace else []),
        DEADLINE_S - (time.monotonic() - started),
    )
    result = json.loads(result_path.read_text())
    if not Path(result["emplab_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"emplab was imported from {result['emplab_file']}, not from src/")

    reps = result["reps"]
    failed_per_rep, problems = [], []
    for rep in reps:
        n, why = check_rep(rep)
        failed_per_rep.append(n)
        problems += why
    attempted = sum(_tasks(run) for rep in reps for run in rep["runs"].values())
    failed = sum(failed_per_rep)

    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(f"workload {workload} seed {seed} ({reps[0]['experiment']}, {scale}): "
          f"{len(reps)} repetitions of {', '.join(reps[0]['runs'])}")
    if trace:
        metrics = table = per_layer(result, failed_per_rep)
    else:
        metrics = end_to_end(workload, result, setup, failed, attempted)
        shares = result_shares(result)
        table = {**metrics, "failed_share": (failed / attempted, "ratio"),
                 "unconverged_share": (shares["results.unconverged_share"], "ratio"),
                 "criteria_pass_share": (shares["results.criteria_pass_share"], "ratio")}
    for name, (value, unit) in table.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=workloads.SCALES,
                        help="'tiny' shrinks every grid for a smoke run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emplab" / "harness.py").is_file():
        print(f"error: no emplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
