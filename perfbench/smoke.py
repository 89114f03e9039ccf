"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --scale tiny`` untraced and traced and
checks that the command succeeds, that the result line holds exactly the
metrics ``BENCHMARK.json`` names, each with its unit, and that the table
above it shows every end-to-end quantity of the benchmark's definition.
It then traces one tiny run in-process and checks that the self times add
up to no more than the traced wall time and that uninstalling the tracer
restores every wrapped function.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402
import workloads  # noqa: E402

# printed by every untraced run, in the table or in the result line
TABLE = ("setup_s", "wall_s.w1", "wall_s.w2", "scaling.w2", "peak_rss_mb",
         "failed_share", "unconverged_share", "criteria_pass_share")


def _check(cond: bool, what: str) -> None:
    if not cond:
        print(f"smoke: FAIL {what}")
        sys.exit(1)


def check_command(workload: str, trace: int, declared: dict[str, str]) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    _check(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    _check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    _check(result["correct"] is True and result["failed"] == 0, f"{where}: not correct")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    _check(got == declared, f"{where}: metrics {sorted(got)} != declared {sorted(declared)}")
    if not trace:
        table = {line.split()[0]: line.split()[-1] for line in lines[2:-1]}
        for name in TABLE:
            _check(name in table, f"{where}: table lacks {name}")
    print(f"smoke: ok {where}")


def check_tracer() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from emplab import harness, recovery

    original = recovery.basis_pursuit
    tracer = spans.Tracer()
    out = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    config = {**workloads.make_config("bp-phase", 7, 0, "tiny"), "output_dir": str(out)}
    tracer.install()
    _check(harness.basis_pursuit is not original, "harness.basis_pursuit not wrapped")
    try:
        start = time.perf_counter()
        harness.run(harness.ExperimentConfig.from_dict(config), workers=1)
        wall = time.perf_counter() - start
    finally:
        recorded = tracer.uninstall()
        shutil.rmtree(out)
        try:
            out.parent.rmdir()
        except OSError:
            pass
    _check(harness.basis_pursuit is original and recovery.basis_pursuit is original,
           "uninstall left a wrapper in place")
    metrics = spans.layer_metrics(recorded)
    _check(metrics["recovery.basis_pursuit.calls"] > 0, "no basis_pursuit span")
    _check(metrics["trace.self_sum_s"] <= wall, "self times exceed the traced wall time")
    print("smoke: ok tracer")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    _check(per_layer == {n: spans.unit(n) for n in spans.PER_LAYER},
           "BENCHMARK.json per_layer differs from spans.PER_LAYER")
    for workload in workloads.WORKLOADS:
        check_command(workload, 0, end_to_end)
        check_command(workload, 1, per_layer)
    check_tracer()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
