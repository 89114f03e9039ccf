"""Experiment configs for the four benchmark workloads.

A config is a function of (workload, seed, repetition) alone: repetition
``rep`` of a benchmark run gets the master seed ``rep_seed(seed, rep)``,
so the repetitions of one run draw different problem instances and the
run's summaries (``WALL_SUMMARY``) average over instances as well as over
timing noise.
``scale="tiny"`` gives the same grids shrunk for the smoke run; it still
keeps every criterion of ``emplab.harness.summarize`` evaluable (no
``insufficient-data``).
"""

from __future__ import annotations

import copy
import hashlib
import statistics

# experiment, grids and trials per workload, at full and at tiny scale
_WORKLOADS = {
    # demo gelfand grid with fewer trials and width draws; >= 20 trials per
    # cell so that the kernel-diameter criterion is evaluated
    "gelfand": {
        "full": {
            "experiment": "gelfand",
            "grids": {
                "sets": [{"family": "l1_ball", "dim": 128, "rho": 1.0}],
                "m": [40, 80],
                "x_family": ["gaussian", "student_t"],
                "nu": 6.0,
                "gamma": 1.0,
                "fp_tol": 0.005,
                "width_draws": 100,
                "probes": 50,
            },
            "trials": 20,
        },
        "tiny": {
            "experiment": "gelfand",
            "grids": {
                "sets": [{"family": "l1_ball", "dim": 32, "rho": 1.0}],
                "m": [8],
                "x_family": ["gaussian", "student_t"],
                "nu": 6.0,
                "gamma": 1.0,
                "fp_tol": 0.05,
                "width_draws": 50,
                "probes": 20,
            },
            "trials": 20,
        },
    },
    # demo recovery grid (N >= n) with fewer trials.  Not in BENCHMARK.json:
    # its workers=2 wall time is bimodal from process to process (BLAS
    # oversubscription in forked workers), so no bound holds it; run by hand.
    "recovery": {
        "full": {
            "experiment": "recovery",
            "grids": {
                "n": [256],
                "s": [2, 4, 8],
                "N": [256, 1024, 4096],
                "x_family": ["student_t"],
                "noise_family": "symmetric_pareto",
                "q0": 3.0,
                "c1": 2.0,
            },
            "trials": 1,
        },
        "tiny": {
            "experiment": "recovery",
            "grids": {
                "n": [32],
                "s": [2],
                "N": [64, 128, 256],
                "x_family": ["student_t"],
                "noise_family": "symmetric_pareto",
                "q0": 3.0,
                "c1": 2.0,
            },
            "trials": 2,
        },
    },
    # recovery at N < n, swept through the basis-pursuit phase transition
    "bp-phase": {
        "full": {
            "experiment": "recovery",
            "grids": {
                "n": [128],
                "s": [4],
                "N": [12, 18, 24, 30, 36, 42, 48],
                "x_family": ["student_t"],
                "noise_family": "symmetric_pareto",
                "q0": 3.0,
                "c1": 2.0,
            },
            "trials": 3,
        },
        "tiny": {
            "experiment": "recovery",
            "grids": {
                "n": [32],
                "s": [2],
                "N": [8, 12, 16],
                "x_family": ["student_t"],
                "noise_family": "symmetric_pareto",
                "q0": 3.0,
                "c1": 2.0,
            },
            "trials": 2,
        },
    },
    # the demo multiplier config
    "multiplier": {
        "full": {
            "experiment": "multiplier",
            "grids": {
                "n": [64, 256, 1024],
                "N": [256],
                "x_family": ["student_t"],
                "noise_family": ["symmetric_pareto"],
                "q0": 3.0,
                "u_grid": [2, 4, 8],
                "set": {"family": "l1_ball", "rho": 1.0},
                "width_draws": 20000,
            },
            "trials": 100,
        },
        "tiny": {
            "experiment": "multiplier",
            "grids": {
                "n": [16, 64],
                "N": [64],
                "x_family": ["student_t"],
                "noise_family": ["symmetric_pareto"],
                "q0": 3.0,
                "u_grid": [2, 4, 8],
                "set": {"family": "l1_ball", "rho": 1.0},
                "width_draws": 500,
            },
            "trials": 5,
        },
    },
}

WORKLOADS = tuple(_WORKLOADS)
SCALES = ("full", "tiny")

# How a run sums up the wall times of its repetitions.  On bp-phase a few
# unconverged ADMM solves make the cost of an instance set heavy-tailed, so
# the mean over repetitions varies least from seed to seed; multiplier's
# repetitions vary little either way.  On gelfand the instance sets cost
# about the same, but now and then a workers=2 run takes twice as long
# (OpenBLAS threads of the two pool workers oversubscribe the cores), and
# the median ignores those runs where the mean does not.  recovery's
# workers=2 times are bimodal, so it takes the median too.
WALL_SUMMARY = {
    "gelfand": statistics.median,
    "recovery": statistics.median,
    "bp-phase": statistics.fmean,
    "multiplier": statistics.fmean,
}


def rep_seed(seed: int, rep: int) -> int:
    """64-bit master seed of repetition ``rep`` of a run with ``seed``."""
    digest = hashlib.sha256(f"{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def make_config(workload: str, seed: int, rep: int, scale: str = "full") -> dict:
    """The config dict of repetition ``rep`` of ``workload`` under ``seed``.

    ``output_dir`` is left for the caller to set per run.
    """
    config = copy.deepcopy(_WORKLOADS[workload][scale])
    config["master_seed"] = rep_seed(seed, rep)
    return config
