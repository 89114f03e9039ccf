"""Batch experiment runner: config, seeded parallel trials, artifacts.

Five experiments (``widths``, ``multiplier``, ``recovery``, ``gelfand``,
``moments``) share one execution model: a config defines a grid of cells,
and cells that differ only in the keys an experiment nests inside one
sample form a sample group.  Each (group, trial) is a pure function of
(config, master_seed, the group's first cell index, trial index), and so
is a group's shared work of (config, master_seed, cell indices); both
return one record per member cell, and the records are aggregated into
CSV rows per cell in a fixed order.  Reruns with the same config and seed
produce byte-identical CSVs at any worker count, because seeds derive from
indices and rows are merged in deterministic key order.

Artifacts per run: ``<experiment>.csv`` (canonical formatting: fixed
column order, repr floats, '.' decimal, '\\n' newlines), ``summary.json``
(derived, deterministic) and ``manifest.json`` (config hash, version,
timestamps, per-file checksums, seed ledger, workers, BLAS threads, peak
RSS and the Python and numpy versions).
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import pickle
import platform
import resource
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np

from ._version import __version__
from .distributions import (
    ConfigurationError,
    DistributionSpec,
    NoiseSpec,
    canonical_heavy_tail_spec,
    moment_growth_profile,
)
from .gelfand import kernel_section_diameters, r_G_fixed_points, r_X_fixed_points
from .geometry import (
    gaussian_mean_width,
    gaussian_mean_widths,
    gaussian_width,
    index_set_from_dict,
    l1_ball,
    l2_ball,
)
from .process import DEFAULT_U_GRID, multiplier_sums, ratio_statistic, stats_from_sums
from .recovery import (
    DEFAULT_LASSO_C1,
    basis_pursuit,  # noqa: F401  unused here; perfbench/smoke.py checks its span wraps this name
    bp_recovers,
    rate_penalty,
    lasso,
    make_recovery_problems,
)


class IntegrityError(RuntimeError):
    """A result file does not match its recorded checksum."""


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    """One batch run: experiment name, parameter grids, trials, seed, output."""

    experiment: str
    grids: dict
    trials: int
    master_seed: int
    output_dir: str

    def __post_init__(self):
        # the checks of from_dict, the constructor and dataclasses.replace alike; no
        # conversions: 2.7 trials, grids as a list of pairs or a null output_dir is a mistake
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        _integer(self.trials, "trials", 0)
        if _integer(self.master_seed, "master_seed", 0) >= 2**64:
            raise ConfigurationError("master_seed must fit in 64 bits")
        if not isinstance(self.grids, dict):
            raise ConfigurationError(f"grids must be an object, got {self.grids!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigurationError(f"output_dir must be a string, got {self.output_dir!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(d).__name__}")
        keys = sorted(f.name for f in dataclasses.fields(cls))
        unknown = sorted(set(d) - set(keys))
        if unknown:
            raise ConfigurationError(f"unknown config keys {unknown}; the keys are {keys}")
        grids = d.get("grids", {})
        try:
            return cls(experiment=d["experiment"],
                       # the config's own copy: a later edit of d does not reach it
                       grids=dict(grids) if isinstance(grids, dict) else grids,
                       trials=d["trials"], master_seed=d["master_seed"],
                       output_dir=d.get("output_dir", "results"))
        except KeyError as exc:
            raise ConfigurationError(f"config missing required key: {exc.args[0]}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 of the canonical (sorted-keys) JSON form, key-order invariant.

    The output directory is excluded: two runs of the same experiment to
    different locations are the same content.
    """
    d = config.to_dict()
    d.pop("output_dir")
    canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# experiment adapters
#
# An adapter is the whole definition of one experiment:
#   cells(config)                      -> list of cell dicts, each with every spec
#                                         its tasks need (ConfigurationError if the
#                                         config names none, or has a grid key it
#                                         does not read); the one reader of
#                                         config.grids and of each default
#   nested                             -> the cell keys that nest inside one
#                                         sample (default ()): cells that agree
#                                         on every other key form a group, which
#                                         runs as one task per trial, and one for
#                                         its shared work; with () every group
#                                         is one cell.  gelfand nests ("m",),
#                                         recovery ("s", "N", "lam"); the
#                                         others nest nothing
#   trial(config, group, ti)           -> one per-trial record per member cell of
#                                         group, a list of (ci, cell); with the
#                                         default rows, a record is the list of
#                                         the cell's rows
#   cell(config, group)                -> optional shared record per member cell,
#                                         shared by the cell's rows (None: no
#                                         shared work); with the default rows, a
#                                         dict of columns
#   rows(cell, ci, records, cell_result)
#                                      -> list of CSV row dicts; the default
#                                         puts cell, trial and the cell's columns
#                                         on every row of every trial
#   criteria(rows)                     -> data-level pass/fail checks on the CSV
#   columns                            -> CSV header; without a "trial"
#                                         column the rows are per cell
#   group, values                      -> summary aggregation: the columns to
#                                         group rows by and the ones to summarize

def _grids(config, *keys: str) -> dict:
    """config.grids, if it has no key outside keys; else ConfigurationError.

    A misspelt knob would otherwise run at its default without a word.
    """
    unknown = sorted(set(config.grids) - set(keys))
    if unknown:
        raise ConfigurationError(f"unknown {config.experiment} grid keys {unknown}; "
                                 f"the keys are {sorted(keys)}")
    return config.grids


def _integer(value, name: str, least: int) -> int:
    """value, if it is an integer >= least; else ConfigurationError."""
    # type() rather than isinstance(): a bool is no count
    if type(value) is not int or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _number(value, name: str):
    """value, if it is a finite number > 0; else ConfigurationError."""
    if type(value) not in (int, float) or not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be a finite number > 0, got {value!r}")
    return value


def _axis(grids: dict, key: str, least: int | None = None) -> list:
    """grids[key], one axis of the cell grid: a nonempty list, of integers >= least if given."""
    values = grids.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigurationError(f"grids.{key} must be a nonempty list, got {values!r}")
    return values if least is None else [_integer(v, key, least) for v in values]


def _x_spec(family, n: int, nu) -> DistributionSpec:
    """The coordinate law of X on R^n; nu (None: the family's default) is its tail parameter."""
    if nu is not None:
        _number(nu, "nu")
    elif family == "student_t":
        return canonical_heavy_tail_spec(n)
    elif family == "symmetric_pareto":
        nu = 4.0
    elif family == "symmetric_weibull":
        nu = 1.0
    return DistributionSpec(family, n, tail_param=nu)


class _Adapter:
    nested = ()
    cell = None

    @staticmethod
    def rows(cell, ci, records, cell_result):
        shared = cell_result or {}
        return [{"cell": ci, "trial": ti, **shared, **row} for ti, rows in records for row in rows]


class _WidthsAdapter(_Adapter):
    columns = ["cell", "trial", "family", "n", "r", "mean", "stderr", "draws", "d2", "D"]
    group = ["family", "n", "r"]
    values = ["mean", "stderr", "D"]

    @staticmethod
    def cells(config):
        g = _grids(config, "sets", "radii", "draws")
        radii = g.get("radii", [None])
        # type() rather than isinstance(): a bool is no radius
        if not (isinstance(radii, list) and radii and all(
                r is None or (type(r) in (int, float) and 0 < r < math.inf) for r in radii)):
            raise ConfigurationError("widths radii must be a nonempty list of nulls and "
                                     f"finite numbers > 0, got {radii!r}")
        draws = _integer(g.get("draws", 10000), "draws", 2)
        return [{"set": index_set_from_dict(s), "radii": tuple(radii), "draws": draws}
                for s in _axis(g, "sets")]

    @staticmethod
    def trial(config, group, ti):
        [(ci, cell)] = group
        spec = cell["set"]
        ests = gaussian_mean_widths(spec, cell["draws"], cell["radii"],
                                    (config.master_seed, ci, ti))
        return [[{
            "family": spec.label(),
            "n": spec.dim,
            "r": r,
            "mean": est.mean,
            "stderr": est.std_error,
            "draws": est.draws,
            "d2": est.d2,
            "D": est.complexity_ratio,
        } for r, est in zip(cell["radii"], ests)]]

    @staticmethod
    def criteria(rows: list[dict]) -> list[dict]:
        # a ball's width at a null radius is known exactly (geometry.gaussian_width):
        # the mean over trials lies within 4 pooled standard errors of it
        balls = {"l1_ball": l1_ball, "l2_ball": l2_ball}
        by_cell: dict[int, list[dict]] = {}
        for r in rows:
            if not isinstance(r["r"], (int, float)):
                by_cell.setdefault(r["cell"], []).append(r)
        crits = []
        for ci, rs in sorted(by_cell.items()):
            family, n = rs[0]["family"], rs[0]["n"]
            ball = balls.get(family.split("(")[0])
            if ball is None:
                continue
            exact = gaussian_width(ball(n, rs[0]["d2"]))
            mean = float(np.mean([r["mean"] for r in rs]))
            se = math.sqrt(sum(r["stderr"] ** 2 for r in rs)) / len(rs)
            crits.append({
                "name": f"ball_width_exact cell{ci} {family} n={n}",
                "status": "pass" if abs(mean - exact) <= 4.0 * se else "fail",
                "detail": f"mean {mean:.5f}, exact {exact:.5f}: {(mean - exact) / se:+.2f} se "
                          "(allowed 4)",
            })
        return crits or [{
            "name": "ball_width_exact",
            "status": "insufficient-data",
            "detail": "need an l1_ball or l2_ball at a null radius",
        }]


class _MultiplierAdapter(_Adapter):
    columns = [
        "cell", "trial", "n", "N", "x_family", "noise_family", "u_grid",
        "A_u", "sup_centred", "sup_symmetrized", "C_hat", "ratio",
    ]
    group = ["n", "N", "x_family", "noise_family"]
    values = ["sup_centred", "sup_symmetrized", "C_hat", "ratio"]

    @staticmethod
    def cells(config):
        g = _grids(config, "n", "N", "x_family", "noise_family", "set", "nu", "q0", "u_grid",
                   "width_draws")
        set_dict = g.get("set", {"family": "l1_ball", "rho": 1.0})
        if not isinstance(set_dict, dict):
            raise ConfigurationError(f"multiplier set must be an object, got {set_dict!r}")
        if "dim" in set_dict:
            raise ConfigurationError(f"multiplier set takes its dim from n, got {set_dict!r}")
        u_grid = g.get("u_grid", list(DEFAULT_U_GRID))
        if not isinstance(u_grid, list) or not all(_number(u, "u") >= 2 for u in u_grid):
            raise ConfigurationError(f"multiplier u_grid must be a list of u >= 2, got {u_grid!r}")
        knobs = {"u_grid": tuple(float(u) for u in u_grid),
                 "width_draws": _integer(g.get("width_draws", 20000), "width_draws", 2)}
        q0 = float(_number(g.get("q0", 3.0), "q0"))
        noises = [NoiseSpec(nf, q0=q0) for nf in _axis(g, "noise_family")]
        return [{"set": index_set_from_dict({**set_dict, "dim": n}), "N": N,
                 "x": _x_spec(xf, n, g.get("nu")), "noise": noise, **knobs}
                for n, N, xf, noise in product(_axis(g, "n", 1), _axis(g, "N", 1),
                                               _axis(g, "x_family"), noises)]

    @staticmethod
    def trial(config, group, ti):
        [(ci, cell)] = group
        sums = multiplier_sums(cell["x"], cell["noise"], cell["N"], (config.master_seed, ci, ti))
        stats = stats_from_sums(sums, cell["set"], cell["noise"], u_grid=cell["u_grid"])
        return [{
            "A_u": "|".join(str(int(stats.A_u_holds[u])) for u in cell["u_grid"]),
            "sup_centred": stats.sup_centred,
            "sup_symmetrized": stats.sup_symmetrized,
            "C_hat": stats.envelope_constant,
        }]

    @staticmethod
    def cell(config, group):
        [(ci, cell)] = group
        # l*(V): exact for the two balls, else a Monte-Carlo estimate
        width = gaussian_width(cell["set"])
        if width is None:
            path = (config.master_seed, ci, 1_000_000)
            width = gaussian_mean_width(cell["set"], cell["width_draws"], seed_path=path).mean
        return [width]

    @staticmethod
    def rows(cell, ci, records, width):
        return [{
            "cell": ci,
            "trial": ti,
            "n": cell["set"].dim,
            "N": cell["N"],
            "x_family": cell["x"].family,
            "noise_family": cell["noise"].family,
            "u_grid": "|".join(f"{u:g}" for u in cell["u_grid"]),
            **rec,
            "ratio": ratio_statistic(rec["sup_centred"], width, cell["noise"]),
        } for ti, rec in records]

    @staticmethod
    def criteria(rows: list[dict]) -> list[dict]:
        crits = []
        by_n: dict[int, list[float]] = {}
        for r in rows:
            if isinstance(r.get("ratio"), (int, float)) and math.isfinite(r["ratio"]):
                by_n.setdefault(r["n"], []).append(r["ratio"])
        if len(by_n) >= 2:
            lo_n, hi_n = min(by_n), max(by_n)
            lo, hi = np.mean(by_n[lo_n]), np.mean(by_n[hi_n])
            ok = hi <= 1.5 * lo and hi <= 10.0
            crits.append({
                "name": f"ratio_two_scale n={lo_n}->{hi_n}",
                "status": "pass" if ok else "fail",
                "detail": f"mean ratio {lo:.3f} -> {hi:.3f}; bound 1.5x and <= 10",
            })
        else:
            crits.append({
                "name": "ratio_two_scale",
                "status": "insufficient-data",
                "detail": "need >= 2 distinct n",
            })
        return crits


class _RecoveryAdapter(_Adapter):
    columns = [
        "cell", "n", "s", "N", "family", "nu", "q0", "lambda",
        "success_rate", "err_l1_med", "err_l2_med", "trials",
        "bp_unconverged", "lasso_unconverged",
    ]
    group = ["n", "s", "N", "family"]
    values = ["success_rate", "err_l1_med", "err_l2_med"]

    # every (s, N) of an (n, law) is read off one draw per trial: the first N
    # rows and the first s support entries of the instance at the largest
    nested = ("s", "N", "lam")

    @staticmethod
    def cells(config):
        g = _grids(config, "n", "s", "N", "x_family", "noise_family", "nu", "q0", "c1")
        noise_family = g.get("noise_family", "symmetric_pareto")
        q0 = float(_number(g.get("q0", 3.0), "q0"))
        c1 = float(_number(g.get("c1", DEFAULT_LASSO_C1), "c1"))
        noise = NoiseSpec(noise_family, q0=q0) if noise_family != "none" else None
        cells = []
        for n, s, N, xf in product(_axis(g, "n", 1), _axis(g, "s", 0), _axis(g, "N", 1),
                                   _axis(g, "x_family")):
            if s > n:
                raise ConfigurationError(f"recovery s must be <= n, got s={s} > n={n}")
            cells.append({"x": _x_spec(xf, n, g.get("nu")), "s": s, "N": N, "noise": noise,
                          "lam": rate_penalty(noise, N, n, c1) if noise else 0.0})
        return cells

    @staticmethod
    def trial(config, group, ti):
        ci, first = group[0]
        noise = first["noise"]
        probs = make_recovery_problems(first["x"], [(c["s"], c["N"], c["lam"]) for _, c in group],
                                       (config.master_seed, ci, ti), noise)
        # rows added to Gamma only shrink {v : Gamma v = Gamma v0}, which keeps v0, so
        # a recovery at (s, N) is one at every larger N of this trial and s: visited
        # by (s, N), every member past its s's first success is decided with no solve.
        # Each trial's success is thus nondecreasing in N by construction, so no
        # summary criterion checks it
        records = [None] * len(probs)
        recovered = set()
        for i in sorted(range(len(group)), key=lambda i: (group[i][1]["s"], group[i][1]["N"])):
            prob = probs[i]
            success, bp = (True, None) if prob.s in recovered else bp_recovers(prob.Gamma, prob.v0)
            if success:
                recovered.add(prob.s)
            # without noise lam is 0, and the lam -> 0+ limit of the LASSO is the
            # minimum-l1 interpolant, basis pursuit's; where v0 is proved a minimizer
            # with no solve (bp is None), its errors are exactly 0
            la = lasso(prob) if noise is not None else bp
            records[i] = {
                "bp_success": int(success),
                # only the solves that ran
                "bp_unconverged": int(bp is not None and not bp.converged),
                "lasso_unconverged": int(la is not None and not la.converged),
                "err_l1": la.errors_lp[1.0] if la is not None else 0.0,
                "err_l2": la.errors_lp[2.0] if la is not None else 0.0,
            }
        return records

    @staticmethod
    def rows(cell, ci, records, cell_result):
        recs = [rec for _, rec in records]
        x, noise = cell["x"], cell["noise"]
        return [{
            "cell": ci,
            "n": x.dim,
            "s": cell["s"],
            "N": cell["N"],
            "family": x.family,
            "nu": x.tail_param,
            "q0": noise.q0 if noise is not None else None,
            "lambda": cell["lam"],
            "success_rate": sum(r["bp_success"] for r in recs) / len(recs),
            "err_l1_med": float(np.median([r["err_l1"] for r in recs])),
            "err_l2_med": float(np.median([r["err_l2"] for r in recs])),
            "trials": len(recs),
            "bp_unconverged": sum(r["bp_unconverged"] for r in recs),
            "lasso_unconverged": sum(r["lasso_unconverged"] for r in recs),
        }]

    @staticmethod
    def criteria(rows: list[dict]) -> list[dict]:
        crits = []
        # the one criterion, the LASSO rate: slope of log median l2 error vs log N, per
        # (n, s, family); a noise-free row (lambda 0) reports basis pursuit's errors,
        # not the LASSO's, and is rated by no criterion
        series: dict[tuple, list[tuple[float, float]]] = {}
        noise_free = False
        for r in rows:
            key = (r["n"], r["s"], r["family"])
            if r.get("lambda") == 0:
                noise_free = True
            elif isinstance(r.get("err_l2_med"), (int, float)) and r["err_l2_med"] > 0:
                series.setdefault(key, []).append((r["N"], r["err_l2_med"]))
        for key, pts in series.items():
            if len({N for N, _ in pts}) < 3:
                continue
            pts.sort()
            slope, _, se = loglog_slope([p[0] for p in pts], [p[1] for p in pts])
            ok = abs(slope + 0.5) <= 0.15
            crits.append({
                "name": f"lasso_error_rate n={key[0]} s={key[1]} {key[2]}",
                "status": "pass" if ok else "fail",
                "detail": f"log-log slope {slope:.3f} (se {se:.3f}), target -0.5 +/- 0.15",
            })
        if not crits:
            crits.append({
                "name": "lasso_error_rate",
                "status": "insufficient-data",
                "detail": ("a noise-free run: lambda is 0, so no LASSO rate applies" if noise_free
                           else "need >= 3 distinct N values for a fixed (n, s, family)"),
            })
        return crits


class _GelfandAdapter(_Adapter):
    columns = [
        "cell", "trial", "n", "m", "family", "x_family",
        "r_G", "r_G_confident", "r_X", "r_X_confident", "diam_lb",
    ]
    group = ["n", "m", "family", "x_family"]
    values = ["r_G", "r_X", "diam_lb"]

    # every m of a (set, law) is read off one sample: the nested sums of r_X
    # and the first m rows of each trial's one measurement matrix
    nested = ("m",)

    @staticmethod
    def cells(config):
        g = _grids(config, "sets", "m", "x_family", "nu", "gamma", "fp_tol", "width_draws",
                   "probes")
        ms, laws = _axis(g, "m", 1), _axis(g, "x_family")
        knobs = {"gamma": float(_number(g.get("gamma", 1.0), "gamma")),
                 "fp_tol": float(_number(g.get("fp_tol", 1e-2), "fp_tol")),
                 "width_draws": _integer(g.get("width_draws", 2000), "width_draws", 2),
                 "probes": _integer(g.get("probes", 200), "probes", 1)}
        cells = []
        for s in _axis(g, "sets"):
            spec = index_set_from_dict(s)
            if max(ms) >= spec.dim:
                raise ConfigurationError(f"gelfand m must be below dim {spec.dim}, got {ms!r}")
            # r_G depends on the set alone: every law of the set reads it off the
            # sample on the path of the set's first cell, cell len(cells)
            cells += [{"set": spec, "m": m, "x": _x_spec(xf, spec.dim, g.get("nu")),
                       "r_G_cell": len(cells), **knobs} for m, xf in product(ms, laws)]
        return cells

    @staticmethod
    def trial(config, group, ti):
        (ci, first), ms = group[0], [cell["m"] for _, cell in group]
        spec, dist = first["set"], first["x"]
        results = kernel_section_diameters(dist, spec, ms, first["probes"],
                                           (config.master_seed, ci, ti))
        return [[{
            "n": spec.dim,
            "m": res.m,
            "family": spec.label(),
            "x_family": dist.family,
            "diam_lb": res.lower_bound,
        }] for res in results]

    @staticmethod
    def cell(config, group):
        (ci, first), ms = group[0], [cell["m"] for _, cell in group]
        bisection = (first["gamma"], ms, first["fp_tol"], first["width_draws"])
        rgs = r_G_fixed_points(first["set"], *bisection,
                               (config.master_seed, first["r_G_cell"], 1_000_000, 0))
        rxs = r_X_fixed_points(first["x"], first["set"], *bisection,
                               (config.master_seed, ci, 1_000_000, 1))
        return [{
            "r_G": rg.r_star,
            "r_G_confident": int(rg.confident),
            "r_X": rx.r_star,
            "r_X_confident": int(rx.confident),
        } for rg, rx in zip(rgs, rxs)]

    @staticmethod
    def criteria(rows: list[dict]) -> list[dict]:
        crits = []
        by_cell: dict[int, list[dict]] = {}
        for r in rows:
            by_cell.setdefault(r["cell"], []).append(r)
        for ci, rs in sorted(by_cell.items()):
            if len(rs) < 20:
                crits.append({
                    "name": f"kernel_diameter_bound cell{ci}",
                    "status": "insufficient-data",
                    "detail": f"{len(rs)} draws (< 20)",
                })
                continue
            exceed = sum(r["diam_lb"] > 2.0 * r["r_G"] for r in rs) / len(rs)
            crits.append({
                "name": f"kernel_diameter_bound cell{ci}",
                "status": "pass" if exceed <= 0.05 else "fail",
                "detail": f"fraction above 2*r_G = {exceed:.3f} (allowed 0.05)",
            })
        return crits


class _MomentsAdapter(_Adapter):
    columns = ["cell", "trial", "family", "tail_param", "n_samples", "q", "ratio"]
    group = ["family", "q"]
    values = ["ratio"]

    @staticmethod
    def cells(config):
        g = _grids(config, "laws", "p", "n_samples")
        p = _integer(g.get("p", 20), "p", 2)
        n_samples = _integer(g.get("n_samples", 100000), "n_samples", 2)
        cells = []
        for law in _axis(g, "laws"):
            if not isinstance(law, dict) or set(law) - {"tail_param"} != {"family"}:
                raise ConfigurationError(f"a law has a family and maybe a tail_param: {law!r}")
            tail = law.get("tail_param")
            if tail is not None:
                _number(tail, "tail_param")
            cells.append({"x": DistributionSpec(law["family"], 1, tail_param=tail),
                          "p": p, "n_samples": n_samples})
        return cells

    @staticmethod
    def trial(config, group, ti):
        [(ci, cell)] = group
        dist = cell["x"]
        profile = moment_growth_profile(dist, cell["p"], cell["n_samples"],
                                        (config.master_seed, ci, ti))
        return [[{
            "family": dist.family,
            "tail_param": dist.tail_param,
            "n_samples": cell["n_samples"],
            "q": q,
            "ratio": ratio,
        } for q, ratio in profile]]

    @staticmethod
    def criteria(rows: list[dict]) -> list[dict]:
        q2 = [r["ratio"] for r in rows if r.get("q") == 2]
        if not q2:
            return [{"name": "unit_variance_normalization", "status": "insufficient-data",
                     "detail": "no q=2 rows"}]
        worst = max(abs(v * math.sqrt(2.0) - 1.0) for v in q2)
        return [{
            "name": "unit_variance_normalization",
            "status": "pass" if worst <= 0.05 else "fail",
            "detail": f"max |sqrt(2)*ratio(q=2) - 1| = {worst:.4f} (allowed 0.05)",
        }]


_ADAPTERS = {
    "widths": _WidthsAdapter,
    "multiplier": _MultiplierAdapter,
    "recovery": _RecoveryAdapter,
    "gelfand": _GelfandAdapter,
    "moments": _MomentsAdapter,
}
EXPERIMENTS = tuple(_ADAPTERS)


# ---------------------------------------------------------------------------
# execution

@dataclass
class ExperimentManifest:
    config_hash: str
    experiment: str
    version: str
    started: str
    finished: str
    checksums: dict
    seed_ledger: dict
    failed: list
    rows: int
    workers: int
    blas_threads: int | None
    peak_rss_mb: float
    versions: dict

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def dropped_cells(failed: list) -> list[int]:
    """Cells left out of the CSV because at least one of their tasks failed."""
    return sorted({f["cell"] for f in failed})


def _run_task(task) -> tuple[list | None, str | None]:
    """One trial of a sample group, or with ``ti=None`` the group's shared work.

    Returns ``(records, None)``, one record per member cell, or
    ``(None, repr(exc))`` if it raised.
    """
    config, group, ti = task
    adapter = _ADAPTERS[config.experiment]
    try:
        if ti is None:
            return adapter.cell(config, group), None
        return adapter.trial(config, group, ti), None
    except Exception as exc:  # noqa: BLE001 - recorded in manifest.failed, not fatal
        return None, repr(exc)


def _run_tasks(tasks: list, workers: int) -> list[tuple[list | None, str | None]]:
    """The outcomes of ``_run_task`` on every task, in task order.

    With k = min(workers, len(tasks)) > 1, this process and k - 1 forked
    children run the tasks: each takes the next task index from one shared
    counter, under its lock, until the counter passes the last task.  A child
    then sends back its ``{index: outcome}`` over its own pipe; an outcome
    that cannot be pickled is sent as its task's failure instead.  A child
    that exits without sending loses every task it took; those come back as
    failed.  On any exception here the children are terminated and joined.
    """
    k = min(workers, len(tasks))
    if k <= 1:
        return list(map(_run_task, tasks))
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)

    def work() -> dict:
        done = {}
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= len(tasks):
                return done
            done[i] = _run_task(tasks[i])

    def child(send) -> None:
        done = work()
        try:
            send.send(done)
        except Exception:  # noqa: BLE001 - each outcome that cannot be sent fails its task
            for i, outcome in done.items():
                try:
                    pickle.dumps(outcome)
                except Exception as exc:  # noqa: BLE001
                    done[i] = (None, f"a worker could not return this task's outcome: {exc!r}")
            send.send(done)

    children = []
    try:
        for _ in range(k - 1):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send,))
            proc.start()
            # close it here before the next fork, so that only the child holds
            # its sending end, and its exit ends the parent's recv()
            send.close()
            children.append((proc, recv))
        outcomes = work()
        for proc, recv in children:
            try:
                outcomes.update(recv.recv())
            except EOFError:
                pass
            proc.join()
    finally:
        for proc, recv in children:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()
    lost = (None, "a worker process exited before returning this task")
    return [outcomes.get(i, lost) for i in range(len(tasks))]


def _sample_groups(cells: list[dict], nested: tuple) -> list[list[tuple[int, dict]]]:
    """The cells, as (ci, cell), in groups that share one sample.

    Cells that agree on every key outside ``nested`` form a group; the k-th
    copy of a repeated cell goes to the k-th group of its key, so the nested
    values within a group are distinct and with ``nested=()`` every group is
    one cell.  Groups come in the order of their first cell.
    """
    copies: dict[tuple, int] = {}
    groups: dict[tuple[tuple, int], list[tuple[int, dict]]] = {}
    for ci, cell in enumerate(cells):
        # a cell's values are numbers, strings, tuples and frozen specs: hashable
        whole = tuple(sorted(cell.items()))
        outer = tuple(item for item in whole if item[0] not in nested)
        copy = copies.get(whole, 0)
        copies[whole] = copy + 1
        groups.setdefault((outer, copy), []).append((ci, cell))
    return list(groups.values())


# (get, set) thread-count entry points of the OpenBLAS builds numpy ships
# (64-bit and 32-bit integer interface), then of a plain build
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _numpy_blas_threads() -> tuple | None:
    """(get, set) thread-count functions of numpy's OpenBLAS; None without one.

    A lookup on numpy's linalg extension also searches the libraries it links.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_API:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get_threads, set_threads = getattr(lib, get_name), getattr(lib, set_name)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get_threads, set_threads
    return None


@contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread; restore its count on exit.

    Yields the thread count in force, or None when numpy's BLAS is no OpenBLAS.
    Worker processes forked inside inherit the pin, so k workers run k BLAS
    threads on k cores instead of each spinning up one per core.
    """
    controls = _numpy_blas_threads()
    if controls is None:
        yield None
        return
    get_threads, set_threads = controls
    previous = get_threads()
    set_threads(1)
    try:
        yield 1
    finally:
        set_threads(previous)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Have glibc keep the memory this process frees, for the next allocation.

    By default glibc hands freed blocks of a few MB back to the kernel, and
    the next block faults its pages in again (numpy asks for huge pages only
    from 4 MiB up).  A widths run, whose gaussian blocks and support curves
    are 2 MB each, spent about a third of its time in those faults.  Forked
    workers inherit the setting; without glibc's mallopt this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest: smaller blocks come from the heap
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)  # and up to 64 MB of freed heap stays mapped


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # "nan", "inf" and "-inf" too
    return str(v)


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(row.get(c, "")) for c in columns])


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    """The high-water RSS of this process plus that of its largest reaped child, in MB."""
    unit = 1 << 20 if sys.platform == "darwin" else 1 << 10  # ru_maxrss: bytes, else KB
    maxrss = sum(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return round(maxrss / unit, 1)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def run(config: ExperimentConfig, workers: int = 1) -> ExperimentManifest:
    """Execute all grid cells x trials and write CSV + summary + manifest.

    Every task runs with one BLAS thread per process, in this process and
    at most workers - 1 forked children, none idle (see ``_run_tasks``).
    There is one task per (sample group, trial), and the groups' shared
    work (``adapter.cell``) is queued ahead of the trials, in group order.
    Before any task, this process is set to keep the memory it frees, for
    good (``_keep_freed_memory``): ``lab`` and a call from Python run alike.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    adapter = _ADAPTERS[config.experiment]
    cells = adapter.cells(config)
    started = _utc_now()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    groups = _sample_groups(cells, adapter.nested)
    shared = adapter.cell is not None and config.trials > 0
    tasks = ([(config, group, None) for group in groups] if shared else []) + [
        (config, group, ti) for group in groups for ti in range(config.trials)]
    _keep_freed_memory()
    with _one_blas_thread() as blas_threads:
        outcomes = _run_tasks(tasks, workers)

    # each record is filed under its own cell; a failed task fails every member
    records: list[list[tuple[int, dict]]] = [[] for _ in cells]
    cell_results: list = [None] * len(cells)
    failed: list[dict] = []
    for (_, group, ti), (recs, error) in zip(tasks, outcomes):
        if error is not None:
            failed.extend({"cell": ci, "trial": ti, "error": error} for ci, _ in group)
            continue
        for (ci, _), rec in zip(group, recs, strict=True):
            if ti is None:
                cell_results[ci] = rec
            else:
                records[ci].append((ti, rec))

    # the seed path of a cell's trials is its group's: (master, first cell, trial)
    seed_cell = {ci: group[0][0] for group in groups for ci, _ in group}
    dropped = dropped_cells(failed)
    rows: list[dict] = []
    seed_ledger: dict[str, list[int]] = {}
    for ci, cell in enumerate(cells):
        if ci in dropped or not records[ci]:
            continue
        rows.extend(adapter.rows(cell, ci, records[ci], cell_results[ci]))
        if "trial" in adapter.columns:
            for ti, _ in records[ci]:
                seed_ledger[f"cell{ci}/trial{ti}"] = [config.master_seed, seed_cell[ci], ti]
        else:
            seed_ledger[f"cell{ci}"] = [config.master_seed, seed_cell[ci]]

    csv_path = out_dir / f"{config.experiment}.csv"
    _write_csv(csv_path, adapter.columns, rows)

    chash = config_hash(config)
    summary = {
        "experiment": config.experiment,
        "config_hash": chash,
        "cells": len(cells),
        "trials": config.trials,
        "rows": len(rows),
        "columns": adapter.columns,
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")

    manifest = ExperimentManifest(
        config_hash=chash,
        experiment=config.experiment,
        version=__version__,
        started=started,
        finished=_utc_now(),
        checksums={
            csv_path.name: _sha256_file(csv_path),
            summary_path.name: _sha256_file(summary_path),
        },
        seed_ledger=seed_ledger,
        failed=failed,
        rows=len(rows),
        workers=workers,
        blas_threads=blas_threads,
        peak_rss_mb=_peak_rss_mb(),
        versions={"python": platform.python_version(), "numpy": np.__version__},
    )
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), sort_keys=True, indent=1) + "\n"
    )
    return manifest


# ---------------------------------------------------------------------------
# summaries

def loglog_slope(xs, ys) -> tuple[float, float, float]:
    """OLS slope of log(y) on log(x): (slope, intercept, stderr of slope)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    if lx.size < 2:
        raise ValueError("need at least two points")
    if np.all(lx == lx[0]):
        raise ValueError("need at least two distinct x values")
    mx, my = lx.mean(), ly.mean()
    sxx = float(((lx - mx) ** 2).sum())
    slope = float(((lx - mx) * (ly - my)).sum() / sxx)
    intercept = float(my - slope * mx)
    dof = lx.size - 2
    if dof > 0:
        resid = ly - (intercept + slope * lx)
        se = math.sqrt(float((resid**2).sum()) / dof / sxx)
    else:
        se = math.nan
    return slope, intercept, se


def _read_rows(csv_path: Path) -> list[dict]:
    with csv_path.open(newline="", encoding="utf-8") as fh:
        rows = []
        for raw in csv.DictReader(fh):
            row = {}
            for k, v in raw.items():
                try:
                    row[k] = int(v)
                except (TypeError, ValueError):
                    try:
                        row[k] = float(v)
                    except (TypeError, ValueError):
                        row[k] = v
            rows.append(row)
    return rows


@dataclass
class SummaryReport:
    experiment: str
    aggregates: list
    criteria: list
    dropped_cells: list
    versions: dict

    def format_lines(self) -> list[str]:
        lines = [f"experiment: {self.experiment}"]
        for agg in self.aggregates:
            desc = ", ".join(f"{k}={v}" for k, v in agg.items())
            lines.append("  " + desc)
        lines.append(f"dropped cells (a task failed): {self.dropped_cells or 'none'}")
        # above "criteria:", whose following lines are all criteria
        lines.append("versions: " + (", ".join(f"{k} {v}" for k, v in self.versions.items())
                                     or "not recorded"))
        lines.append("criteria:")
        for crit in self.criteria:
            lines.append(f"  [{crit['status']:>17}] {crit['name']}: {crit['detail']}")
        return lines


def _aggregate(rows: list[dict], group_cols: list[str], value_cols: list[str]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row.get(c) for c in group_cols)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=repr):
        rows_g = groups[key]
        agg = dict(zip(group_cols, key))
        agg["count"] = len(rows_g)
        for col in value_cols:
            vals = np.array([r[col] for r in rows_g if isinstance(r.get(col), (int, float))], float)
            finite = vals[np.isfinite(vals)]
            if finite.size:
                agg[f"{col}_mean"] = float(finite.mean())
                agg[f"{col}_median"] = float(np.median(finite))
            if finite.size > 1:
                agg[f"{col}_stderr"] = float(finite.std(ddof=1) / math.sqrt(finite.size))
            # the values left out of the statistics are counted, never dropped silently
            for kind, count in (("nan", np.isnan(vals).sum()), ("inf", np.isinf(vals).sum())):
                if count:
                    agg[f"{col}_{kind}"] = int(count)
        out.append(agg)
    return out


def summarize(results_dir: str | Path) -> SummaryReport:
    """Verify checksums, aggregate per cell, and evaluate data-level criteria.

    Cells dropped after a failed task are reported apart from the criteria,
    which see only the rows in the CSV.
    """
    out_dir = Path(results_dir)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigurationError(f"no manifest.json in {out_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"manifest.json is not valid JSON: {exc}") from None
    experiment = manifest.get("experiment") if isinstance(manifest, dict) else None
    if experiment not in EXPERIMENTS:
        raise IntegrityError(f"manifest.json names no known experiment: {experiment!r}")
    if not (isinstance(manifest.get("checksums"), dict)
            and f"{experiment}.csv" in manifest["checksums"]
            and isinstance(manifest.get("failed"), list)
            and all(isinstance(f, dict) and type(f.get("cell")) is int
                    for f in manifest["failed"])):
        raise IntegrityError(f"manifest.json lacks the checksum of {experiment}.csv "
                             "or the list of failed tasks, each with its cell")
    root = out_dir.resolve()
    for name, digest in manifest["checksums"].items():
        path = out_dir / name
        if not (path.is_file() and path.resolve().is_relative_to(root)):
            raise IntegrityError(f"result file {name!r} is missing, not a regular file "
                                 f"or outside {out_dir}")
        if _sha256_file(path) != digest:
            raise IntegrityError(f"checksum mismatch for {name}")

    adapter = _ADAPTERS[experiment]
    rows = _read_rows(out_dir / f"{experiment}.csv")
    aggregates = _aggregate(rows, adapter.group, adapter.values)
    criteria = adapter.criteria(rows) if rows else [{
        "name": "any",
        "status": "insufficient-data",
        "detail": "no rows",
    }]
    return SummaryReport(
        experiment=experiment,
        aggregates=aggregates,
        criteria=criteria,
        dropped_cells=dropped_cells(manifest["failed"]),
        versions=versions if isinstance(versions := manifest.get("versions"), dict) else {},
    )
