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
timestamps, per-file checksums, seed ledger, workers and BLAS threads).
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import importlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
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
    moment_growth_profile,
    sample_batch,
)
from .gelfand import kernel_section_diameters, r_G_fixed_points, r_X_fixed_points
from .geometry import IndexSetSpec, gaussian_mean_width, gaussian_mean_widths, index_set_from_dict
from .process import multiplier_stats
from .recovery import (
    DEFAULT_LASSO_C1,
    RecoveryProblem,
    basis_pursuit,
    rate_penalty,
    lasso,
    make_recovery_problem,
    recovery_success,
)
from .streams import child_path


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
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if self.trials < 0:
            raise ConfigurationError("trials must be >= 0")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigurationError("master_seed must fit in 64 bits")

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "grids": self.grids,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(d).__name__}")
        try:
            fields = {
                "experiment": d["experiment"],
                "grids": d.get("grids", {}),
                "trials": d["trials"],
                "master_seed": d["master_seed"],
                "output_dir": str(d.get("output_dir", "results")),
            }
        except KeyError as exc:
            raise ConfigurationError(f"config missing required key: {exc.args[0]}") from exc
        # no conversions: 2.7 trials or a list of pairs for grids is a mistake
        for key in ("trials", "master_seed"):
            if isinstance(fields[key], bool) or not isinstance(fields[key], int):
                raise ConfigurationError(
                    f"malformed config: {key} must be an integer, got {fields[key]!r}"
                )
        if not isinstance(fields["grids"], dict):
            raise ConfigurationError(
                f"malformed config: grids must be an object, got {fields['grids']!r}"
            )
        fields["grids"] = dict(fields["grids"])
        return cls(**fields)

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
#   cells(config)                      -> list of cell dicts; it validates the
#                                         whole config (ConfigurationError)
#   nested                             -> the cell keys that nest inside one
#                                         sample (default ()): cells that agree
#                                         on every other key form a group, which
#                                         runs as one task per trial, and one for
#                                         its shared work; with () every group
#                                         is one cell
#   trial(config, group, ti)           -> one per-trial record per member cell of
#                                         group, a list of (ci, cell); with the
#                                         default rows, a record is the list of
#                                         the cell's rows.  @_per_cell lifts a
#                                         trial(config, cell, ci, ti) of one cell
#   cell(config, group)                -> optional shared record per member cell,
#                                         shared by the cell's rows (None: no
#                                         shared work); with the default rows, a
#                                         dict of columns.  @_per_cell lifts a
#                                         cell(config, cell, ci) of one cell
#   cell_cost(cell)                    -> relative cost of a cell's shared work;
#                                         a group's is its members' sum, to start
#                                         the longest shared tasks first
#   rows(config, cell, ci, records, cell_result)
#                                      -> list of CSV row dicts; the default
#                                         puts cell, trial and the cell's columns
#                                         on every row of every trial
#   criteria(rows)                     -> data-level pass/fail checks on the CSV
#   columns                            -> CSV header; without a "trial"
#                                         column the rows are per cell
#   group, values                      -> summary aggregation: the columns to
#                                         group rows by and the ones to summarize
#   scipy_modules(config)              -> the scipy subpackages its tasks import,
#                                         loaded by run() before the pool forks

def _x_spec(family: str, n: int, nu) -> DistributionSpec:
    if family == "student_t" and nu is None:
        nu = 2.0 * math.log(n)
    if family == "symmetric_pareto" and nu is None:
        nu = 4.0
    if family == "symmetric_weibull" and nu is None:
        nu = 1.0
    return DistributionSpec(family, n, tail_param=nu)


def _check_count(grids: dict, key: str, default: int, least: int) -> None:
    """Raise ConfigurationError unless grids[key] (or the default) is an integer >= least."""
    value = grids.get(key, default)
    # type() rather than isinstance(): a bool is no count
    if type(value) is not int or value < least:
        raise ConfigurationError(f"{key} must be an integer >= {least}, got {value!r}")


def _per_cell(fn):
    """An adapter's trial or cell function of one cell, run on its group.

    With ``nested = ()`` a group is one cell: the function gets that cell
    and its index, and its record is the group's one record.
    """
    def on_group(config, group, *ti):
        [(ci, cell)] = group
        return [fn(config, cell, ci, *ti)]
    return staticmethod(on_group)


class _Adapter:
    nested = ()
    cell = None

    @staticmethod
    def scipy_modules(config) -> tuple[str, ...]:
        return ()

    @staticmethod
    def rows(config, cell, ci, records, cell_result):
        shared = cell_result or {}
        return [{"cell": ci, "trial": ti, **shared, **row} for ti, rows in records for row in rows]


class _WidthsAdapter(_Adapter):
    columns = ["cell", "trial", "family", "n", "r", "mean", "stderr", "draws", "d2", "D"]
    group = ["family", "n", "r"]
    values = ["mean", "stderr", "D"]

    @staticmethod
    def scipy_modules(config):
        # only the localized permutation-polytope support imports scipy
        sets, radii = config.grids.get("sets", []), config.grids.get("radii", [None])
        if (any(s.get("family") == "permutation_polytope" for s in sets)
                and any(r is not None for r in radii)):
            return ("scipy.optimize",)
        return ()

    @staticmethod
    def cells(config):
        sets = config.grids.get("sets")
        if not sets:
            raise ConfigurationError("widths experiment needs grids.sets")
        radii = config.grids.get("radii", [None])
        # type() rather than isinstance(): a bool is no radius
        if not (isinstance(radii, list) and radii and all(
                r is None or (type(r) in (int, float) and 0 < r < math.inf) for r in radii)):
            raise ConfigurationError("widths radii must be a nonempty list of nulls and "
                                     f"finite numbers > 0, got {radii!r}")
        _check_count(config.grids, "draws", 10000, least=2)
        for s in sets:
            index_set_from_dict(s)
        return list(sets)

    @_per_cell
    def trial(config, cell, ci, ti):
        spec = index_set_from_dict(cell)
        radii = config.grids.get("radii", [None])
        draws = config.grids.get("draws", 10000)
        ests = gaussian_mean_widths(spec, draws, radii, child_path(config.master_seed, ci, ti))
        return [{
            "family": spec.label(),
            "n": spec.dim,
            "r": r if r is not None else "",
            "mean": est.mean,
            "stderr": est.std_error,
            "draws": est.draws,
            "d2": est.d2,
            "D": est.complexity_ratio,
        } for r, est in zip(radii, ests)]

    @staticmethod
    def criteria(rows: list[dict]) -> list[dict]:
        crits = []
        # phi(r) = mean/r nonincreasing in r for each set (cell), within 3 se bands
        by_cell: dict[int, list[dict]] = {}
        for r in rows:
            if isinstance(r.get("r"), (int, float)):
                by_cell.setdefault(r["cell"], []).append(r)
        checked = False
        for ci, rs in sorted(by_cell.items()):
            label = f"cell{ci} {rs[0]['family']} n={rs[0]['n']}"
            radii = sorted({r["r"] for r in rs})
            if len(radii) < 2:
                continue
            checked = True
            ok = True
            stats = []
            for rad in radii:
                vals = np.array([r["mean"] for r in rs if r["r"] == rad])
                ses = np.array([r["stderr"] for r in rs if r["r"] == rad])
                se = float(np.sqrt((ses**2).sum()) / len(ses))
                stats.append((rad, float(vals.mean()) / rad, se / rad))
            for (r1, p1, s1), (r2, p2, s2) in zip(stats, stats[1:]):
                if p2 > p1 + 3.0 * (s1 + s2) + 1e-12:
                    ok = False
            crits.append({
                "name": f"localized_width_ratio_monotone {label}",
                "status": "pass" if ok else "fail",
                "detail": "mean/r nonincreasing in r within 3 se",
            })
        if not checked:
            crits.append({
                "name": "localized_width_ratio_monotone",
                "status": "insufficient-data",
                "detail": "need >= 2 radii for one set",
            })
        return crits


class _MultiplierAdapter(_Adapter):
    columns = [
        "cell", "trial", "n", "N", "x_family", "noise_family", "u_grid",
        "A_u", "sup_centred", "sup_symmetrized", "C_hat", "ratio",
    ]
    group = ["n", "N", "x_family", "noise_family"]
    values = ["sup_centred", "sup_symmetrized", "C_hat", "ratio"]

    @staticmethod
    def cells(config):
        g = config.grids
        for key in ("n", "N", "x_family", "noise_family"):
            if key not in g:
                raise ConfigurationError(f"multiplier experiment needs grids.{key}")
        return [
            {"n": int(n), "N": int(N), "x_family": xf, "noise_family": nf}
            for n, N, xf, nf in product(g["n"], g["N"], g["x_family"], g["noise_family"])
        ]

    @staticmethod
    def _set_spec(config, n) -> IndexSetSpec:
        d = dict(config.grids.get("set", {"family": "l1_ball", "rho": 1.0}))
        d["dim"] = n
        return index_set_from_dict(d)

    @_per_cell
    def trial(config, cell, ci, ti):
        spec = _MultiplierAdapter._set_spec(config, cell["n"])
        dist = _x_spec(cell["x_family"], cell["n"], config.grids.get("nu"))
        noise = NoiseSpec(cell["noise_family"], q0=float(config.grids.get("q0", 3.0)))
        u_grid = [float(u) for u in config.grids.get("u_grid", [2.0, 4.0, 8.0])]
        batch = sample_batch(dist, noise, cell["N"], child_path(config.master_seed, ci, ti))
        stats = multiplier_stats(batch, spec, noise, u_grid=u_grid)
        return {
            "n": cell["n"],
            "N": cell["N"],
            "x_family": cell["x_family"],
            "noise_family": cell["noise_family"],
            "u_grid": "|".join(f"{u:g}" for u in u_grid),
            "A_u": "|".join(str(int(stats.A_u_holds[u])) for u in u_grid),
            "sup_centred": stats.sup_centred,
            "sup_symmetrized": stats.sup_symmetrized,
            "C_hat": stats.envelope_constant,
            "lq_norm": noise.lq_norm,
        }

    @_per_cell
    def cell(config, cell, ci):
        spec = _MultiplierAdapter._set_spec(config, cell["n"])
        return gaussian_mean_width(
            spec,
            int(config.grids.get("width_draws", 20000)),
            seed_path=child_path(config.master_seed, ci, 1_000_000),
        )

    @staticmethod
    def cell_cost(cell):
        return cell["n"]

    @staticmethod
    def rows(config, cell, ci, records, width):
        rows = []
        for ti, rec in records:
            rec = dict(rec)
            lq = rec.pop("lq_norm")
            denom = lq * width.mean
            rec["ratio"] = rec["sup_centred"] / denom if denom > 0 else math.nan
            rows.append(dict(cell=ci, trial=ti, **rec))
        return rows

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

    @staticmethod
    def scipy_modules(config):
        return ("scipy.linalg", "scipy.optimize")  # basis_pursuit

    @staticmethod
    def cells(config):
        g = config.grids
        for key in ("n", "s", "N", "x_family"):
            if key not in g:
                raise ConfigurationError(f"recovery experiment needs grids.{key}")
        return [
            {"n": int(n), "s": int(s), "N": int(N), "x_family": xf}
            for n, s, N, xf in product(g["n"], g["s"], g["N"], g["x_family"])
        ]

    @_per_cell
    def trial(config, cell, ci, ti):
        dist = _x_spec(cell["x_family"], cell["n"], config.grids.get("nu"))
        noise_family = config.grids.get("noise_family", "symmetric_pareto")
        q0 = float(config.grids.get("q0", 3.0))
        noise = NoiseSpec(noise_family, q0=q0) if noise_family != "none" else None
        c1 = float(config.grids.get("c1", DEFAULT_LASSO_C1))
        lam = rate_penalty(noise, cell["N"], cell["n"], c1) if noise else 0.0
        path = child_path(config.master_seed, ci, ti)

        noisy = make_recovery_problem(dist, cell["N"], cell["s"], path, noise=noise, lam=lam)
        clean = RecoveryProblem(noisy.Gamma, noisy.Gamma @ noisy.v0, noisy.v0, cell["s"])
        bp = basis_pursuit(clean)
        la = lasso(noisy)
        return {
            "nu": dist.tail_param if dist.tail_param is not None else "",
            "q0": q0 if noise is not None else "",
            "lambda": lam,
            "bp_success": int(recovery_success(bp, clean.v0)),
            "bp_unconverged": int(not bp.converged),
            "lasso_unconverged": int(not la.converged),
            "err_l1": la.errors_lp[1.0],
            "err_l2": la.errors_lp[2.0],
        }

    @staticmethod
    def rows(config, cell, ci, records, cell_result):
        recs = [rec for _, rec in records]
        return [{
            "cell": ci,
            "n": cell["n"],
            "s": cell["s"],
            "N": cell["N"],
            "family": cell["x_family"],
            "nu": recs[0]["nu"],
            "q0": recs[0]["q0"],
            "lambda": recs[0]["lambda"],
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
        # rate: slope of log median l2 error vs log N, per (n, s, family)
        series: dict[tuple, list[tuple[float, float]]] = {}
        for r in rows:
            key = (r["n"], r["s"], r["family"])
            if isinstance(r.get("err_l2_med"), (int, float)) and r["err_l2_med"] > 0:
                series.setdefault(key, []).append((r["N"], r["err_l2_med"]))
        rated = False
        for key, pts in series.items():
            if len(pts) < 3:
                continue
            rated = True
            pts.sort()
            slope, _, se = loglog_slope([p[0] for p in pts], [p[1] for p in pts])
            ok = abs(slope + 0.5) <= 0.15
            crits.append({
                "name": f"lasso_error_rate n={key[0]} s={key[1]} {key[2]}",
                "status": "pass" if ok else "fail",
                "detail": f"log-log slope {slope:.3f} (se {se:.3f}), target -0.5 +/- 0.15",
            })
        if not rated:
            crits.append({
                "name": "lasso_error_rate",
                "status": "insufficient-data",
                "detail": "need >= 3 N values for a fixed (n, s, family)",
            })
        # monotone success in N
        mono_checked = False
        by_ns: dict[tuple, list[dict]] = {}
        for r in rows:
            by_ns.setdefault((r["n"], r["s"], r["family"]), []).append(r)
        for key, rs in by_ns.items():
            if len(rs) < 2:
                continue
            mono_checked = True
            rs.sort(key=lambda r: r["N"])
            ok = True
            for a, b in zip(rs, rs[1:]):
                pa, pb = a["success_rate"], b["success_rate"]
                ta, tb = a["trials"], b["trials"]
                se = math.sqrt(pa * (1 - pa) / max(ta, 1) + pb * (1 - pb) / max(tb, 1))
                if pb < pa - 3.0 * se - 1e-12:
                    ok = False
            crits.append({
                "name": f"bp_success_monotone n={key[0]} s={key[1]} {key[2]}",
                "status": "pass" if ok else "fail",
                "detail": "success rate nondecreasing in N within 3 se",
            })
        if not mono_checked:
            crits.append({
                "name": "bp_success_monotone",
                "status": "insufficient-data",
                "detail": "need >= 2 N values for a fixed (n, s, family)",
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
        g = config.grids
        for key in ("sets", "m", "x_family"):
            if not isinstance(g.get(key), list):
                raise ConfigurationError(f"gelfand experiment needs grids.{key}, a list")
        for s in g["sets"]:
            spec = index_set_from_dict(s)
            # type() rather than isinstance(): a bool is no m
            if not all(type(m) is int and 1 <= m < spec.dim for m in g["m"]):
                raise ConfigurationError(
                    f"gelfand m must be integers in [1, dim) for dim {spec.dim}, got {g['m']!r}")
            for xf in g["x_family"]:
                _x_spec(xf, spec.dim, g.get("nu"))
        _check_count(g, "width_draws", 2000, least=2)
        _check_count(g, "probes", 200, least=1)
        for key, default in (("gamma", 1.0), ("fp_tol", 1e-2)):
            value = g.get(key, default)
            if type(value) not in (int, float) or not 0 < value < math.inf:
                raise ConfigurationError(f"gelfand {key} must be a finite number > 0, "
                                         f"got {value!r}")
        return [
            {"set": s, "m": m, "x_family": xf}
            for s, m, xf in product(g["sets"], g["m"], g["x_family"])
        ]

    @staticmethod
    def _group_specs(config, group):
        """The set, the coordinate law and the m of each member of a group."""
        first = group[0][1]
        spec = index_set_from_dict(first["set"])
        dist = _x_spec(first["x_family"], spec.dim, config.grids.get("nu"))
        return spec, dist, [cell["m"] for _, cell in group]

    @staticmethod
    def trial(config, group, ti):
        spec, dist, ms = _GelfandAdapter._group_specs(config, group)
        results = kernel_section_diameters(
            dist, spec, ms, config.grids.get("probes", 200),
            child_path(config.master_seed, group[0][0], ti),
        )
        return [[{
            "n": spec.dim,
            "m": res.m,
            "family": spec.label(),
            "x_family": dist.family,
            "diam_lb": res.lower_bound,
        }] for res in results]

    @staticmethod
    def cell(config, group):
        spec, dist, ms = _GelfandAdapter._group_specs(config, group)
        g = config.grids
        gamma = float(g.get("gamma", 1.0))
        draws = g.get("width_draws", 2000)
        tol = float(g.get("fp_tol", 1e-2))
        ci = group[0][0]
        # r_G depends on the set alone: every law of a set reads it off the
        # sample on the path of the set's first cell (cells run over sets,
        # then m, then x_family)
        first_of_set = ci - ci % (len(g["m"]) * len(g["x_family"]))
        rgs = r_G_fixed_points(spec, gamma, ms, tol, draws,
                               child_path(config.master_seed, first_of_set, 1_000_000, 0))
        rxs = r_X_fixed_points(dist, spec, gamma, ms, tol, draws,
                               child_path(config.master_seed, ci, 1_000_000, 1))
        return [{
            "r_G": rg.r_star,
            "r_G_confident": int(rg.confident),
            "r_X": rx.r_star,
            "r_X_confident": int(rx.confident),
        } for rg, rx in zip(rgs, rxs)]

    @staticmethod
    def cell_cost(cell):
        # r_X's normalized sums: a gaussian group draws one draws x dim block
        # per m, any other law draws x m_max x dim coordinates (summed over a
        # group, m x dim per cell overstates it)
        dim = int(cell["set"]["dim"])
        return dim if cell["x_family"] == "gaussian" else cell["m"] * dim

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
        laws = config.grids.get("laws")
        if not laws:
            raise ConfigurationError("moments experiment needs grids.laws")
        return [dict(law) for law in laws]

    @_per_cell
    def trial(config, cell, ci, ti):
        dist = DistributionSpec(cell["family"], 1, tail_param=cell.get("tail_param"))
        p = int(config.grids.get("p", 20))
        n_samples = int(config.grids.get("n_samples", 100000))
        profile = moment_growth_profile(
            dist, p, n_samples, child_path(config.master_seed, ci, ti)
        )
        return [{
            "family": cell["family"],
            "tail_param": cell.get("tail_param", ""),
            "n_samples": n_samples,
            "q": q,
            "ratio": ratio,
        } for q, ratio in profile]

    @staticmethod
    def criteria(rows: list[dict]) -> list[dict]:
        crits = []
        q2 = [r["ratio"] for r in rows if r.get("q") == 2]
        if q2:
            worst = max(abs(v * math.sqrt(2.0) - 1.0) for v in q2)
            crits.append({
                "name": "unit_variance_normalization",
                "status": "pass" if worst <= 0.05 else "fail",
                "detail": f"max |sqrt(2)*ratio(q=2) - 1| = {worst:.4f} (allowed 0.05)",
            })
        else:
            crits.append({
                "name": "unit_variance_normalization",
                "status": "insufficient-data",
                "detail": "no q=2 rows",
            })
        return crits


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


def _sample_groups(cells: list[dict], nested: tuple) -> list[list[tuple[int, dict]]]:
    """The cells, as (ci, cell), in groups that share one sample.

    Cells that agree on every key outside ``nested`` form a group; the k-th
    copy of a repeated cell goes to the k-th group of its key, so the nested
    values within a group are distinct and with ``nested=()`` every group is
    one cell.  Groups come in the order of their first cell.
    """
    copies: dict[str, int] = {}
    groups: dict[tuple[str, int], list[tuple[int, dict]]] = {}
    for ci, cell in enumerate(cells):
        whole = json.dumps(cell, sort_keys=True)
        outer = json.dumps({k: v for k, v in cell.items() if k not in nested}, sort_keys=True)
        copy = copies.get(whole, 0)
        copies[whole] = copy + 1
        groups.setdefault((outer, copy), []).append((ci, cell))
    return list(groups.values())


# (get, set) thread-count entry points of the OpenBLAS builds numpy and
# scipy ship (64-bit and 32-bit integer interface), then of a plain build
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) functions of every OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip()
                            for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_API:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get_threads, set_threads = getattr(lib, get_name), getattr(lib, set_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread; restore the counts on exit.

    Yields the thread count in force, or None when no OpenBLAS is loaded.
    Pool workers forked inside inherit the pin, so k workers run k BLAS
    threads on k cores instead of each spinning up one per core.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield 1 if controls else None
    finally:
        for (_, set_threads), n in zip(controls, previous):
            set_threads(n)


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "nan"
        return repr(f)
    return str(v)


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(row.get(c, "")) for c in columns])


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def run(config: ExperimentConfig, workers: int = 1) -> ExperimentManifest:
    """Execute all grid cells x trials and write CSV + summary + manifest.

    Every task runs with one BLAS thread per process.  There is one task
    per (sample group, trial), and the groups' shared work
    (``adapter.cell``) is queued ahead of the trials, longest first.
    The experiment's scipy subpackages are imported first, so forked
    workers inherit them instead of each importing them again, and the
    BLAS pin also covers the OpenBLAS that scipy.linalg loads.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    adapter = _ADAPTERS[config.experiment]
    cells = adapter.cells(config)
    started = _utc_now()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    groups = _sample_groups(cells, adapter.nested)
    cell_tasks = []
    if adapter.cell is not None and config.trials > 0:
        cell_tasks = sorted(((config, group, None) for group in groups), reverse=True,
                            key=lambda task: sum(adapter.cell_cost(cell) for _, cell in task[1]))
    tasks = cell_tasks + [(config, group, ti) for group in groups for ti in range(config.trials)]
    for module in adapter.scipy_modules(config):
        importlib.import_module(module)
    with _one_blas_thread() as blas_threads:
        if workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_run_task, tasks))
        else:
            outcomes = list(map(_run_task, tasks))

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
        rows.extend(adapter.rows(config, cell, ci, records[ci], cell_results[ci]))
        if "trial" in adapter.columns:
            for ti, _ in records[ci]:
                seed_ledger[f"cell{ci}/trial{ti}"] = [config.master_seed, seed_cell[ci], ti]
        else:
            seed_ledger[f"cell{ci}"] = [config.master_seed, seed_cell[ci]]

    csv_path = out_dir / f"{config.experiment}.csv"
    _write_csv(csv_path, adapter.columns, rows)

    summary = {
        "experiment": config.experiment,
        "config_hash": config_hash(config),
        "cells": len(cells),
        "trials": config.trials,
        "rows": len(rows),
        "columns": adapter.columns,
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")

    manifest = ExperimentManifest(
        config_hash=config_hash(config),
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

    def format_lines(self) -> list[str]:
        lines = [f"experiment: {self.experiment}"]
        for agg in self.aggregates:
            desc = ", ".join(f"{k}={v}" for k, v in agg.items())
            lines.append("  " + desc)
        lines.append(f"dropped cells (a task failed): {self.dropped_cells or 'none'}")
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
            vals = np.array(
                [r[col] for r in rows_g if isinstance(r.get(col), (int, float))],
                dtype=np.float64,
            )
            if vals.size == 0 or not np.all(np.isfinite(vals)):
                continue
            agg[f"{col}_mean"] = float(vals.mean())
            agg[f"{col}_median"] = float(np.median(vals))
            if vals.size > 1:
                agg[f"{col}_stderr"] = float(vals.std(ddof=1) / math.sqrt(vals.size))
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
    manifest = json.loads(manifest_path.read_text())
    for name, digest in manifest["checksums"].items():
        path = out_dir / name
        if not path.exists():
            raise IntegrityError(f"missing result file {name}")
        if _sha256_file(path) != digest:
            raise IntegrityError(f"checksum mismatch for {name}")

    experiment = manifest["experiment"]
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
    )
