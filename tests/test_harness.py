import csv
import dataclasses
import importlib.util
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from emplab.distributions import ConfigurationError, NoiseSpec
import emplab
from emplab import harness, recovery
from emplab.geometry import gaussian_width, l1_ball
from emplab.harness import (
    _ADAPTERS,
    _GelfandAdapter,
    _MomentsAdapter,
    _MultiplierAdapter,
    _RecoveryAdapter,
    _WidthsAdapter,
    ExperimentConfig,
    IntegrityError,
    _one_blas_thread,
    _openblas_thread_controls,
    _sample_groups,
    config_hash,
    dropped_cells,
    loglog_slope,
    run,
    summarize,
)
from emplab.cli import main as cli_main


def _widths_config(out, trials=2, seed=11):
    return ExperimentConfig(
        experiment="widths",
        grids={
            "sets": [{"family": "l1_ball", "dim": 16}],
            "radii": [None, 0.5],
            "draws": 500,
        },
        trials=trials,
        master_seed=seed,
        output_dir=str(out),
    )


def _multiplier_config(out, trials=3, seed=21):
    return ExperimentConfig(
        experiment="multiplier",
        grids={
            "n": [8, 16],
            "N": [16],
            "x_family": ["student_t"],
            "noise_family": ["symmetric_pareto"],
            "width_draws": 500,
        },
        trials=trials,
        master_seed=seed,
        output_dir=str(out),
    )


def _recovery_config(out, trials=2, seed=31):
    return ExperimentConfig(
        experiment="recovery",
        grids={"n": [16], "s": [1, 2], "N": [8, 32], "x_family": ["student_t"]},
        trials=trials,
        master_seed=seed,
        output_dir=str(out),
    )


def _gelfand_config(out, m=(4, 8), trials=2, seed=41):
    return ExperimentConfig(
        experiment="gelfand",
        grids={
            "sets": [{"family": "l1_ball", "dim": 16}],
            "m": list(m),
            "x_family": ["gaussian"],
            "width_draws": 200,
            "probes": 20,
        },
        trials=trials,
        master_seed=seed,
        output_dir=str(out),
    )


def _gelfand_laws_config(out, trials=2, seed=43):
    # two laws and three m: two sample groups of three cells each, the
    # gaussian group holding cells 0, 2, 4 and the student_t group 1, 3, 5
    cfg = _gelfand_config(out, m=(4, 6, 8), trials=trials, seed=seed)
    cfg.grids.update(x_family=["gaussian", "student_t"], nu=6.0)
    return cfg


def _break_student_t_trial(monkeypatch):
    """Make trial 1 of the gelfand student_t group raise (forked workers inherit it)."""
    trial = _GelfandAdapter.trial

    def failing(config, group, ti):
        if ti == 1 and group[0][1]["x"].family == "student_t":
            raise RuntimeError("broken trial")
        return trial(config, group, ti)

    monkeypatch.setattr(_GelfandAdapter, "trial", staticmethod(failing))


def _break_multiplier_width(monkeypatch):
    """Make every multiplier cell's shared work (its gaussian mean width) raise."""
    def failing(config, group):
        raise RuntimeError("broken width")

    monkeypatch.setattr(_MultiplierAdapter, "cell", staticmethod(failing))


def _permutation_widths_config(out):
    # a radius below d2 = ||w||_2 takes the localized permutation-polytope path
    return ExperimentConfig(
        experiment="widths",
        grids={
            "sets": [{"family": "permutation_polytope", "dim": 8,
                      "w": [1.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0]}],
            "radii": [None, 0.5],
            "draws": 50,
        },
        trials=2,
        master_seed=61,
        output_dir=str(out),
    )


def _permutation_gelfand_config(out):
    # the fixed points and the kernel probes of a permutation polytope
    return ExperimentConfig(
        experiment="gelfand",
        grids={
            "sets": [{"family": "permutation_polytope", "dim": 8,
                      "w": [1.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0]}],
            "m": [4, 6],
            "x_family": ["gaussian"],
            "width_draws": 50,
            "probes": 10,
        },
        trials=2,
        master_seed=63,
        output_dir=str(out),
    )


def _weibull_moments_config(out):
    # the symmetric_weibull scale goes through math.lgamma
    return ExperimentConfig(
        experiment="moments",
        grids={"laws": [{"family": "symmetric_weibull", "tail_param": 1.0}],
               "p": 6, "n_samples": 2000},
        trials=2,
        master_seed=71,
        output_dir=str(out),
    )


def _moments_config(out, trials=2, seed=51):
    return ExperimentConfig(
        experiment="moments",
        grids={
            "laws": [{"family": "gaussian"}, {"family": "student_t", "tail_param": 6.0}],
            "p": 6,
            "n_samples": 2000,
        },
        trials=trials,
        master_seed=seed,
        output_dir=str(out),
    )


# ---------------------------------------------------------------------------
# configuration

def test_config_round_trip():
    cfg = _widths_config("somewhere")
    again = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
    assert again == cfg


def test_config_hash_stable_under_key_reordering():
    d = _widths_config("x").to_dict()
    scrambled = json.loads(json.dumps(dict(reversed(list(d.items())))))
    assert config_hash(ExperimentConfig.from_dict(d)) == config_hash(
        ExperimentConfig.from_dict(scrambled)
    )


def test_config_hash_sensitive_to_content():
    a = config_hash(_widths_config("x", seed=11))
    b = config_hash(_widths_config("x", seed=12))
    assert a != b


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig("mystery", {}, 1, 0, "out")
    with pytest.raises(ConfigurationError):
        ExperimentConfig("widths", {}, -1, 0, "out")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json("{not json")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json('{"experiment": "widths"}')
    good = {"experiment": "widths", "grids": {}, "trials": 1, "master_seed": 0}
    for bad in ({"trials": "x"}, {"master_seed": "abc"}, {"grids": [1]},
                {"trials": 2.7}, {"trials": 2.0}, {"trials": True},
                {"master_seed": True}, {"master_seed": 1.5},
                {"grids": [["sets", []]]}, {"grids": None}):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({**good, **bad})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json(json.dumps([good]))


@pytest.mark.parametrize("bad", [
    {"trials": 2.7}, {"trials": True}, {"trials": -1}, {"master_seed": 1.5},
    {"master_seed": False}, {"master_seed": -1}, {"master_seed": 2**64},
    {"grids": None}, {"grids": [["sets", []]]}, {"output_dir": None},
    {"output_dir": ["x"]}, {"output_dir": Path("x")},
], ids=repr)
def test_every_way_of_building_a_config_checks_its_fields(bad):
    # one check in __post_init__: the constructor, replace() and from_dict agree
    good = {"experiment": "widths", "grids": {}, "trials": 1, "master_seed": 0, "output_dir": "o"}
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**good, **bad})
    with pytest.raises(ConfigurationError):
        dataclasses.replace(ExperimentConfig(**good), **bad)
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({**good, **bad})


def test_from_dict_defaults_and_copies_grids():
    grids = {"sets": [{"family": "l1_ball", "dim": 4}]}
    cfg = ExperimentConfig.from_dict({"experiment": "widths", "grids": grids, "trials": 1,
                                      "master_seed": 0})
    grids["draws"] = 3
    assert cfg.output_dir == "results" and cfg.grids == {"sets": [{"family": "l1_ball", "dim": 4}]}
    assert ExperimentConfig.from_dict({"experiment": "widths", "trials": 1,
                                       "master_seed": 0}).grids == {}


# ---------------------------------------------------------------------------
# runs

def test_zero_trials_empty_csv_with_header(tmp_path):
    cfg = _widths_config(tmp_path / "out", trials=0)
    manifest = run(cfg)
    lines = (tmp_path / "out" / "widths.csv").read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cell,trial,family")
    assert manifest.rows == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_row_count_is_cells_times_trials(tmp_path):
    cfg = _multiplier_config(tmp_path / "out", trials=3)
    manifest = run(cfg)
    # 2 n-values x 1 N x 1 family x 1 noise = 2 cells; 3 trials each
    assert manifest.rows == 6
    lines = (tmp_path / "out" / "multiplier.csv").read_text().splitlines()
    assert len(lines) == 7


def test_rerun_identical_bytes_and_checksums(tmp_path):
    cfg1 = _multiplier_config(tmp_path / "a")
    cfg2 = _multiplier_config(tmp_path / "b")
    m1 = run(cfg1)
    m2 = run(cfg2)
    assert m1.checksums == m2.checksums
    assert (tmp_path / "a" / "multiplier.csv").read_bytes() == (
        tmp_path / "b" / "multiplier.csv"
    ).read_bytes()


# failed tasks as (cell, trial); trial None is a cell's shared work, queued
# in cell order.  A failed gelfand trial is one task of a sample group, and
# fails every member cell.
@pytest.mark.parametrize("make_config, failed, breakage", [
    (_widths_config, [], None),
    (_multiplier_config, [], None),
    (_recovery_config, [], None),
    (_gelfand_config, [], None),
    (_gelfand_laws_config, [], None),
    (_moments_config, [], None),
    (_gelfand_laws_config, [(1, 1), (3, 1), (5, 1)], _break_student_t_trial),
    (_multiplier_config, [(0, None), (1, None)], _break_multiplier_width),
], ids=["widths", "multiplier", "recovery", "gelfand", "gelfand-laws", "moments",
        "gelfand-failing", "multiplier-failing-cell"])
def test_parallel_equals_serial(tmp_path, monkeypatch, make_config, failed, breakage):
    if breakage is not None:
        breakage(monkeypatch)
    dropped = sorted({ci for ci, _ in failed})
    blas_threads = 1 if _openblas_thread_controls() else None
    outputs = {}
    for workers in (1, 2):
        cfg = make_config(tmp_path / f"w{workers}")
        manifest = run(cfg, workers=workers)
        assert [(f["cell"], f["trial"]) for f in manifest.failed] == failed
        assert dropped_cells(manifest.failed) == dropped
        assert (manifest.workers, manifest.blas_threads) == (workers, blas_threads)
        on_disk = json.loads((tmp_path / f"w{workers}" / "manifest.json").read_text())
        assert on_disk["peak_rss_mb"] == manifest.peak_rss_mb > 0
        # the stream pins hold for one numpy version: the manifest records it, unchecksummed
        assert on_disk["versions"] == manifest.versions == {
            "python": platform.python_version(), "numpy": np.__version__}
        assert not {"manifest.json", "versions"} & set(on_disk["checksums"])
        summary = json.loads((tmp_path / f"w{workers}" / "summary.json").read_text())
        assert not {"workers", "blas_threads", "peak_rss_mb", "versions"} & set(summary)
        csv_path = tmp_path / f"w{workers}" / f"{cfg.experiment}.csv"
        with csv_path.open() as fh:
            cells = {int(row["cell"]) for row in csv.DictReader(fh)}
        assert not cells & set(dropped)
        if cfg.trials:
            assert cells == set(range(summary["cells"])) - set(dropped)
        ledger_cells = {key.split("/")[0] for key in manifest.seed_ledger}
        assert not ledger_cells & {f"cell{ci}" for ci in dropped}
        outputs[workers] = (csv_path.read_bytes(), manifest.failed, manifest.seed_ledger,
                            summary)
    assert outputs[1] == outputs[2]


def _fresh_python(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter that finds this emplab; its stdout."""
    src = str(Path(emplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# in a fresh interpreter (pytest's own has scipy loaded) where any scipy
# import raises: import every module, then a run at two workers (whose tasks
# run in this process and a forked child), then one at one worker; each
# run's failed tasks and rows
_NO_SCIPY_RUN_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
import emplab.cli
from emplab.harness import ExperimentConfig, run
config = json.loads(sys.argv[1])
seen = []
for workers in (2, 1):
    out = f"{sys.argv[2]}/w{workers}"
    manifest = run(ExperimentConfig.from_dict({**config, "output_dir": out}), workers=workers)
    seen.append([manifest.failed, manifest.rows])
print(json.dumps(seen))
"""


@pytest.mark.parametrize("make_config", [
    _multiplier_config,
    _weibull_moments_config,
    _recovery_config,
    _gelfand_config,
    _permutation_gelfand_config,
    _widths_config,
    _permutation_widths_config,
], ids=["multiplier", "moments-weibull", "recovery", "gelfand", "gelfand-permutation",
        "widths", "widths-permutation"])
def test_fresh_interpreter_runs_every_experiment_without_scipy(tmp_path, make_config):
    config = make_config(tmp_path)
    runs = json.loads(_fresh_python(_NO_SCIPY_RUN_SCRIPT, json.dumps(config.to_dict()), str(tmp_path)))
    assert runs[0] == runs[1] and runs[0][0] == [] and runs[0][1] > 0
    csv_name = f"{config.experiment}.csv"
    assert (tmp_path / "w2" / csv_name).read_bytes() == (tmp_path / "w1" / csv_name).read_bytes()


def _blas_threads():
    return [get() for get, _ in _openblas_thread_controls()]


def _in_forked_child(fn):
    """fn() as computed in a child forked from this process."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=lambda: send.send(fn()))
    proc.start()
    send.close()
    try:
        assert recv.poll(60)
        return recv.recv()
    finally:
        proc.join(60)
        assert not proc.is_alive()


def test_blas_pinned_to_one_thread_and_restored():
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    original = _blas_threads()
    for _, set_threads in controls:
        set_threads(2)
    try:
        with _one_blas_thread() as threads:
            assert threads == 1
            assert _blas_threads() == [1] * len(controls)
            assert _in_forked_child(_blas_threads) == [1] * len(controls)
        assert _blas_threads() == [2] * len(controls)
        with pytest.raises(RuntimeError, match="boom"):
            with _one_blas_thread():
                raise RuntimeError("boom")
        assert _blas_threads() == [2] * len(controls)
    finally:
        for (_, set_threads), n in zip(controls, original):
            set_threads(n)


def test_seed_ledger_covers_rows(tmp_path):
    cfg = _multiplier_config(tmp_path / "out", trials=2)
    manifest = run(cfg)
    with (tmp_path / "out" / "multiplier.csv").open() as fh:
        for row in csv.DictReader(fh):
            key = f"cell{row['cell']}/trial{row['trial']}"
            assert key in manifest.seed_ledger
            assert manifest.seed_ledger[key][0] == cfg.master_seed


def test_benchmark_layer_names_resolve(monkeypatch):
    # perfbench's tracer looks up each LAYERS name in its emplab module, and
    # its smoke run checks the harness's binding of basis_pursuit
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclass looks itself up
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for module, name, _ in spans.LAYERS:
        fn = getattr(importlib.import_module(f"emplab.{module}"), name, None)
        assert callable(fn), f"emplab.{module}.{name}"
    assert harness.basis_pursuit is recovery.basis_pursuit


def test_multiplier_ball_width_draws_no_gaussian_sample(tmp_path, monkeypatch):
    # l*(V) of an l1 or l2 ball is exact; only the other sets sample it
    def no_sample(*args, **kwargs):
        raise RuntimeError("gaussian sample drawn")

    monkeypatch.setattr(harness, "gaussian_mean_width", no_sample)
    cfg = _multiplier_config(tmp_path / "l1")
    assert run(cfg).failed == []
    noise = NoiseSpec("symmetric_pareto", q0=3.0)
    with (tmp_path / "l1" / "multiplier.csv").open() as fh:
        for row in csv.DictReader(fh):
            width = gaussian_width(l1_ball(int(row["n"])))
            assert float(row["ratio"]) == float(row["sup_centred"]) / (noise.lq_norm * width)
    cfg = _multiplier_config(tmp_path / "sparse")
    cfg.grids["set"] = {"family": "sparse_cap", "s": 2}
    failed = run(cfg).failed
    assert [(f["cell"], f["trial"]) for f in failed] == [(0, None), (1, None)]
    assert all("gaussian sample drawn" in f["error"] for f in failed)


def test_widths_trial_reads_every_radius_off_one_sample(tmp_path):
    # width(r)/r is nonincreasing in r on one sample, for every set
    sets = [
        {"family": "l1_ball", "dim": 12, "rho": 1.5},
        {"family": "l2_ball", "dim": 12, "r": 0.8},
        {"family": "sparse_cap", "dim": 12, "s": 3},
        {"family": "l1_cap_l2", "dim": 12, "rho": 1.0, "r": 0.6},
        {"family": "permutation_polytope", "dim": 12, "w": list(np.linspace(1.0, 0.1, 12))},
    ]
    radii = [0.05, 0.2, 0.5, 0.8, 1.5, 4.0]
    cfg = ExperimentConfig("widths", {"sets": sets, "radii": [None, *radii], "draws": 30},
                           trials=2, master_seed=81, output_dir=str(tmp_path / "out"))
    run(cfg)
    by_trial: dict[tuple, list] = {}
    with (tmp_path / "out" / "widths.csv").open() as fh:
        for row in csv.DictReader(fh):
            if row["r"]:
                by_trial.setdefault((row["family"], row["trial"]), []).append(
                    (float(row["r"]), float(row["mean"])))
    assert len(by_trial) == 2 * len(sets)
    for key, pts in by_trial.items():
        assert sorted(r for r, _ in pts) == radii
        phi = [mean / r for r, mean in sorted(pts)]
        assert all(b <= a + 1e-12 * a for a, b in zip(phi, phi[1:])), key


def test_widths_criterion_per_set(tmp_path):
    # two dims of one family share a label but are two sets: two criteria; the
    # l2 ball's exact width is that of its radius, read off d2; a sparse cap has
    # no exact width and is not checked
    cfg = _widths_config(tmp_path / "out")
    cfg.grids["sets"] = [{"family": "l1_ball", "dim": 16}, {"family": "l1_ball", "dim": 64},
                         {"family": "sparse_cap", "dim": 16, "s": 2},
                         {"family": "l2_ball", "dim": 16, "r": 0.5}]
    run(cfg)
    crits = summarize(tmp_path / "out").criteria
    assert [(c["name"], c["status"]) for c in crits] == [
        ("ball_width_exact cell0 l1_ball(rho=1) n=16", "pass"),
        ("ball_width_exact cell1 l1_ball(rho=1) n=64", "pass"),
        ("ball_width_exact cell3 l2_ball(r=0.5) n=16", "pass"),
    ]
    # with no null radius no width is exact: one line says so
    cfg = _widths_config(tmp_path / "radii")
    cfg.grids["radii"] = [0.2, 0.5]
    run(cfg)
    assert [(c["name"], c["status"]) for c in summarize(tmp_path / "radii").criteria] == [
        ("ball_width_exact", "insufficient-data")]


def _ball_width_rows(t):
    # three trials at pooled standard error 0.01: the mean is 4 t se above the exact width
    exact = gaussian_width(l1_ball(16))
    return [{"cell": 0, "family": "l1_ball(rho=1)", "n": 16, "r": None, "d2": 1.0,
             "mean": exact + 4.0 * t * 0.01 + d, "stderr": 0.01 * math.sqrt(3.0)}
            for d in (-0.02, 0.0, 0.02)]


# rows on which a criterion reads t times its allowed deviation from its target
_FABRICATED_ROWS = {
    "ratio_two_scale growth": (_MultiplierAdapter, lambda t: [
        {"n": 64, "ratio": 2.0}, {"n": 1024, "ratio": 2.0 * (1.0 + 0.5 * t)}]),
    "ratio_two_scale cap": (_MultiplierAdapter, lambda t: [
        {"n": 64, "ratio": 10.0 * t}, {"n": 1024, "ratio": 10.0 * t}]),
    "lasso_error_rate": (_RecoveryAdapter, lambda t: [
        {"n": 128, "s": 2, "family": "student_t", "lambda": 0.1, "N": N,
         "err_l2_med": N ** (-0.5 + 0.15 * t)} for N in (256, 1024, 4096)]),
    # 20 draws allow one above 2 r_G: t 0.99 puts one there, t 1.01 two
    "kernel_diameter_bound": (_GelfandAdapter, lambda t: [
        {"cell": 0, "r_G": 0.5, "diam_lb": 1.5 if i < math.ceil(t) else 0.5} for i in range(20)]),
    "unit_variance_normalization": (_MomentsAdapter, lambda t: [
        {"q": 2, "ratio": (1.0 - 0.05 * t) / math.sqrt(2.0)}]),
    "ball_width_exact": (_WidthsAdapter, _ball_width_rows),
}


@pytest.mark.parametrize("t", [0.99, 1.01])
@pytest.mark.parametrize("criterion", sorted(_FABRICATED_ROWS))
def test_every_criterion_can_fail(criterion, t):
    # just inside its bound a criterion passes, just past it it fails
    adapter, rows = _FABRICATED_ROWS[criterion]
    [crit] = adapter.criteria(rows(t))
    assert crit["name"].startswith(criterion.split()[0])
    assert crit["status"] == ("pass" if t < 1 else "fail"), crit


# ---------------------------------------------------------------------------
# summaries

def test_sample_groups_keep_repeated_cells_apart(tmp_path):
    # a repeated cell starts a group of its own: with nested=() every group
    # is one cell, and within a group the nested values are distinct
    cfg = _widths_config(tmp_path)
    cfg.grids["sets"] = [{"family": "l1_ball", "dim": 8}, {"family": "l1_ball", "dim": 8}]
    cells = _WidthsAdapter.cells(cfg)
    assert cells[0] == cells[1]
    assert _sample_groups(cells, ()) == [[(0, cells[0])], [(1, cells[1])]]
    # cells run over m, then x_family: (2, g), (2, t), (4, g), (4, t), (2, g), (2, t)
    cfg = _gelfand_config(tmp_path, m=(2, 4, 2))
    cfg.grids.update(x_family=["gaussian", "student_t"], nu=6.0)
    cells = _GelfandAdapter.cells(cfg)
    groups = _sample_groups(cells, _GelfandAdapter.nested)
    assert [[ci for ci, _ in g] for g in groups] == [[0, 2], [1, 3], [4], [5]]


def test_gelfand_reads_every_m_off_one_sample_per_law(tmp_path):
    cfg = _gelfand_laws_config(tmp_path / "out", trials=3)
    manifest = run(cfg)
    with (tmp_path / "out" / "gelfand.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 3
    # r_G depends on the set alone: both law cells of an m report one value
    for m in ("4", "6", "8"):
        assert len({r["r_G"] for r in rows if r["m"] == m}) == 1
    # nested kernels: each trial's bound is nonincreasing in m
    for law in ("gaussian", "student_t"):
        for ti in range(3):
            lbs = [float(r["diam_lb"]) for r in sorted(
                (r for r in rows if r["x_family"] == law and r["trial"] == str(ti)),
                key=lambda r: int(r["m"]))]
            assert len(lbs) == 3
            assert all(b <= a for a, b in zip(lbs, lbs[1:]))
    # every cell's trials ran on its group's seed path: (master, first cell, trial)
    for ci in range(6):
        for ti in range(3):
            assert manifest.seed_ledger[f"cell{ci}/trial{ti}"] == [cfg.master_seed, ci % 2, ti]


def test_moments_law_without_tail_param_writes_an_empty_field(tmp_path):
    cfg = _moments_config(tmp_path / "out", trials=1)
    cfg.grids["laws"] = [{"family": "gaussian"}, {"family": "rademacher", "tail_param": None}]
    run(cfg)
    with (tmp_path / "out" / "moments.csv").open() as fh:
        assert {row["tail_param"] for row in csv.DictReader(fh)} == {""}


def test_summarize_single_row_mean_is_value(tmp_path):
    cfg = _widths_config(tmp_path / "out", trials=1)
    run(cfg)
    report = summarize(tmp_path / "out")
    assert report.experiment == "widths"
    with (tmp_path / "out" / "widths.csv").open() as fh:
        first = next(csv.DictReader(fh))
    agg = next(a for a in report.aggregates if a.get("r") == 0.5 or a.get("r") == "")
    assert agg["count"] == 1
    assert math.isclose(agg["mean_mean"], float(first["mean"]))


def test_summarize_counts_nan_values_and_aggregates_the_rest(tmp_path, capsys):
    # one of two trials reads nan in "mean": the group's statistics are those of
    # the other trial, and the count shows as mean_nan in lab summarize
    run(_widths_config(tmp_path / "out", trials=2))
    csv_path, manifest_path = tmp_path / "out" / "widths.csv", tmp_path / "out" / "manifest.json"
    with csv_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    nan_row, kept_row = (r for r in rows if r["r"] == "0.5")
    nan_row["mean"], kept = "nan", float(kept_row["mean"])
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"]["widths.csv"] = harness._sha256_file(csv_path)
    manifest_path.write_text(json.dumps(manifest))
    agg = next(a for a in summarize(tmp_path / "out").aggregates if a["r"] == 0.5)
    assert (agg["count"], agg["mean_nan"]) == (2, 1)
    assert agg["mean_mean"] == agg["mean_median"] == kept
    assert "mean_stderr" not in agg and "stderr_nan" not in agg
    assert cli_main(["summarize", str(tmp_path / "out")]) == 0
    assert "mean_nan=1" in capsys.readouterr().out


def test_summarize_detects_corruption(tmp_path):
    cfg = _widths_config(tmp_path / "out", trials=1)
    run(cfg)
    csv_path = tmp_path / "out" / "widths.csv"
    data = bytearray(csv_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    csv_path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError, match="widths.csv"):
        summarize(tmp_path / "out")


def test_summarize_missing_manifest(tmp_path):
    with pytest.raises(ConfigurationError):
        summarize(tmp_path)


@pytest.mark.parametrize("manifest", [
    b"{not json", b"\xff\xfe{}", b"[]", b'{"experiment": "nope", "checksums": {}}',
    b'{"experiment": "widths"}', b'{"experiment": "widths", "checksums": {}, "failed": []}',
    b'{"experiment": "widths", "checksums": {"widths.csv": "0"}, "failed": {}}',
    b'{"experiment": "widths", "checksums": {"widths.csv": "0"}, "failed": [1]}',
    b'{"experiment": "widths", "checksums": {"widths.csv": "0"}, "failed": [{"trial": 0}]}',
    b'{"experiment": "widths", "checksums": {"widths.csv": "0"}, "failed": [{"cell": "0"}]}',
])
def test_summarize_bad_manifest_is_an_integrity_error(tmp_path, capsys, manifest):
    run(_widths_config(tmp_path / "out", trials=1))
    (tmp_path / "out" / "manifest.json").write_bytes(manifest)
    with pytest.raises(IntegrityError, match="manifest.json"):
        summarize(tmp_path / "out")
    assert cli_main(["summarize", str(tmp_path / "out")]) == 1
    assert "integrity error: manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("name", [".", "../outside.csv"])
def test_summarize_checksum_of_no_regular_file_inside_is_an_integrity_error(tmp_path, capsys, name):
    # a directory, and a file that matches its checksum but lies outside the results directory
    run(_widths_config(tmp_path / "out", trials=1))
    outside = tmp_path / "outside.csv"
    outside.write_text("n\n1\n")
    manifest_path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"][name] = harness._sha256_file(outside)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError, match="not a regular file or outside"):
        summarize(tmp_path / "out")
    assert cli_main(["summarize", str(tmp_path / "out")]) == 1
    assert f"integrity error: result file {name!r}" in capsys.readouterr().err


def test_summarize_noise_free_recovery_names_why_no_lasso_rate_applies(tmp_path, capsys):
    # lambda is 0 on every row: no slope is fitted, and one line says why
    cfg = _recovery_config(tmp_path / "out", trials=3)
    cfg = dataclasses.replace(cfg, grids={**cfg.grids, "N": [4, 8, 16, 32], "noise_family": "none"})
    run(cfg)
    rates = [c for c in summarize(tmp_path / "out").criteria
             if c["name"].startswith("lasso_error_rate")]
    assert rates == [{"name": "lasso_error_rate", "status": "insufficient-data",
                      "detail": "a noise-free run: lambda is 0, so no LASSO rate applies"}]
    assert cli_main(["summarize", str(tmp_path / "out")]) == 0
    assert ("[insufficient-data] lasso_error_rate: a noise-free run: lambda is 0"
            in capsys.readouterr().out)


def test_summarize_recovery_with_a_repeated_N_rates_no_series(tmp_path, capsys):
    # three cells at one N are three points but one distinct N: no slope to fit
    cfg = _recovery_config(tmp_path / "out", trials=2)
    cfg = dataclasses.replace(cfg, grids={**cfg.grids, "s": [1], "N": [32, 32, 32]})
    assert run(cfg).failed == []
    rates = [c for c in summarize(tmp_path / "out").criteria
             if c["name"].startswith("lasso_error_rate")]
    assert rates == [{"name": "lasso_error_rate", "status": "insufficient-data",
                      "detail": "need >= 3 distinct N values for a fixed (n, s, family)"}]
    assert cli_main(["summarize", str(tmp_path / "out")]) == 0
    assert "[insufficient-data] lasso_error_rate: need >= 3 distinct N" in capsys.readouterr().out


def test_loglog_slope_rejects_equal_xs():
    with pytest.raises(ValueError, match="two distinct x"):
        loglog_slope([32.0, 32.0, 32.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="two points"):
        loglog_slope([32.0], [0.1])


def test_loglog_slope_hand_computed():
    # points (1, 1), (e, e), (e^2, e): logs x = (0,1,2), y = (0,1,1)
    xs = [1.0, math.e, math.e**2]
    ys = [1.0, math.e, math.e]
    slope, intercept, se = loglog_slope(xs, ys)
    assert slope == pytest.approx(0.5)
    assert intercept == pytest.approx(1.0 / 6.0)
    assert se == pytest.approx(math.sqrt((1.0 / 6.0) / 1.0 / 2.0))


def test_loglog_slope_exact_line():
    xs = np.array([10.0, 100.0, 1000.0])
    ys = 5.0 * xs**-0.5
    slope, intercept, se = loglog_slope(xs, ys)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# CLI

def test_cli_config_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert cli_main(["widths", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli_main(["widths", "--config", str(bad)]) == 2
    bad.write_text('{"experiment": "widths", "trials": "x", "master_seed": 0}')
    assert cli_main(["widths", "--config", str(bad)]) == 2


def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"experiment": "widths", "note": "\xe9"}')
    for path in (tmp_path, not_utf8):
        assert cli_main(["widths", "--config", str(path)]) == 2
        assert f"config error: cannot read {path}" in capsys.readouterr().err


def test_cli_unknown_top_level_key_exits_2(tmp_path, capsys, monkeypatch):
    # a misspelt output_dir would otherwise send the run to the default results/
    monkeypatch.chdir(tmp_path)
    cfg = _widths_config(tmp_path / "out", trials=1).to_dict()
    cfg["output_dri"] = cfg.pop("output_dir")
    Path("c.json").write_text(json.dumps(cfg))
    assert cli_main(["widths", "--config", "c.json"]) == 2
    assert "unknown config keys ['output_dri']" in capsys.readouterr().err
    assert os.listdir() == ["c.json"]


@pytest.mark.parametrize("radii", [
    [None, 0], [None, -0.5], [True], [None, "0.1"], [float("inf")], [], 0.5,
])
def test_cli_rejects_bad_widths_radii(tmp_path, capsys, radii):
    cfg = _widths_config(tmp_path / "out", trials=1)
    cfg.grids["radii"] = radii
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["widths", "--config", str(cfg_path)]) == 2
    assert "widths radii must be a nonempty list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def test_one_demo_config_per_experiment():
    assert [path.stem for path in DEMO_CONFIGS] == sorted(harness.EXPERIMENTS)


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda path: path.stem)
def test_demo_config_builds_its_cells(path):
    # a stray or misspelt key fails here, not first in a run of the installed CLI
    raw = json.loads(path.read_text())
    cfg = ExperimentConfig.from_dict(raw)
    assert set(raw) <= set(cfg.to_dict())
    assert cfg.experiment == path.stem
    assert _ADAPTERS[cfg.experiment].cells(cfg)


def _assert_config_error(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli_main([cfg.experiment, "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not Path(cfg.output_dir).exists()


@pytest.mark.parametrize("change", [
    {"sets": [{"family": "l1_bal", "dim": 16}]},
    {"sets": [{"family": "l1_ball", "dim": 16}, {"family": "l1_ball"}]},
    {"sets": [{"family": "l1_ball", "dim": 16, "radius": 2.0}]},
    {"draws": 1},
    {"draws": 500.0},
    {"sets": [{"family": "l1_ball", "dim": 16.7}]},
    {"sets": [{"family": "l1_ball", "dim": True}]},
    {"sets": [{"family": "sparse_cap", "dim": 16, "s": True}]},
    {"sets": [{"family": "sparse_cap", "dim": 16, "s": 2.5}]},
    {"radius": [0.5]},
    {"sets": [{"family": "l1_ball", "dim": 16, "r": 0.01, "s": 3}]},
    {"sets": [{"family": "l2_ball", "dim": 16, "rho": -1}]},
    {"sets": [{"family": "l1_ball", "dim": 16, "rho": True}]},
    {"sets": [{"family": "l1_ball", "dim": 16, "rho": math.inf}]},
    {"sets": [{"family": "permutation_polytope", "dim": 2, "w": [math.nan, 1.0]}]},
    {"sets": [{"family": "l1_ball", "dim": 16, "rho": 10**400}]},
], ids=["unknown-family", "no-dim", "unknown-key", "draws-1", "draws-float", "dim-float",
        "dim-bool", "s-bool", "s-float", "misspelt-grid-key", "another-familys-keys",
        "l2-ball-rho", "rho-bool", "rho-inf", "w-nan", "rho-beyond-float"])
def test_cli_widths_config_errors_exit_2(tmp_path, capsys, change):
    # checked in cells(), before any task runs, rather than failing every trial
    cfg = _widths_config(tmp_path / "out", trials=1)
    cfg.grids.update(change)
    _assert_config_error(tmp_path, capsys, cfg)


def _failing_gelfand_config(out):
    # m = 16 = dim leaves no kernel
    return _gelfand_config(out, m=(4, 16))


@pytest.mark.parametrize("change", [
    {"sets": [{"family": "l1_bal", "dim": 16}]},
    {"width_draws": 1},
    {"probes": 0},
    {"m": [0, 4]},
    {"m": [4.0]},
    {"m": [True]},
    {"m": 4},
    {"x_family": ["gausian"]},
    {"gamma": 0},
    {"fp_tol": "0.01"},
    {"probe": 20},
], ids=["unknown-family", "width-draws-1", "probes-0", "m-0", "m-float", "m-bool",
        "m-not-a-list", "unknown-law", "gamma-0", "fp-tol-string", "misspelt-grid-key"])
def test_cli_gelfand_config_errors_exit_2(tmp_path, capsys, change):
    cfg = _gelfand_config(tmp_path / "out", trials=1)
    cfg.grids.update(change)
    _assert_config_error(tmp_path, capsys, cfg)


def test_cli_gelfand_m_at_dim_exits_2(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, _failing_gelfand_config(tmp_path / "out"))


@pytest.mark.parametrize("change", [
    {"set": {"family": "l1_bal", "rho": 1.0}},
    {"x_family": ["studnet_t"]},
    {"noise_family": ["paretoo"]},
    {"q0": 2},
    {"width_draws": 1},
    {"u_grid": [1, 2]},
    {"n": 8},
    {"N": 16},
    {"N": [0]},
    {"nu": 2.0},
    {"n": [2]},
    {"width_draw": 50},
    # the set takes each cell's n as its dim; a dim of its own would be overridden
    {"set": {"family": "l1_ball", "dim": 3, "rho": 1.0}},
], ids=["unknown-set-family", "unknown-law", "unknown-noise", "q0-2", "width-draws-1",
        "u-below-2", "n-not-a-list", "N-not-a-list", "N-0", "heavy-law", "default-df-below-2",
        "misspelt-grid-key", "set-dim"])
def test_cli_multiplier_config_errors_exit_2(tmp_path, capsys, change):
    cfg = _multiplier_config(tmp_path / "out", trials=1)
    cfg.grids.update(change)
    _assert_config_error(tmp_path, capsys, cfg)


@pytest.mark.parametrize("change", [
    {"x_family": ["studnet_t"]},
    {"noise_family": "paretoo"},
    {"q0": 2},
    {"s": [1, 17]},
    {"c1": 0},
    {"n": 16},
    {"N": [0, 8]},
    {"c_1": 2.0},
], ids=["unknown-law", "unknown-noise", "q0-2", "s-above-n", "c1-0", "n-not-a-list", "N-0",
        "misspelt-grid-key"])
def test_cli_recovery_config_errors_exit_2(tmp_path, capsys, change):
    cfg = _recovery_config(tmp_path / "out", trials=1)
    cfg.grids.update(change)
    _assert_config_error(tmp_path, capsys, cfg)


@pytest.mark.parametrize("change", [
    {"p": 1},
    {"n_samples": 1},
    {"laws": [{"family": "gausian"}]},
    {"laws": [{"family": "student_t", "tail_param": 2.0}]},
    {"laws": [{"tail_param": 6.0}]},
    {"laws": [{"family": "gaussian", "tail": 6.0}]},
    {"laws": [{"family": "gaussian", "tail_param": "6"}]},
    {"laws": []},
    {"n_sample": 2000},
], ids=["p-1", "n-samples-1", "unknown-law", "heavy-law", "no-family", "unknown-key",
        "tail-string", "no-laws", "misspelt-grid-key"])
def test_cli_moments_config_errors_exit_2(tmp_path, capsys, change):
    cfg = _moments_config(tmp_path / "out", trials=1)
    cfg.grids.update(change)
    _assert_config_error(tmp_path, capsys, cfg)


@pytest.mark.parametrize("config, change", [
    (_recovery_config, {"x_family": ["symmetric_weibull"], "nu": 0.01}),
    (_moments_config, {"laws": [{"family": "symmetric_weibull", "tail_param": 0.01}]}),
], ids=["recovery", "moments"])
def test_cli_weibull_shape_below_floor_exits_2(tmp_path, capsys, config, change):
    # Gamma(1 + 2/shape) overflows a float: a config error, not a runtime failure
    cfg = config(tmp_path / "out", trials=1)
    cfg.grids.update(change)
    _assert_config_error(tmp_path, capsys, cfg)


def test_weibull_shape_at_floor_runs_without_nan(tmp_path):
    cfg = _moments_config(tmp_path / "out", trials=1)
    cfg.grids["laws"] = [{"family": "symmetric_weibull", "tail_param": 0.05}]
    run(cfg, workers=1)
    rows = list(csv.DictReader(open(tmp_path / "out" / "moments.csv")))
    assert rows and all(math.isfinite(float(r["ratio"])) for r in rows)


@pytest.mark.parametrize("config, change", [
    (_widths_config, {"sets": [{"family": "permutation_polytope", "dim": 4, "w": [0, 0, 0, 0]}]}),
    (_multiplier_config, {"set": {"family": "permutation_polytope", "w": [0.0] * 8},
                          "n": [8]}),
    (_gelfand_config, {"sets": [{"family": "permutation_polytope", "dim": 16,
                                 "w": [0.0] * 16}]}),
], ids=["widths", "multiplier", "gelfand"])
def test_cli_zero_permutation_polytope_exits_2(tmp_path, capsys, config, change):
    # w = 0 generates the set {0}: every experiment rejects it before any task runs
    cfg = config(tmp_path / "out", trials=1)
    cfg.grids.update(change)
    _assert_config_error(tmp_path, capsys, cfg)


def _count_forks(monkeypatch) -> list:
    """A list that gets one entry per worker process the harness forks."""
    started = []
    base = multiprocessing.context.ForkContext.Process

    class RecordingProcess(base):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing.context.ForkContext, "Process", RecordingProcess)
    return started


def test_run_forks_no_idle_workers(tmp_path, monkeypatch):
    # two tasks at eight workers: this process runs tasks too, so one child
    forked = _count_forks(monkeypatch)
    run(_widths_config(tmp_path / "w1"), workers=1)
    assert forked == []
    manifest = run(_widths_config(tmp_path / "w8"), workers=8)
    assert len(forked) == 1
    assert multiprocessing.active_children() == []
    assert manifest.workers == 8
    assert (tmp_path / "w8" / "widths.csv").read_bytes() == (
        tmp_path / "w1" / "widths.csv").read_bytes()


def test_shared_counter_runs_every_task_once(tmp_path, monkeypatch):
    # more workers than cores on many short tasks: a lost update of the
    # counter would run a task twice or not at all
    log = tmp_path / "ran"

    def logged(config, group, ti):
        with log.open("a") as fh:
            fh.write(f"{ti}\n")
        return [[]]

    monkeypatch.setattr(_WidthsAdapter, "trial", staticmethod(logged))
    manifest = run(_widths_config(tmp_path / "out", trials=3000), workers=4)
    assert multiprocessing.active_children() == []
    assert manifest.failed == []
    assert sorted(int(line) for line in log.read_text().split()) == list(range(3000))


def test_worker_that_exits_fails_its_tasks(tmp_path, monkeypatch):
    # a child that dies inside a task loses every task it took: each is in
    # manifest.failed and its cell is dropped; the run neither hangs nor
    # leaves a process behind, and this process runs every other task
    parent = os.getpid()
    took = tmp_path / "child-took-a-task"
    trial = _WidthsAdapter.trial

    def dying(config, group, ti):
        if os.getpid() != parent:
            took.touch()
            os._exit(3)
        # hold this process in its first task until the child has taken one
        deadline = time.monotonic() + 60
        while not took.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return trial(config, group, ti)

    monkeypatch.setattr(_WidthsAdapter, "trial", staticmethod(dying))
    cfg = _widths_config(tmp_path / "out", trials=3)
    cfg.grids["sets"].append({"family": "l1_ball", "dim": 8})
    manifest = run(cfg, workers=2)
    assert multiprocessing.active_children() == []
    assert took.exists()
    [lost] = manifest.failed
    assert lost["trial"] in range(3) and "exited" in lost["error"]
    with (tmp_path / "out" / "widths.csv").open() as fh:
        rows = [(int(row["cell"]), int(row["trial"])) for row in csv.DictReader(fh)]
    kept = 1 - lost["cell"]
    assert dropped_cells(manifest.failed) == [lost["cell"]]
    assert sorted(set(rows)) == [(kept, ti) for ti in range(3)]


def test_unpicklable_outcome_fails_its_task_with_the_reason(tmp_path, monkeypatch):
    # a child whose outcome cannot be pickled sends that task's failure and
    # the reason, and its other tasks come back as usual
    parent = os.getpid()
    took = tmp_path / "child-took-a-task"
    trial = _WidthsAdapter.trial

    def unpicklable(config, group, ti):
        if os.getpid() != parent and not took.exists():
            took.touch()
            return [lambda: None for _ in group]
        deadline = time.monotonic() + 60
        while not took.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return trial(config, group, ti)

    monkeypatch.setattr(_WidthsAdapter, "trial", staticmethod(unpicklable))
    cfg = _widths_config(tmp_path / "out", trials=3)
    cfg.grids["sets"].append({"family": "l1_ball", "dim": 8})
    manifest = run(cfg, workers=2)
    assert multiprocessing.active_children() == []
    [lost] = manifest.failed
    assert "could not return" in lost["error"] and "pickle" in lost["error"].lower()
    with (tmp_path / "out" / "widths.csv").open() as fh:
        rows = [(int(row["cell"]), int(row["trial"])) for row in csv.DictReader(fh)]
    kept = 1 - lost["cell"]
    assert sorted(set(rows)) == [(kept, ti) for ti in range(3)]


def test_run_terminates_its_children_on_an_exception(tmp_path, monkeypatch):
    class Stop(BaseException):
        pass

    parent = os.getpid()

    def stuck(config, group, ti):
        if os.getpid() != parent:
            time.sleep(60)
        raise Stop

    monkeypatch.setattr(_WidthsAdapter, "trial", staticmethod(stuck))
    start = time.monotonic()
    with pytest.raises(Stop):
        run(_widths_config(tmp_path / "out", trials=4), workers=3)
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30


def test_cli_experiment_mismatch(tmp_path):
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps(_widths_config(tmp_path / "out", trials=1).to_dict()))
    assert cli_main(["multiplier", "--config", str(cfg)]) == 2


def test_cli_run_and_summarize(tmp_path, capsys):
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps(_widths_config(tmp_path / "out", trials=1).to_dict()))
    assert cli_main(["widths", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["summarize", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "experiment: widths"
    # the versions print above "criteria:", since every line after it is a criterion
    versions = f"versions: numpy {np.__version__}, python {platform.python_version()}"
    assert out.index(versions) == out.index("criteria:") - 1
    # a manifest from before the versions were recorded still summarizes
    manifest_path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["versions"]
    manifest_path.write_text(json.dumps(manifest))
    assert cli_main(["summarize", str(tmp_path / "out")]) == 0
    assert "versions: not recorded\ncriteria:\n" in capsys.readouterr().out


def test_cli_seed_and_out_overrides(tmp_path):
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps(_widths_config(tmp_path / "out", trials=1).to_dict()))
    assert cli_main(["widths", "--config", str(cfg_path),
                     "--seed", "999", "--out", str(tmp_path / "other")]) == 0
    manifest = json.loads((tmp_path / "other" / "manifest.json").read_text())
    assert manifest["seed_ledger"]["cell0/trial0"][0] == 999


@pytest.mark.parametrize("output_dir", [None, ["x"], 3])
def test_cli_non_string_output_dir_exits_2(tmp_path, capsys, monkeypatch, output_dir):
    # a str() conversion would run null into a directory named None
    monkeypatch.chdir(tmp_path)
    cfg = {**_widths_config("unused", trials=1).to_dict(), "output_dir": output_dir}
    Path("c.json").write_text(json.dumps(cfg))
    assert cli_main(["widths", "--config", "c.json"]) == 2
    assert "output_dir must be a string" in capsys.readouterr().err
    assert os.listdir() == ["c.json"]


def test_cli_bad_seed_override_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps(_widths_config(tmp_path / "out", trials=1).to_dict()))
    for seed in ("-1", str(2**64)):
        assert cli_main(["widths", "--config", str(cfg_path), "--seed", seed]) == 2
        assert "config error: master_seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_workers_below_one(tmp_path, capsys):
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps(_widths_config(tmp_path / "out", trials=1).to_dict()))
    for workers in ("0", "-3"):
        assert cli_main(["widths", "--config", str(cfg_path), "--workers", workers]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dropped_cells_reported(tmp_path, capsys, monkeypatch):
    _break_multiplier_width(monkeypatch)
    out = tmp_path / "out"
    cfg_path = tmp_path / "m.json"
    cfg_path.write_text(json.dumps(_multiplier_config(out).to_dict()))
    assert cli_main(["multiplier", "--config", str(cfg_path)]) == 1
    assert "cells dropped from the CSV: [0, 1]" in capsys.readouterr().err

    report = summarize(out)
    assert report.dropped_cells == [0, 1]
    assert [crit["status"] for crit in report.criteria] == ["insufficient-data"]
    assert cli_main(["summarize", str(out)]) == 0
    assert "dropped cells (a task failed): [0, 1]" in capsys.readouterr().out
