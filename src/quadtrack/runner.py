"""Experiment execution behind the command line: sweeps, traces, files.

Sweep points run in order with all randomness keyed by (seed, stream
index), and both CSV and metadata sidecar are assembled in memory before
anything touches disk, so a rerun with the same document and seed
produces byte-identical files.  A trace table is built as a list of
fixed-size text parts, all of them before its file is opened, and
written part after part, so no copy of the whole text is ever joined.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import os

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_scenario, parse_config, validate_config
from .control_math import RngStream, chebyshev_grid
from .errors import NoStabilizingController
from .evaluation import analytic_cost, empirical_cost, error_trace, moving_average
from .lti import TransferFunctionSISO, loop_h2_stack, loop_peaks, loop_stable, ss_to_tf
from .presets import preset_document
from .scenario import STREAM_SIM_BASE, QuadraticScenario
from .synthesis import SynthesisOptions, precompensated_synthesize
from .trackers import (
    UncertaintyInterval,
    controller_from_dict,
    controller_to_dict,
    make_gd_tracker,
    make_kalman_tracker,
    mu_star_from_eigs,
    mu_star_search,
    mu_star_uniform,
)

__all__ = ["run_preset", "run_config", "synthesize_cmd", "evaluate_cmd"]

SWEEP_HEADER = ("param,sqrtJ_gd_analytic,sqrtJ_gd_emp,sqrtJ_hinf_analytic,"
                "sqrtJ_hinf_emp,sqrtJ_kalman_analytic,sqrtJ_kalman_emp")
TRACE_HEADER = "k,err_gd,err_hinf,err_kalman"
_COLUMN_ORDER = ("gd", "hinf", "kalman")
# Rows per part of the trace table: about 190 kB of text with two trackers.
_TRACE_ROWS = 4096


def _fmt(value) -> str:
    """17-significant-digit cell; missing or infinite values render empty."""
    if value is None or not math.isfinite(value):
        return ""
    return f"{value:.17g}"


def _write_text(path: str, *parts: str) -> str:
    """Write the parts one after the other; they are all built beforehand."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(parts)
    return path


def _write_meta(csv_path: str, doc: dict, preset: str | None, seed: int) -> str:
    config = {k: v for k, v in doc.items() if k != "output"}
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canon.encode("utf-8")).hexdigest()[:12]
    meta = {
        "preset": preset,
        "seed": seed,
        "version": f"quadtrack-{__version__}+g{digest}",
        "config": config,
    }
    path = os.path.splitext(csv_path)[0] + ".meta.json"
    return _write_text(path, json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _kalman_mu(cfg: ExperimentConfig, scenario: QuadraticScenario) -> float:
    mode = cfg.trackers.kalman_mu
    if mode == "search":
        return mu_star_search(scenario.model, scenario.spectrum)
    if mode == "uniform":
        return mu_star_uniform(scenario.lambda_min, scenario.lambda_max)
    if mode == "eigs":
        return mu_star_from_eigs(scenario.spectrum)
    return float(mode)


def _synthesize(cfg: ExperimentConfig, scenario: QuadraticScenario, h: TransferFunctionSISO):
    """The configured worst-case synthesis for h, the scenario's signal model."""
    spec = cfg.trackers
    return precompensated_synthesize(
        h, UncertaintyInterval(scenario.lambda_min, scenario.lambda_max),
        SynthesisOptions(order=spec.hinf_order, grid_points=spec.hinf_grid,
                         starts=spec.synthesis_starts, max_evals=spec.synthesis_max_evals,
                         seed=scenario.seed))


def _build_trackers(cfg: ExperimentConfig, scenario: QuadraticScenario,
                    h: TransferFunctionSISO) -> dict:
    spec = cfg.trackers
    out = {}
    if "gd" in spec.use:
        alpha = spec.gd_alpha if spec.gd_alpha is not None else 1.0 / scenario.lambda_max
        out["gd"] = make_gd_tracker(alpha)
    if "kalman" in spec.use:
        try:
            out["kalman"] = make_kalman_tracker(scenario.model, _kalman_mu(cfg, scenario))
        except NoStabilizingController:
            # spectrum spread exceeds this structure's gain margin; the
            # tracker diverges for every tuning, so its columns stay empty
            pass
    if "hinf" in spec.use:
        try:
            out["hinf"] = _synthesize(cfg, scenario, h)
        except NoStabilizingController:
            # no start stabilizes the whole interval; columns stay empty
            pass
    return out


def _sweep_point(cfg: ExperimentConfig, value: float) -> tuple:
    run = cfg.run
    # each sweep parameter names the ScenarioSpec field it replaces
    scenario = build_scenario(dataclasses.replace(cfg.scenario, **{run.sweep_param: value}))
    h = ss_to_tf(scenario.model)
    ctrls = _build_trackers(cfg, scenario, h)
    analytic = {}
    empirical = {}
    for name in _COLUMN_ORDER:
        ctrl = ctrls.get(name)
        if ctrl is None:
            analytic[name] = None
            empirical[name] = None
            continue
        cost = analytic_cost(h, ctrl.tf, scenario.spectrum, scenario.sigma ** 2)
        analytic[name] = math.sqrt(cost)
        if math.isfinite(cost):
            mean, _ = empirical_cost(scenario, ctrl, run.horizon, run.burnin,
                                     run.reps, RngStream(scenario.seed, STREAM_SIM_BASE))
            empirical[name] = math.sqrt(mean)
        else:
            empirical[name] = None
    return analytic, empirical


def run_sweep(cfg: ExperimentConfig) -> tuple:
    """Parameter grid and the (analytic, empirical) cells at each point."""
    run = cfg.run
    values = [float(v) for v in np.linspace(run.sweep_lo, run.sweep_hi, run.sweep_points)]
    return values, [_sweep_point(cfg, v) for v in values]


def _sweep_csv_text(values: list, points: list) -> str:
    """One row per parameter value, sqrt(J) analytic and empirical per tracker.

    A cell is None when that tracker was not run and +inf when its cost
    diverges; both render as an empty field.
    """
    lines = [SWEEP_HEADER]
    for value, (analytic, empirical) in zip(values, points):
        cells = [_fmt(value)]
        for name in _COLUMN_ORDER:
            cells.append(_fmt(analytic[name]))
            cells.append(_fmt(empirical[name]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_trace(cfg: ExperimentConfig) -> dict:
    """Smoothed error-norm trace per tracker, on one shared noise path.

    A tracker whose loop is unstable on the scenario's spectrum is not
    simulated, so its column stays empty, as its sweep cells do.
    """
    scenario = build_scenario(cfg.scenario)
    h = ss_to_tf(scenario.model)
    ctrls = _build_trackers(cfg, scenario, h)
    names = [name for name in _COLUMN_ORDER
             if name in ctrls and loop_stable(h, ctrls[name].tf, scenario.spectrum).all()]
    traces = error_trace(scenario, [ctrls[name] for name in names],
                         cfg.run.horizon, RngStream(scenario.seed, STREAM_SIM_BASE))
    columns = {name: None for name in _COLUMN_ORDER}
    for name, trace in zip(names, traces):
        columns[name] = moving_average(trace, cfg.run.window)
    return columns


def _trace_csv_parts(horizon: int, columns: dict) -> list:
    """The trace table as consecutive text parts, _TRACE_ROWS rows each.

    Each part is formatted with one %-template, with empty fields for the
    trackers not run.  %.17g writes the non-finite values as inf, -inf and
    nan, and no finite %.17g or %d field holds an n, so blanking those
    tokens in a part that holds one gives the empty cells of `_fmt`.
    """
    cols = [columns[name] for name in _COLUMN_ORDER]
    row = "%d" + "".join(",%.17g" if col is not None else "," for col in cols) + "\n"
    present = [col for col in cols if col is not None]
    parts = [TRACE_HEADER + "\n"]
    for lo in range(0, horizon, _TRACE_ROWS):
        hi = min(lo + _TRACE_ROWS, horizon)
        cells = zip(range(lo, hi), *(col[lo:hi].tolist() for col in present))
        text = row * (hi - lo) % tuple(itertools.chain.from_iterable(cells))
        if "n" in text:
            text = text.replace("-inf", "").replace("inf", "").replace("nan", "")
        parts.append(text)
    return parts


def execute_config(cfg: ExperimentConfig, preset: str | None = None) -> list:
    """Run the configured experiment and write its CSV plus metadata sidecar."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.run.sweep_param is not None:
        name = cfg.out_name or "sweep.csv"
        parts = [_sweep_csv_text(*run_sweep(cfg))]
    else:
        name = cfg.out_name or "trace.csv"
        parts = _trace_csv_parts(cfg.run.horizon, run_trace(cfg))
    csv_path = _write_text(os.path.join(cfg.out_dir, name), *parts)
    meta_path = _write_meta(csv_path, cfg.raw, preset, cfg.scenario.seed)
    return [csv_path, meta_path]


def run_preset(name: str, out_dir: str, seed: int) -> list:
    """Execute one named benchmark preset; returns the written file paths."""
    doc = preset_document(name, int(seed), out_dir)
    return execute_config(validate_config(doc), preset=name)


def run_config(config_path: str) -> list:
    """Execute the experiment described by a config file."""
    return execute_config(parse_config(config_path))


def synthesize_cmd(config_path: str, out_path: str) -> str:
    """Synthesize the worst-case controller for the configured scenario.

    Writes the controller document (with its certified gamma) to out_path
    and prints the achieved level plus a grid stability summary.
    """
    cfg = parse_config(config_path)
    scenario = build_scenario(cfg.scenario)
    ctrl = _synthesize(cfg, scenario, ss_to_tf(scenario.model))
    _write_text(out_path, json.dumps(controller_to_dict(ctrl), indent=2) + "\n")
    # the certified gamma is finite, so the loop is stable at every grid point
    print(f"Jhat = {ctrl.gamma:.17g}")
    print(f"stable at {ctrl.lambda_grid.size}/{ctrl.lambda_grid.size} grid points")
    return out_path


def evaluate_cmd(controller_path: str, config_path: str) -> list:
    """Report every cost figure for a stored controller on a scenario.

    Prints the analytic, worst-case and empirical costs and how many
    realized curvatures give a stable loop, and writes a per-curvature
    table (stability flag and both norms) across the interval grid.
    """
    cfg = parse_config(config_path)
    with open(controller_path, "r", encoding="utf-8") as fh:
        ctrl = controller_from_dict(json.load(fh))
    scenario = build_scenario(cfg.scenario)
    h = ss_to_tf(scenario.model)
    flags = loop_stable(h, ctrl.tf, scenario.spectrum)
    analytic = analytic_cost(h, ctrl.tf, scenario.spectrum, scenario.sigma ** 2)
    if math.isfinite(analytic):
        emp_mean, emp_stderr = empirical_cost(
            scenario, ctrl, cfg.run.horizon, cfg.run.burnin, cfg.run.reps,
            RngStream(scenario.seed, STREAM_SIM_BASE))
    else:
        emp_mean, emp_stderr = float("inf"), 0.0
    grid = chebyshev_grid(scenario.lambda_min, scenario.lambda_max, cfg.trackers.hinf_grid)
    # +inf exactly where the loop is unstable, so the largest is robust_cost on the grid
    peaks = loop_peaks(h, ctrl.tf, grid)
    stable = np.isfinite(peaks)
    h2_sq = iter(loop_h2_stack(h, ctrl.tf.den, ctrl.tf.num, grid[stable])[0].tolist())
    lines = ["lambda,stable,h2_norm_sq,hinf_norm"]
    for lam, ok, peak in zip(grid.tolist(), stable.tolist(), peaks.tolist()):
        lines.append(f"{_fmt(lam)},true,{_fmt(next(h2_sq))},{_fmt(peak)}" if ok
                     else f"{_fmt(lam)},false,,")
    robust = max(peaks.tolist())

    def show(value):
        return f"{value:.17g}" if math.isfinite(value) else "inf"

    print(f"analytic_J = {show(analytic)}")
    print(f"robust_Jhat = {show(robust)}")
    print(f"empirical_J = {show(emp_mean)}")
    print(f"empirical_stderr = {show(emp_stderr)}")
    print(f"per_lambda_stable = {int(flags.sum())}/{flags.size}")

    os.makedirs(cfg.out_dir, exist_ok=True)
    table_path = _write_text(os.path.join(cfg.out_dir, "evaluation.csv"),
                             "\n".join(lines) + "\n")
    return [table_path]
