"""Experiment execution behind the command line: sweeps, traces, files.

Sweep points run in order with all randomness keyed by (seed, stream
index), and both CSV and metadata sidecar are assembled in memory before
anything touches disk, so a rerun with the same document and seed
produces byte-identical files.
"""

import hashlib
import json
import math
import os

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_scenario, parse_config, validate_config
from .control_math import RngStream, chebyshev_grid
from .errors import NoStabilizingController, UnknownPreset
from .evaluation import (
    CostReport,
    analytic_cost,
    empirical_cost,
    error_trace,
    moving_average,
    robust_cost,
)
from .lti import loop_norms, loop_stable, ss_to_tf
from .presets import PRESET_NAMES, preset_document
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


def _fmt(value) -> str:
    """17-significant-digit cell; missing or infinite values render empty."""
    if value is None or not math.isfinite(value):
        return ""
    return f"{value:.17g}"


def _version_string(doc: dict) -> str:
    payload = {k: v for k, v in doc.items() if k != "output"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canon.encode("utf-8")).hexdigest()[:12]
    return f"quadtrack-{__version__}+g{digest}"


def _write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _write_meta(csv_path: str, doc: dict, preset: str | None, seed: int) -> str:
    meta = {
        "preset": preset,
        "seed": seed,
        "version": _version_string(doc),
        "config": {k: v for k, v in doc.items() if k != "output"},
    }
    path = os.path.splitext(csv_path)[0] + ".meta.json"
    return _write_text(path, json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _kalman_mu(cfg: ExperimentConfig, scenario: QuadraticScenario, sigma2: float) -> float:
    mode = cfg.trackers.kalman_mu
    if mode == "search":
        return mu_star_search(scenario.model, sigma2, scenario.spectrum)
    if mode == "uniform":
        return mu_star_uniform(scenario.lambda_min, scenario.lambda_max)
    if mode == "eigs":
        return mu_star_from_eigs(scenario.spectrum)
    return float(mode)


def _build_trackers(cfg: ExperimentConfig, scenario: QuadraticScenario) -> dict:
    spec = cfg.trackers
    interval = UncertaintyInterval(scenario.lambda_min, scenario.lambda_max)
    sigma2 = scenario.sigma ** 2 if scenario.sigma > 0.0 else 1.0
    out = {}
    if "gd" in spec.use and scenario.model_is_stable:
        alpha = spec.gd_alpha if spec.gd_alpha is not None else 1.0 / scenario.lambda_max
        out["gd"] = make_gd_tracker(alpha)
    if "kalman" in spec.use:
        try:
            out["kalman"] = make_kalman_tracker(scenario.model, sigma2,
                                                _kalman_mu(cfg, scenario, sigma2))
        except NoStabilizingController:
            # spectrum spread exceeds this structure's gain margin; the
            # tracker diverges for every tuning, so its columns stay empty
            pass
    if "hinf" in spec.use:
        opts = SynthesisOptions(order=spec.hinf_order, grid_points=spec.hinf_grid,
                                starts=spec.synthesis_starts,
                                max_evals=spec.synthesis_max_evals,
                                seed=scenario.seed)
        try:
            out["hinf"] = precompensated_synthesize(ss_to_tf(scenario.model), interval, opts)
        except NoStabilizingController:
            # no start stabilizes the whole interval; columns stay empty
            pass
    return out


def _sweep_point(cfg: ExperimentConfig, value: float) -> tuple:
    run = cfg.run
    scenario = build_scenario(
        cfg.scenario,
        lambda_max_override=value if run.sweep_param == "lambda_max" else None,
        j_override=value if run.sweep_param == "j" else None,
    )
    h = ss_to_tf(scenario.model)
    ctrls = _build_trackers(cfg, scenario)
    analytic = {}
    empirical = {}
    for name in _COLUMN_ORDER:
        ctrl = ctrls.get(name)
        if ctrl is None:
            analytic[name] = None
            empirical[name] = None
            continue
        cost = analytic_cost(h, ctrl.tf, scenario.spectrum, scenario.sigma ** 2)
        analytic[name] = math.sqrt(cost) if math.isfinite(cost) else float("inf")
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
    ctrls = _build_trackers(cfg, scenario)
    names = [name for name in _COLUMN_ORDER
             if name in ctrls and loop_stable(h, ctrls[name].tf, scenario.spectrum).all()]
    traces = error_trace(scenario, [ctrls[name] for name in names],
                         cfg.run.horizon, RngStream(scenario.seed, STREAM_SIM_BASE))
    columns = {name: None for name in _COLUMN_ORDER}
    for name, trace in zip(names, traces):
        columns[name] = moving_average(trace, cfg.run.window).values
    return columns


def _trace_csv_text(cfg: ExperimentConfig, columns: dict) -> str:
    lines = [TRACE_HEADER]
    for k in range(cfg.run.horizon):
        cells = [str(k)]
        for name in _COLUMN_ORDER:
            col = columns[name]
            cells.append(_fmt(float(col[k])) if col is not None else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def execute_config(cfg: ExperimentConfig, preset: str | None = None) -> list:
    """Run the configured experiment and write its CSV plus metadata sidecar."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.run.sweep_param is not None:
        name = cfg.out_name or "sweep.csv"
        text = _sweep_csv_text(*run_sweep(cfg))
    else:
        name = cfg.out_name or "trace.csv"
        text = _trace_csv_text(cfg, run_trace(cfg))
    csv_path = _write_text(os.path.join(cfg.out_dir, name), text)
    meta_path = _write_meta(csv_path, cfg.raw, preset, cfg.scenario.seed)
    return [csv_path, meta_path]


def run_preset(name: str, out_dir: str, seed: int) -> list:
    """Execute one named benchmark preset; returns the written file paths."""
    if name not in PRESET_NAMES:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {list(PRESET_NAMES)}")
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
    interval = UncertaintyInterval(scenario.lambda_min, scenario.lambda_max)
    spec = cfg.trackers
    opts = SynthesisOptions(order=spec.hinf_order, grid_points=spec.hinf_grid,
                            starts=spec.synthesis_starts,
                            max_evals=spec.synthesis_max_evals, seed=scenario.seed)
    h = ss_to_tf(scenario.model)
    ctrl = precompensated_synthesize(h, interval, opts)
    _write_text(out_path, json.dumps(controller_to_dict(ctrl), indent=2) + "\n")
    grid = chebyshev_grid(interval.lambda_min, interval.lambda_max, spec.hinf_grid)
    stable = loop_stable(h, ctrl.tf, grid)
    print(f"Jhat = {ctrl.gamma:.17g}")
    print(f"stable at {int(stable.sum())}/{stable.size} grid points")
    return out_path


def _load_controller(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return controller_from_dict(doc)


def evaluate_cmd(controller_path: str, config_path: str) -> list:
    """Report every cost figure for a stored controller on a scenario.

    Prints the CostReport fields and writes a per-curvature table
    (stability flag and both norms) across the interval grid.
    """
    cfg = parse_config(config_path)
    ctrl = _load_controller(controller_path)
    scenario = build_scenario(cfg.scenario)
    h = ss_to_tf(scenario.model)
    interval = UncertaintyInterval(scenario.lambda_min, scenario.lambda_max)
    sigma2 = scenario.sigma ** 2
    flags = loop_stable(h, ctrl.tf, scenario.spectrum).tolist()
    analytic = analytic_cost(h, ctrl.tf, scenario.spectrum, sigma2)
    robust = robust_cost(h, ctrl.tf, interval, cfg.trackers.hinf_grid)
    if math.isfinite(analytic):
        emp_mean, emp_stderr = empirical_cost(
            scenario, ctrl, cfg.run.horizon, cfg.run.burnin, cfg.run.reps,
            RngStream(scenario.seed, STREAM_SIM_BASE))
    else:
        emp_mean, emp_stderr = float("inf"), 0.0
    report = CostReport(analytic, robust, emp_mean, emp_stderr, flags)

    def show(value):
        return f"{value:.17g}" if math.isfinite(value) else "inf"

    print(f"analytic_J = {show(report.analytic_J)}")
    print(f"robust_Jhat = {show(report.robust_Jhat)}")
    print(f"empirical_J = {show(report.empirical_J)}")
    print(f"empirical_stderr = {show(report.empirical_stderr)}")
    print(f"per_lambda_stable = {sum(report.per_lambda_stable)}/"
          f"{len(report.per_lambda_stable)}")

    grid = chebyshev_grid(interval.lambda_min, interval.lambda_max,
                          cfg.trackers.hinf_grid)
    h2_sq, hinf = loop_norms(h, ctrl.tf, grid, peak=True)
    lines = ["lambda,stable,h2_norm_sq,hinf_norm"]
    for lam, stable, h2, peak in zip(grid.tolist(), loop_stable(h, ctrl.tf, grid).tolist(),
                                     h2_sq.tolist(), hinf.tolist()):
        lines.append(f"{_fmt(lam)},true,{_fmt(h2)},{_fmt(peak)}" if stable
                     else f"{_fmt(lam)},false,,")
    os.makedirs(cfg.out_dir, exist_ok=True)
    table_path = _write_text(os.path.join(cfg.out_dir, "evaluation.csv"),
                             "\n".join(lines) + "\n")
    return [table_path]
