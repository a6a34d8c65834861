"""Experiment configuration: one JSON document, validated field by field.

Every validation failure raises ConfigError naming the dotted field path
(for example "scenario.lambda_min"), so a bad file is diagnosable from
the message alone.  A key the format does not define is an error too,
so a misspelled option cannot fall back to its default unnoticed.
Parsed configs are plain dataclasses; the builders at the bottom turn
them into live scenario objects, applying the sweep overrides for a
single sweep point.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError
from .lti import StateSpaceSISO, observable_canonical
from .scenario import QuadraticScenario, make_scenario

__all__ = ["ScenarioSpec", "TrackerSpec", "RunSpec", "ExperimentConfig",
           "parse_config", "validate_config", "build_model", "build_scenario"]

TRACKER_NAMES = ("gd", "kalman", "hinf")
SWEEP_PARAMS = ("j", "lambda_max")

# The keys each object of the document may hold.
_ROOT_KEYS = ("scenario", "trackers", "run", "output")
_SCENARIO_KEYS = ("n", "lambda_min", "lambda_max", "sigma", "d_stable", "d_unstable",
                  "j", "g", "seed")
_TRACKER_KEYS = ("use", "gd_alpha", "kalman_mu", "hinf_order", "hinf_grid",
                 "synthesis_starts", "synthesis_max_evals")
_RUN_KEYS = ("horizon", "burnin", "reps", "window", "sweep")
_SWEEP_KEYS = ("param", "lo", "hi", "points")
_OUTPUT_KEYS = ("dir", "name")


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(doc, path: str, known: tuple) -> dict:
    """doc itself, once it is a JSON object holding only the known keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown field {_ctx(path, key)}")
    return doc


def _get(doc: dict, key: str, path: str, required: bool, default=None):
    if key in doc:
        return doc[key]
    if required:
        raise ConfigError(f"missing required field {_ctx(path, key)}")
    return default


def _as_int(value, where: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {value}")
    return value


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value}")
    return value


def _as_poly(value, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{where} must be a nonempty coefficient list")
    coeffs = np.array([_as_real(v, where) for v in value], dtype=float)
    if coeffs[-1] == 0.0:
        raise ConfigError(f"{where} has a zero leading coefficient")
    return coeffs / coeffs[-1]


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    if coeffs.size == 1:
        return np.zeros(0)
    return npoly.polyroots(coeffs)


@dataclass
class ScenarioSpec:
    n: int
    lambda_min: float
    lambda_max: float
    sigma: float
    d_stable: np.ndarray
    d_unstable: np.ndarray
    j: float
    g: object
    seed: int


@dataclass
class TrackerSpec:
    use: list
    gd_alpha: float | None
    kalman_mu: object
    hinf_order: int | None
    hinf_grid: int
    synthesis_starts: int
    synthesis_max_evals: int


@dataclass
class RunSpec:
    horizon: int
    burnin: int
    reps: int
    sweep_param: str | None
    sweep_lo: float
    sweep_hi: float
    sweep_points: int
    window: int


@dataclass
class ExperimentConfig:
    scenario: ScenarioSpec
    trackers: TrackerSpec
    run: RunSpec
    out_dir: str
    out_name: str | None = None
    raw: dict = field(repr=False, default_factory=dict)


def _validate_scenario(doc, path="scenario") -> ScenarioSpec:
    _object(doc, path, _SCENARIO_KEYS)
    n = _as_int(_get(doc, "n", path, True), _ctx(path, "n"), minimum=1)
    lambda_min = _as_real(_get(doc, "lambda_min", path, False, 1.0), _ctx(path, "lambda_min"))
    lambda_max = _as_real(_get(doc, "lambda_max", path, True), _ctx(path, "lambda_max"))
    if not 0.0 < lambda_min <= lambda_max:
        raise ConfigError(
            f"{path}: need 0 < lambda_min <= lambda_max, got [{lambda_min}, {lambda_max}]")
    sigma = _as_real(_get(doc, "sigma", path, False, 1.0), _ctx(path, "sigma"))
    if sigma < 0.0:
        raise ConfigError(f"{_ctx(path, 'sigma')} must be nonnegative")
    d_stable = _as_poly(_get(doc, "d_stable", path, False, [1.0]), _ctx(path, "d_stable"))
    roots = _poly_roots(d_stable)
    if roots.size and np.max(np.abs(roots)) >= 1.0 - 1e-9:
        raise ConfigError(f"{_ctx(path, 'd_stable')} must have all roots strictly inside "
                          f"the unit circle")
    d_unstable = _as_poly(_get(doc, "d_unstable", path, False, [1.0]),
                          _ctx(path, "d_unstable"))
    roots = _poly_roots(d_unstable)
    if roots.size and np.min(np.abs(roots)) < 1.0 - 1e-9:
        raise ConfigError(f"{_ctx(path, 'd_unstable')} roots must all have modulus "
                          f">= 1 - 1e-9 (persistent modes)")
    j = _as_real(_get(doc, "j", path, True), _ctx(path, "j"))
    g = _get(doc, "g", path, False, "ones")
    if isinstance(g, str):
        if g != "ones":
            raise ConfigError(f"{_ctx(path, 'g')} must be \"ones\" or a coefficient list")
    else:
        if not isinstance(g, (list, tuple)) or len(g) == 0:
            raise ConfigError(f"{_ctx(path, 'g')} must be \"ones\" or a coefficient list")
        g = [_as_real(v, _ctx(path, "g")) for v in g]
        order = d_stable.size + d_unstable.size - 2
        if len(g) != order:
            raise ConfigError(f"{_ctx(path, 'g')} must have length {order} "
                              f"(the model order), got {len(g)}")
        if j == 0.0 and not any(g):
            raise ConfigError(f"{_ctx(path, 'g')} is all zeros and j is 0: the signal "
                              f"model is zero, so the minimizer never moves")
    seed = _as_int(_get(doc, "seed", path, True), _ctx(path, "seed"))
    if d_stable.size + d_unstable.size - 2 < 1:
        raise ConfigError(f"{path}: model order is zero; give d_stable or d_unstable "
                          f"a root")
    return ScenarioSpec(n, lambda_min, lambda_max, sigma, d_stable, d_unstable,
                        j, g, seed)


def _validate_trackers(doc, path="trackers") -> TrackerSpec:
    if doc is None:
        doc = {}
    _object(doc, path, _TRACKER_KEYS)
    use = _get(doc, "use", path, False, list(TRACKER_NAMES))
    if not isinstance(use, (list, tuple)) or len(use) == 0:
        raise ConfigError(f"{_ctx(path, 'use')} must be a nonempty list")
    for name in use:
        if name not in TRACKER_NAMES:
            raise ConfigError(f"{_ctx(path, 'use')} entries must be among "
                              f"{list(TRACKER_NAMES)}, got {name!r}")
    gd_alpha = _get(doc, "gd_alpha", path, False)
    if gd_alpha is not None:
        gd_alpha = _as_real(gd_alpha, _ctx(path, "gd_alpha"))
        if gd_alpha <= 0.0:
            raise ConfigError(f"{_ctx(path, 'gd_alpha')} must be positive")
    kalman_mu = _get(doc, "kalman_mu", path, False, "search")
    if isinstance(kalman_mu, str):
        if kalman_mu not in ("search", "uniform", "eigs"):
            raise ConfigError(f"{_ctx(path, 'kalman_mu')} must be \"search\", \"uniform\", "
                              f"\"eigs\", or a positive number")
    else:
        kalman_mu = _as_real(kalman_mu, _ctx(path, "kalman_mu"))
        if kalman_mu <= 0.0:
            raise ConfigError(f"{_ctx(path, 'kalman_mu')} must be positive")
    hinf_order = _get(doc, "hinf_order", path, False)
    if hinf_order is not None:
        hinf_order = _as_int(hinf_order, _ctx(path, "hinf_order"), minimum=1)
    hinf_grid = _as_int(_get(doc, "hinf_grid", path, False, 33),
                        _ctx(path, "hinf_grid"), minimum=2)
    starts = _as_int(_get(doc, "synthesis_starts", path, False, 6),
                     _ctx(path, "synthesis_starts"), minimum=1)
    max_evals = _as_int(_get(doc, "synthesis_max_evals", path, False, 600),
                        _ctx(path, "synthesis_max_evals"), minimum=1)
    return TrackerSpec(list(use), gd_alpha, kalman_mu, hinf_order, hinf_grid,
                       starts, max_evals)


def _validate_run(doc, scenario: ScenarioSpec, path="run") -> RunSpec:
    _object(doc, path, _RUN_KEYS)
    horizon = _as_int(_get(doc, "horizon", path, True), _ctx(path, "horizon"), minimum=1)
    burnin = _get(doc, "burnin", path, False)
    if burnin is None:
        burnin = horizon // 20
    else:
        burnin = _as_int(burnin, _ctx(path, "burnin"), minimum=0)
    if burnin >= horizon:
        raise ConfigError(f"{path}: burnin ({burnin}) must be below horizon ({horizon})")
    reps = _as_int(_get(doc, "reps", path, False, 4), _ctx(path, "reps"), minimum=1)
    window = _as_int(_get(doc, "window", path, False, 1000), _ctx(path, "window"),
                     minimum=1)
    sweep = _get(doc, "sweep", path, False)
    if sweep is None:
        return RunSpec(horizon, burnin, reps, None, 0.0, 0.0, 0, window)
    spath = _ctx(path, "sweep")
    _object(sweep, spath, _SWEEP_KEYS)
    param = _get(sweep, "param", spath, True)
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"{_ctx(spath, 'param')} must be one of {list(SWEEP_PARAMS)}, "
                          f"got {param!r}")
    lo = _as_real(_get(sweep, "lo", spath, True), _ctx(spath, "lo"))
    hi = _as_real(_get(sweep, "hi", spath, True), _ctx(spath, "hi"))
    if not lo <= hi:
        raise ConfigError(f"{spath}: need lo <= hi, got [{lo}, {hi}]")
    points = _as_int(_get(sweep, "points", spath, False, 10), _ctx(spath, "points"),
                     minimum=1)
    if points == 1 and lo != hi:
        raise ConfigError(f"{spath}: a 1-point sweep needs lo == hi, got [{lo}, {hi}]")
    zero_g = not isinstance(scenario.g, str) and not any(scenario.g)
    if param == "j" and zero_g and lo <= 0.0 <= hi:
        raise ConfigError(f"{spath}: scenario.g is all zeros, so the swept j reaches the "
                          f"zero signal model at j = 0")
    if param == "lambda_max" and lo < scenario.lambda_min:
        raise ConfigError(f"{spath}: swept lambda_max starts below scenario.lambda_min "
                          f"({lo} < {scenario.lambda_min})")
    return RunSpec(horizon, burnin, reps, param, lo, hi, points, window)


def validate_config(doc: dict) -> ExperimentConfig:
    _object(doc, "", _ROOT_KEYS)
    scenario = _validate_scenario(_get(doc, "scenario", "", True))
    trackers = _validate_trackers(_get(doc, "trackers", "", False))
    run = _validate_run(_get(doc, "run", "", True), scenario)
    output = _object(_get(doc, "output", "", False, {}), "output", _OUTPUT_KEYS)
    out_dir = _get(output, "dir", "output", False, ".")
    if not isinstance(out_dir, str) or out_dir == "":
        raise ConfigError("output.dir must be a nonempty string")
    out_name = _get(output, "name", "output", False)
    if out_name is not None and (not isinstance(out_name, str) or out_name == ""):
        raise ConfigError("output.name must be a nonempty string")
    return ExperimentConfig(scenario, trackers, run, out_dir, out_name, raw=doc)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path} at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")
    return validate_config(doc)


def build_model(spec: ScenarioSpec, j_override: float | None = None) -> StateSpaceSISO:
    """Signal model from the configured polynomials: companion F, given G."""
    char = npoly.polymul(spec.d_unstable, spec.d_stable)
    f, h = observable_canonical(char)
    m = char.size - 1
    if isinstance(spec.g, str):
        g = np.ones(m)
    else:
        g = np.asarray(spec.g, dtype=float)
    j = spec.j if j_override is None else float(j_override)
    return StateSpaceSISO(f, g, h, j)


def build_scenario(spec: ScenarioSpec, lambda_max_override: float | None = None,
                   j_override: float | None = None) -> QuadraticScenario:
    """Scenario for one experiment point, honoring sweep overrides.

    The spectrum and basis streams depend only on (seed, n, bounds), so a
    j sweep reuses one spectrum while a lambda_max sweep rescales the
    same underlying uniform draws.
    """
    lambda_max = spec.lambda_max if lambda_max_override is None else float(lambda_max_override)
    model = build_model(spec, j_override)
    return make_scenario(spec.n, spec.lambda_min, lambda_max, model, spec.sigma,
                         spec.seed)
