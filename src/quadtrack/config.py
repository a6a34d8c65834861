"""Experiment configuration: one JSON document, validated field by field.

Every validation failure raises ConfigError naming the dotted field path
(for example "scenario.lambda_min"), so a bad file is diagnosable from
the message alone.  A key the format does not define is an error too,
so a misspelled option cannot fall back to its default unnoticed.
Parsed configs are plain dataclasses; `build_scenario` at the bottom
turns a scenario spec into a live scenario object.  A sweep point is the
spec with its swept field replaced (`dataclasses.replace`), because each
sweep parameter is the name of a `ScenarioSpec` field.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .control_math import STABILITY_MARGIN, polynomial_roots, root_centroids
from .errors import ConfigError
from .lti import StateSpaceSISO, observable_canonical
from .scenario import QuadraticScenario, make_scenario

__all__ = ["ScenarioSpec", "TrackerSpec", "RunSpec", "ExperimentConfig",
           "parse_config", "validate_config", "build_scenario"]

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


@dataclass
class ScenarioSpec:
    n: int
    lambda_min: float
    lambda_max: float
    sigma: float
    d_stable: np.ndarray
    d_unstable: np.ndarray
    j: float
    g: np.ndarray
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
    stable_roots = polynomial_roots(d_stable) if d_stable.size > 1 else np.zeros(0)
    if np.max(np.abs(stable_roots), initial=0.0) >= 1.0 - STABILITY_MARGIN:
        raise ConfigError(f"{_ctx(path, 'd_stable')} must have all roots strictly inside "
                          f"the unit circle")
    d_unstable = _as_poly(_get(doc, "d_unstable", path, False, [1.0]),
                          _ctx(path, "d_unstable"))
    if d_unstable.size > 1:
        # persistent modes sit on the circle; a growing one would overflow the simulation.
        # Each root is classified as `lti.factor_poles` does, by its cluster's centroid,
        # so a d_stable root in a persistent cluster would be misread
        k = d_unstable.size - 1
        centroids = root_centroids(np.concatenate([polynomial_roots(d_unstable), stable_roots]))
        modes, moduli = centroids[:k], np.abs(centroids)
        if (np.min(moduli[:k]) < 1.0 - STABILITY_MARGIN
                or np.max(moduli) > 1.0 + STABILITY_MARGIN
                or np.max(moduli[k:], initial=0.0) >= 1.0 - STABILITY_MARGIN):
            raise ConfigError(f"{_ctx(path, 'd_unstable')} roots must all have modulus "
                              f"within {STABILITY_MARGIN:g} of 1 (persistent modes), with "
                              f"no root of {_ctx(path, 'd_stable')} within 1e-5 of one")
    j = _as_real(_get(doc, "j", path, True), _ctx(path, "j"))
    seed = _as_int(_get(doc, "seed", path, True), _ctx(path, "seed"))
    if not -(1 << 63) <= seed < 1 << 63:
        # RngStream keys on the seed modulo 2^64, which is one-to-one on this range
        raise ConfigError(f"{_ctx(path, 'seed')} must be in [-2^63, 2^63), got {seed}")
    order = d_stable.size + d_unstable.size - 2
    if order < 1:
        raise ConfigError(f"{path}: model order is zero; give d_stable or d_unstable "
                          f"a root")
    g = _get(doc, "g", path, False, "ones")
    if g == "ones":
        g = np.ones(order)
    elif not isinstance(g, (list, tuple)) or len(g) == 0:
        raise ConfigError(f"{_ctx(path, 'g')} must be \"ones\" or a coefficient list")
    else:
        g = np.array([_as_real(v, _ctx(path, "g")) for v in g])
        if g.size != order:
            raise ConfigError(f"{_ctx(path, 'g')} must have length {order} "
                              f"(the model order), got {g.size}")
        if j == 0.0 and not g.any():
            raise ConfigError(f"{_ctx(path, 'g')} is all zeros and j is 0: the signal "
                              f"model is zero, so the minimizer never moves")
    # h = b / (d_u d_s) + j, and the observable realization's b is g reversed; where
    # b vanishes at a persistent root, that mode is never excited, whatever j is
    b = g[::-1]
    if d_unstable.size > 1 and min(abs(npoly.polyval(modes, b))) <= 1e-8 * sum(abs(b)):
        raise ConfigError(f"{_ctx(path, 'g')} hides a persistent mode: the signal model's "
                          f"numerator vanishes at a root of {_ctx(path, 'd_unstable')}")
    return ScenarioSpec(n, lambda_min, lambda_max, sigma, d_stable, d_unstable,
                        j, g, seed)


def _validate_trackers(doc, scenario: ScenarioSpec, path="trackers") -> TrackerSpec:
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
        # synthesis fixes one controller pole per persistent mode
        persistent = scenario.d_unstable.size - 1
        if hinf_order <= persistent:
            raise ConfigError(f"{_ctx(path, 'hinf_order')} must exceed the {persistent} "
                              f"persistent poles of scenario.d_unstable, got {hinf_order}")
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
    if param == "j" and not scenario.g.any() and lo <= 0.0 <= hi:
        raise ConfigError(f"{spath}: scenario.g is all zeros, so the swept j reaches the "
                          f"zero signal model at j = 0")
    if param == "lambda_max" and lo < scenario.lambda_min:
        raise ConfigError(f"{spath}: swept lambda_max starts below scenario.lambda_min "
                          f"({lo} < {scenario.lambda_min})")
    return RunSpec(horizon, burnin, reps, param, lo, hi, points, window)


def validate_config(doc: dict) -> ExperimentConfig:
    _object(doc, "", _ROOT_KEYS)
    scenario = _validate_scenario(_get(doc, "scenario", "", True))
    trackers = _validate_trackers(_get(doc, "trackers", "", False), scenario)
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


def build_scenario(spec: ScenarioSpec) -> QuadraticScenario:
    """Scenario of a spec: companion-form signal model F from the configured
    polynomials, the given G, and the random curvature draws.

    The spectrum and basis streams depend only on (seed, n, bounds), so a
    j sweep reuses one spectrum while a lambda_max sweep rescales the
    same underlying uniform draws.
    """
    char = npoly.polymul(spec.d_unstable, spec.d_stable)
    f, h = observable_canonical(char)
    model = StateSpaceSISO(f, spec.g, h, spec.j)
    return make_scenario(spec.n, spec.lambda_min, spec.lambda_max, model, spec.sigma,
                         spec.seed)
