"""The five benchmark presets, expressed as ordinary config documents.

Each preset is exactly the JSON a user could feed to `tracker run`, so a
hand-written config with the same parameters and seed reproduces a
preset byte for byte.  The stable family uses a second-order model with
a double pole at 0.975; the unstable family adds an undamped resonance
at angle pi/12 on the unit circle and moves the stable double pole to
0.875.  Gradient descent is omitted from the unstable presets: its
integrator carries no model of the resonance, so both of its cost
columns would be empty.

The filter tracker has a finite gain margin: one curvature knob covers a
bounded ratio lambda_max/lambda_min before some loop goes unstable, and
the margin shrinks with the measurement noise level.  The unstable noise
sweep therefore uses the narrower curvature interval [2, 3.3], which
every noise level in the sweep can cover; the unstable lambda_max sweep
keeps lambda_min = 1 and instead shows the filter columns going empty
once the spread crosses the margin.
"""

import math

from numpy.polynomial import polynomial as npoly

from .errors import UnknownPreset

__all__ = ["PRESET_NAMES", "preset_document", "preset_csv_name"]

PRESET_NAMES = (
    "trace-stable",
    "sweep-j-stable",
    "sweep-lmax-stable",
    "sweep-j-unstable",
    "sweep-lmax-unstable",
)

_TRACKER_OPTS = {"kalman_mu": "search", "synthesis_starts": 4,
                 "synthesis_max_evals": 500}


def _stable_block(seed: int, j: float = 0.2, lambda_max: float = 3.5) -> dict:
    return {
        "n": 10,
        "lambda_min": 1.0,
        "lambda_max": lambda_max,
        "sigma": 1.0,
        "d_stable": list(npoly.polyfromroots([0.975, 0.975])),
        "j": j,
        "g": "ones",
        "seed": seed,
    }


def _unstable_block(seed: int, j: float, lambda_min: float = 1.0,
                    lambda_max: float = 3.3) -> dict:
    return {
        "n": 10,
        "lambda_min": lambda_min,
        "lambda_max": lambda_max,
        "sigma": 1.0,
        "d_stable": list(npoly.polyfromroots([0.875, 0.875])),
        "d_unstable": [1.0, -2.0 * math.cos(math.pi / 12.0), 1.0],
        "j": j,
        "g": "ones",
        "seed": seed,
    }


def _sweep_run(param: str, lo: float, hi: float) -> dict:
    """The run block every sweep preset shares: 10 points, 2 reps of 30000 steps."""
    return {
        "horizon": 30000,
        "burnin": 10000,
        "reps": 2,
        "sweep": {"param": param, "lo": lo, "hi": hi, "points": 10},
    }


def preset_document(name: str, seed: int, out_dir: str) -> dict:
    """Full config document for a preset; raises UnknownPreset otherwise."""
    if name == "trace-stable":
        doc = {
            "scenario": _stable_block(seed),
            "trackers": {"use": ["gd", "kalman", "hinf"], **_TRACKER_OPTS},
            "run": {"horizon": 20000, "window": 1000},
        }
    elif name == "sweep-j-stable":
        doc = {
            "scenario": _stable_block(seed),
            "trackers": {"use": ["gd", "kalman", "hinf"], **_TRACKER_OPTS},
            "run": _sweep_run("j", 0.2, 2.0),
        }
    elif name == "sweep-lmax-stable":
        doc = {
            "scenario": _stable_block(seed),
            "trackers": {"use": ["gd", "kalman", "hinf"], **_TRACKER_OPTS},
            "run": _sweep_run("lambda_max", 2.6, 4.4),
        }
    elif name == "sweep-j-unstable":
        doc = {
            "scenario": _unstable_block(seed, j=1.85, lambda_min=2.0),
            "trackers": {"use": ["kalman", "hinf"], **_TRACKER_OPTS},
            "run": _sweep_run("j", 1.85, 3.7),
        }
    elif name == "sweep-lmax-unstable":
        doc = {
            "scenario": _unstable_block(seed, j=1.0),
            "trackers": {"use": ["kalman", "hinf"], **_TRACKER_OPTS},
            "run": _sweep_run("lambda_max", 1.5, 3.3),
        }
    else:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {list(PRESET_NAMES)}")
    doc["output"] = {"dir": out_dir, "name": preset_csv_name(name)}
    return doc


def preset_csv_name(name: str) -> str:
    return "trace.csv" if name == "trace-stable" else f"{name}.csv"
