"""Benchmark workloads: `tracker` CLI configs generated from (name, seed).

Each workload is a cut-down version of a quadtrack experiment, sized so a
single execution takes a few seconds on a 2-core machine.  The seed goes
into `scenario.seed`, which drives the curvature spectrum, the Monte
Carlo noise and the synthesis restarts; everything else is fixed per
workload.  Synthesis runs from its single deterministic start (the
filter tracker's coefficients), because the further starts are random
draws from the seed and would make the amount of work depend on it.
Every workload tunes the filter tracker with
`kalman_mu: "search"`, because the closed-form tunings are unstable on
these spectra for some seeds.
"""

import math

WORKLOADS = ("sweep-stable", "mc-stable", "synth-persistent", "trace-stable")

# Known-bad input for the gate's self-test: the closed-form "uniform"
# tuning leaves the filter loop unstable on this spectrum, so its trace
# column overflows.
BAD_TRACE = "trace-stable-bad"

# (z - 0.975)^2 and (z - 0.875)^2 in ascending coefficients, plus the
# undamped resonance at angle pi/12 of the persistent model; these are the
# signal models of the stable and unstable preset families.
_STABLE_DEN = [0.950625, -1.95, 1.0]
_PERSISTENT_STABLE_DEN = [0.765625, -1.75, 1.0]
_PERSISTENT_UNSTABLE_DEN = [1.0, -2.0 * math.cos(math.pi / 12.0), 1.0]


def _stable_scenario(seed: int) -> dict:
    return {"n": 10, "lambda_min": 1.0, "lambda_max": 3.5, "sigma": 1.0,
            "d_stable": _STABLE_DEN, "j": 0.2, "g": "ones", "seed": seed}


def _persistent_scenario(seed: int) -> dict:
    # the base scenario of the sweep-j-unstable preset; on the wider
    # interval [1, 3.3] synthesis fails outright for most seeds
    return {"n": 10, "lambda_min": 2.0, "lambda_max": 3.3, "sigma": 1.0,
            "d_stable": _PERSISTENT_STABLE_DEN, "d_unstable": _PERSISTENT_UNSTABLE_DEN,
            "j": 1.85, "g": "ones", "seed": seed}


def _one_point(lambda_max: float) -> dict:
    return {"param": "lambda_max", "lo": lambda_max, "hi": lambda_max, "points": 1}


def config(name: str, seed: int, out_dir: str) -> dict:
    """The config document of workload `name` at `seed`, writing into out_dir."""
    if name == "sweep-stable":
        # the sweep-lmax-stable preset cut to its widest point, with a
        # smaller synthesis grid and horizon so one execution takes ~5 s
        doc = {"scenario": _stable_scenario(seed),
               "trackers": {"use": ["gd", "kalman", "hinf"], "kalman_mu": "search",
                            "synthesis_starts": 1, "synthesis_max_evals": 2000,
                            "hinf_grid": 9},
               "run": {"horizon": 10000, "burnin": 2500, "reps": 2,
                       "sweep": _one_point(4.4)}}
    elif name == "mc-stable":
        doc = {"scenario": _stable_scenario(seed),
               "trackers": {"use": ["gd", "kalman"], "kalman_mu": "search"},
               "run": {"horizon": 30000, "burnin": 5000, "reps": 2,
                       "sweep": _one_point(3.5)}}
    elif name == "synth-persistent":
        doc = {"scenario": _persistent_scenario(seed),
               "trackers": {"use": ["hinf"], "kalman_mu": "search",
                            "synthesis_starts": 1, "synthesis_max_evals": 1200,
                            "hinf_grid": 9},
               "run": {"horizon": 10000, "burnin": 500, "reps": 2}}
    elif name in ("trace-stable", BAD_TRACE):
        mu = "uniform" if name == BAD_TRACE else "search"
        doc = {"scenario": _stable_scenario(seed),
               "trackers": {"use": ["gd", "kalman"], "kalman_mu": mu},
               "run": {"horizon": 80000, "window": 1000}}
    else:
        raise ValueError(f"unknown workload {name!r}")
    doc["output"] = {"dir": out_dir}
    return doc


def kind(name: str) -> str:
    """Which output checker applies: "sweep", "synth" or "trace"."""
    if name in ("sweep-stable", "mc-stable"):
        return "sweep"
    if name == "synth-persistent":
        return "synth"
    return "trace"


def steps(name: str, config_path: str, out_dir: str) -> list:
    """The `tracker` argument lists of one execution, run in order."""
    if kind(name) == "synth":
        controller = f"{out_dir}/controller.json"
        return [["synthesize", "--config", config_path, "--out", controller],
                ["evaluate", "--controller", controller, "--config", config_path]]
    return [["run", "--config", config_path]]
