"""Per-layer metrics of the traced run, and the end-to-end metric each moves.

A layer is a `quadtrack` module.  `TRACED` lists the functions that get a
span in the traced run; `PER_LAYER` lists the metrics computed from those
spans, each with the end-to-end metric it should move and the workloads
on which it should move it.  A per-layer metric a workload never
exercises reads 0 there.
"""

from collections import defaultdict

TRACED = {
    "config": ("validate_config",),
    "scenario": ("simulate_minimizer",),
    "trackers": ("mu_star_search",),
    "control_math": ("solve_dare", "solve_discrete_lyapunov", "polynomial_roots"),
    "lti": ("is_internally_stable", "closed_loop_error_tf", "h2_norm_sq_exact",
            "hinf_norm"),
    # `minimize` is scipy's Nelder-Mead driver as bound in quadtrack.synthesis
    "synthesis": ("precompensated_synthesize", "hinf_synthesize", "minimize"),
    "evaluation": ("analytic_cost", "robust_cost", "empirical_cost", "error_trace"),
    "runner": ("execute_config", "run_sweep", "run_trace", "synthesize_cmd",
               "evaluate_cmd"),
}

_ALL = ("sweep-stable", "mc-stable", "synth-persistent", "trace-stable")
_MC = ("mc-stable", "sweep-stable")
_SYNTH = ("synth-persistent", "sweep-stable")

# name: (unit, better, end-to-end metric it moves, workloads where it moves it).
# The filter tuning (mu_star_search and the per-curvature kernels under it)
# runs in every workload: 15-17% of the traced wall on sweep-stable,
# mc-stable and trace-stable, 5% on synth-persistent.
PER_LAYER = {
    "config.validate_s": ("s", "lower", "setup_s", _ALL),
    "scenario.simulate_minimizer.calls": ("count", "lower", "wall_s", _MC),
    "scenario.simulate_minimizer.busy_s": ("s", "lower", "wall_s", _MC),
    "scenario.path_reuse_ratio": ("ratio", "higher", "wall_s", _MC),
    "trackers.mu_star_search.calls": ("count", "lower", "wall_s", _ALL),
    "trackers.mu_star_search.busy_s": ("s", "lower", "wall_s", _ALL),
    "trackers.mu_star_search.self_s": ("s", "lower", "wall_s", _ALL),
    "control_math.solve_dare.us_per_call": ("us", "lower", "wall_s", _ALL),
    "control_math.solve_discrete_lyapunov.calls": ("count", "lower", "wall_s", _ALL),
    "control_math.polynomial_roots.calls": ("count", "lower", "wall_s", _ALL),
    "control_math.polynomial_roots.busy_s": ("s", "lower", "wall_s", _ALL),
    "lti.is_internally_stable.calls": ("count", "lower", "wall_s", _ALL),
    # share of stability checks that pass: the waste ratio of the tuning grid
    "lti.stable_frac": ("ratio", "higher", "wall_s", _ALL),
    "lti.closed_loop_error_tf.calls": ("count", "lower", "wall_s", _ALL),
    "lti.closed_loop_error_tf.us_per_call": ("us", "lower", "wall_s", _ALL),
    "lti.h2_norm_sq_exact.calls": ("count", "lower", "wall_s", _ALL),
    "lti.h2_norm_sq_exact.us_per_call": ("us", "lower", "wall_s", _ALL),
    "lti.hinf_norm.calls": ("count", "lower", "wall_s", _SYNTH),
    "lti.hinf_norm.us_per_call": ("us", "lower", "wall_s", _SYNTH),
    "synthesis.busy_s": ("s", "lower", "wall_s", _SYNTH),
    "synthesis.self_s": ("s", "lower", "wall_s", _SYNTH),
    "synthesis.nm_fevals": ("count", "lower", "wall_s", _SYNTH),
    "synthesis.us_per_feval": ("us", "lower", "wall_s", _SYNTH),
    # guards the synthesis speed metrics: the gate refuses a worse gamma at seed 1
    "synthesis.gamma_certified": ("1", "lower", "wall_s", _SYNTH),
    "evaluation.empirical_cost.busy_s": ("s", "lower", "wall_s", _MC),
    "evaluation.mc_steps": ("count", "higher", "peak_rss_mb", ("mc-stable", "trace-stable")),
    "evaluation.mc_steps_per_s": ("1/s", "higher", "wall_s", ("mc-stable", "trace-stable")),
    "evaluation.error_trace.busy_s": ("s", "lower", "wall_s", ("trace-stable",)),
    "evaluation.analytic_cost.busy_s": ("s", "lower", "wall_s", ("synth-persistent",)),
    "evaluation.robust_cost.busy_s": ("s", "lower", "wall_s", ("synth-persistent",)),
    "runner.output_s": ("s", "lower", "wall_s", ("trace-stable",)),
    "runner.output_bytes": ("bytes", "lower", "wall_s", ("trace-stable",)),
    "trace.overhead_s": ("s", "lower", "wall_s", _ALL),
    "trace.uncovered_s": ("s", "lower", "wall_s", _ALL),
}


class SpanStats:
    """Busy, self and call totals from one or more span dumps.

    `busy` of a function or layer counts only its outermost spans, so
    nested calls of the same name are not counted twice; `self` is a
    span's duration minus its direct children's, summed over its spans.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.busy = defaultdict(float)
        self.self = defaultdict(float)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.mu_search_outside_synthesis = 0.0
        self.wall = 0.0
        self.covered = 0.0
        self.counters = defaultdict(float)
        self.paths = set()

    def add(self, dump: dict, t_spawn: float):
        """Fold in one child's dump; t_spawn is when the parent started it."""
        self.wall += dump["t_end"] - t_spawn
        names = dump["names"]
        spans = dump["spans"]
        child = [0.0] * len(spans)
        ancestors = [frozenset()] * len(spans)
        tops = []
        for i, (n, start, end, parent) in enumerate(spans):
            dur = end - start
            if parent < 0:
                tops.append((start, end))
            else:
                child[parent] += dur
                pn = names[spans[parent][0]]
                ancestors[i] = ancestors[parent] | {pn, pn.split(".")[0]}
        for i, (n, start, end, parent) in enumerate(spans):
            name = names[n]
            layer = name.split(".")[0]
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self[name] += dur - child[i]
            self.layer_self[layer] += dur - child[i]
            if name not in ancestors[i]:
                self.busy[name] += dur
            if layer not in ancestors[i]:
                self.layer_busy[layer] += dur
            if name == "trackers.mu_star_search" and "synthesis" not in ancestors[i]:
                self.mu_search_outside_synthesis += dur
        tops.sort()
        end_covered = float("-inf")
        for start, end in tops:
            start = max(start, end_covered)
            if end > start:
                self.covered += end - start
                end_covered = end
        for key, value in dump["counters"].items():
            if key == "synthesis.gamma_certified":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        self.paths.update(dump["paths"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(stats: SpanStats, traced_wall: float, untraced_wall: float,
              output_bytes: int) -> dict:
    """Every PER_LAYER metric of one traced execution."""
    c = stats.counters
    busy = stats.busy
    out = {
        "config.validate_s": busy["config.validate_config"],
        "scenario.path_reuse_ratio":
            _ratio(len(stats.paths), stats.calls["scenario.simulate_minimizer"]),
        "lti.stable_frac": _ratio(c["lti.stable_true"], stats.calls["lti.is_internally_stable"]),
        "synthesis.busy_s": stats.layer_busy["synthesis"],
        "synthesis.self_s": stats.layer_self["synthesis"],
        "synthesis.nm_fevals": c["synthesis.nm_fevals"],
        "synthesis.us_per_feval":
            1e6 * _ratio(stats.total["synthesis.minimize"], c["synthesis.nm_fevals"]),
        "synthesis.gamma_certified": c["synthesis.gamma_certified"],
        "evaluation.mc_steps": c["evaluation.mc_steps"],
        "evaluation.mc_steps_per_s": _ratio(
            c["evaluation.mc_steps"],
            busy["evaluation.empirical_cost"] + busy["evaluation.error_trace"]),
        "runner.output_s":
            busy["runner.execute_config"] - busy["runner.run_sweep"] - busy["runner.run_trace"],
        "runner.output_bytes": output_bytes,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.uncovered_s": stats.wall - stats.covered,
    }
    for name in PER_LAYER:
        # "<layer>.<function>.<figure>" for the plain per-function figures
        fn, _, figure = name.rpartition(".")
        if name not in out:
            out[name] = {"calls": stats.calls[fn], "busy_s": busy[fn], "self_s": stats.self[fn],
                         "us_per_call": 1e6 * _ratio(stats.total[fn], stats.calls[fn])}[figure]
    return out


def shares(stats: SpanStats, traced_wall: float) -> dict:
    """Where the traced wall time went, as fractions of it."""
    busy = stats.busy
    parts = {
        "monte_carlo": busy["evaluation.empirical_cost"] + busy["evaluation.error_trace"],
        "synthesis": stats.layer_busy["synthesis"],
        "tuning_outside_synthesis": stats.mu_search_outside_synthesis,
        "analytic_and_robust": busy["evaluation.analytic_cost"] + busy["evaluation.robust_cost"],
    }
    return {k: v / traced_wall for k, v in parts.items()} if traced_wall > 0 else {}
