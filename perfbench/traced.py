"""Run one `tracker` command with a span around each traced quadtrack function.

    python3 perfbench/traced.py SPANS_JSON -- <tracker arguments>

The wrappers are installed from outside the package: each function named
in `layers.TRACED` is replaced in every quadtrack module that holds it,
because most modules import these names with `from .lti import ...` and
call their own binding.  Spans (name, start, end, parent) stay in memory
and are written to SPANS_JSON when the command returns, together with a
few counters read from arguments and results.  Times come from
time.monotonic, the same clock the parent benchmark process reads.
"""

import functools
import hashlib
import inspect
import json
import sys
import time

import layers


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.counters = {"lti.stable_true": 0, "synthesis.nm_fevals": 0,
                         "synthesis.gamma_certified": 0.0, "evaluation.mc_steps": 0}
        self.paths = set()

    def wrap(self, name: str, fn, probe=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[me] = (index, start, clock(), parent)
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every traced function in every quadtrack module holding it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "quadtrack" or key.startswith("quadtrack.")]
        for layer, functions in layers.TRACED.items():
            home = sys.modules[f"quadtrack.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original,
                                    self._probe(fn_name, original))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _probe(self, fn_name: str, original):
        """Counter update read from one call's arguments and result, if any."""
        c = self.counters
        bind = inspect.signature(original).bind

        def args_of(args, kwargs):
            bound = bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if fn_name == "simulate_minimizer":
            return lambda a, k, r: self.paths.add(hashlib.sha1(r.values.tobytes()).hexdigest())
        if fn_name == "is_internally_stable":
            def probe(a, k, r):
                c["lti.stable_true"] += bool(r)
        elif fn_name == "minimize":
            def probe(a, k, r):
                c["synthesis.nm_fevals"] += int(r.nfev)
        elif fn_name in ("precompensated_synthesize", "hinf_synthesize"):
            def probe(a, k, r):
                c["synthesis.gamma_certified"] = max(c["synthesis.gamma_certified"],
                                                     float(r.gamma))
        elif fn_name == "empirical_cost":
            def probe(a, k, r):
                bound = args_of(a, k)
                c["evaluation.mc_steps"] += bound["horizon"] * bound["reps"]
        elif fn_name == "error_trace":
            def probe(a, k, r):
                bound = args_of(a, k)
                c["evaluation.mc_steps"] += bound["horizon"] * len(bound["ctrls"])
        else:
            return None
        return probe

    def dump(self, path: str, t_end: float):
        doc = {"t_end": t_end, "names": self.names,
               "spans": self.spans,
               "counters": self.counters, "paths": sorted(self.paths)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <tracker arguments>", file=sys.stderr)
        return 2
    import quadtrack.cli

    tracer = Tracer()
    tracer.install()
    try:
        return quadtrack.cli.main(argv[2:])
    finally:
        tracer.dump(argv[0], time.monotonic())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
