#!/usr/bin/env python3
"""quadtrack benchmark: `tracker` CLI workloads, timed, gated and traced.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

Each workload (see workloads.py) is a config generated from its name and
the seed, executed as `tracker` child processes, one at a time, with
TRACKER_THREADS=1 and the BLAS thread pools pinned to one thread.

--trace 0 first times the set-up (interpreter start, `import quadtrack`,
config validation, scenario build) SETUP_PROBES times, then executes the
workload MIN_EXECUTIONS times, and again while another execution should
end within S seconds of the first.  It reports medians of
- wall_s: child start to exit, summed over the workload's commands;
- setup_s: the set-up probe's wall time;
- cpu_s: user plus system CPU time of the children, from each child's
  own rusage (os.wait4);
- peak_rss_mb: peak resident memory of the execution's largest child.

--trace 1 alternates an untraced execution with a traced one (traced.py
puts a span around each function of layers.TRACED), the same way but at
least once, and reports the medians of the per-layer metrics in
layers.py.

Every execution goes through the output gate (gate.py).  `attempted`
and `failed` count its items; `correct` also requires every rerun to
write byte-identical files and stdout, Monte Carlo within gate.MC_RTOL of
the analytic cost, and, at seed 1, analytic outputs, trace samples and
the certified gamma matching reference.json (written by
--write-reference).  The last stdout line is the result as JSON; the
line before it holds quartiles, sample counts, gate figures and the
environment.  Work files go to .perfbench-out/ in the repository root.

--self-test runs the gate on known-bad inputs: the trace workload with
the closed-form "uniform" filter tuning, whose loop is unstable so that
its trace overflows, must read fail_frac = 1; a sweep table with one
blank cell must fail exactly that cell.

A child still running RUN_BUDGET_S after the benchmark started is
killed, and its execution fails the gate.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import gate
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-out")
REFERENCE = os.path.join(HERE, "reference.json")

RUN_BUDGET_S = 170.0
SETUP_PROBES = 5
MIN_EXECUTIONS = 3
REFERENCE_SEED = 1
GAMMA_RTOL = 1e-6
# Children run on one core each, whatever the caller's shell sets: the
# tracker's own pool and the BLAS pools are pinned to one thread.
_PINNED_ENV = {"TRACKER_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    return {**os.environ, **_PINNED_ENV, "PYTHONPATH": os.path.join(ROOT, "src")}


@dataclass
class Step:
    """One finished child process."""

    rc: int
    wall: float
    cpu: float
    rss_mb: float
    t_spawn: float
    stdout: str


def spawn(argv: list, log: str, deadline: float) -> Step:
    """Run argv from the repository root; kill it at the deadline."""
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - t_spawn, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return Step(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, t_spawn, stdout)


@dataclass
class Execution:
    """One pass over a workload's commands, with its gate verdict."""

    steps: list
    check: gate.Check
    digest: str

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.steps)

    @property
    def cpu(self) -> float:
        return sum(s.cpu for s in self.steps)

    @property
    def rss_mb(self) -> float:
        return max(s.rss_mb for s in self.steps)


class Bench:
    """Files and executions of one workload at one seed."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.seed = seed
        self.deadline = deadline
        self.dir = os.path.join(WORK, f"{name}-seed{seed}")
        self.out_dir = os.path.join(self.dir, "out")
        os.makedirs(self.dir, exist_ok=True)
        self.config_path = os.path.join(self.dir, "config.json")
        self.doc = workloads.config(name, seed, os.path.relpath(self.out_dir, ROOT))
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=2)

    def setup_probe(self, i: int) -> Step:
        return spawn([sys.executable, os.path.join(HERE, "probe.py"),
                      os.path.relpath(self.config_path, ROOT)],
                     os.path.join(self.dir, f"probe{i}"), self.deadline)

    def spans_path(self, i: int) -> str:
        return os.path.join(self.dir, f"spans{i}.json")

    def execute(self, traced: bool = False) -> Execution:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        commands = workloads.steps(self.name, os.path.relpath(self.config_path, ROOT),
                                   os.path.relpath(self.out_dir, ROOT))
        steps = []
        for i, args in enumerate(commands):
            if traced:
                if os.path.exists(self.spans_path(i)):
                    os.remove(self.spans_path(i))
                argv = [sys.executable, os.path.join(HERE, "traced.py"),
                        self.spans_path(i), "--", *args]
            else:
                argv = [sys.executable, "-m", "quadtrack.cli", *args]
            steps.append(spawn(argv, os.path.join(self.dir, f"step{i}"), self.deadline))
        stdouts = [s.stdout for s in steps]
        check = gate.check(workloads.kind(self.name), self.doc, self.out_dir,
                           [s.rc for s in steps], stdouts)
        return Execution(steps, check, gate.digest(self.out_dir, stdouts))

    def output_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.out_dir, f))
                   for f in os.listdir(self.out_dir))


def _more(started: float, seconds: float, done: list, last: float, deadline: float,
          minimum: int) -> bool:
    """Whether to start another execution (or pair) like the last, of `last` seconds.

    After the first `minimum`, one starts only if it should end within
    `seconds` of the first.
    """
    now = time.monotonic()
    if now + 2.0 * last > deadline:
        return False
    return len(done) < minimum or now + last - started <= seconds


def _summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def gate_summary(name: str, seed: int, executions: list) -> dict:
    """Gate figures over a set of executions of one workload and seed."""
    checks = [e.check for e in executions]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    mc = [c.mc_relerr for c in checks if c.mc_relerr is not None]
    out = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "rerun_identical_frac":
            sum(e.digest == executions[0].digest for e in executions) / len(executions),
        "mc_relerr_max": max(mc) if mc else None,
        "analytic_relerr_max": None,
        "trace_sample_relerr_max": None,
        "gamma_certified": checks[0].gamma,
        "problems": sorted({p for c in checks for p in c.problems})[:20],
    }
    ok = failed == 0 and out["rerun_identical_frac"] == 1.0 and (
        out["mc_relerr_max"] is None or out["mc_relerr_max"] <= gate.MC_RTOL)
    if seed == REFERENCE_SEED:
        ref = _load_reference()[name]
        for key, field, rtol in (("analytic_relerr_max", "analytic", gate.ANALYTIC_RTOL),
                                 ("trace_sample_relerr_max", "samples", gate.SAMPLE_RTOL)):
            if ref[field]:
                out[key] = max(gate.relerr_max(getattr(c, field), ref[field]) for c in checks)
                ok = ok and out[key] <= rtol
        if ref["gamma"] is not None:
            out["gamma_reference"] = ref["gamma"]
            ok = ok and all(c.gamma is not None and c.gamma <= ref["gamma"] * (1 + GAMMA_RTOL)
                            for c in checks)
    out["correct"] = ok
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "quadtrack")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(probe: Step) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    if probe.rc == 0:
        env["child"] = json.loads(probe.stdout.strip().splitlines()[-1])
    return env


def timed_run(bench: Bench, seconds: float) -> tuple:
    probes = [bench.setup_probe(i) for i in range(SETUP_PROBES)]
    executions = []
    started = time.monotonic()
    last = 0.0
    while _more(started, seconds, executions, last, bench.deadline, MIN_EXECUTIONS):
        executions.append(bench.execute())
        last = executions[-1].wall
    series = {
        "wall_s": [e.wall for e in executions],
        "setup_s": [p.wall for p in probes],
        "cpu_s": [e.cpu for e in executions],
        "peak_rss_mb": [e.rss_mb for e in executions],
    }
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    summary = gate_summary(bench.name, bench.seed, executions)
    if any(p.rc != 0 for p in probes):
        summary["correct"] = False
        summary["problems"].append("set-up probe failed")
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in series.items()}
    detail = {"stats": {k: _summary(v) for k, v in series.items()},
              "environment": environment(probes[0])}
    return metrics, summary, detail


def traced_run(bench: Bench, seconds: float) -> tuple:
    probe = bench.setup_probe(0)
    executions = []
    samples = []
    shares = []
    started = time.monotonic()
    last = 0.0
    while _more(started, seconds, samples, last, bench.deadline, 1):
        plain = bench.execute()
        traced = bench.execute(traced=True)
        executions += [plain, traced]
        last = plain.wall + traced.wall
        stats = layers.SpanStats()
        for i, step in enumerate(traced.steps):
            try:
                with open(bench.spans_path(i), encoding="utf-8") as fh:
                    stats.add(json.load(fh), step.t_spawn)
            except (OSError, ValueError) as exc:
                traced.check.fail_run(f"spans of step {i}: {exc}")
        samples.append(layers.per_layer(stats, traced.wall, plain.wall, bench.output_bytes()))
        shares.append(layers.shares(stats, traced.wall))
    units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
    metrics = {name: {"value": statistics.median(s[name] for s in samples), "unit": units[name]}
               for name in layers.PER_LAYER}
    detail = {"stats": {name: _summary([s[name] for s in samples]) for name in layers.PER_LAYER},
              "shares_of_traced_wall": {k: statistics.median(s[k] for s in shares)
                                        for k in shares[0]},
              "environment": environment(probe)}
    return metrics, gate_summary(bench.name, bench.seed, executions), detail


def self_test(deadline: float) -> int:
    """Known-bad inputs must fail the gate; returns the exit code."""
    bench = Bench(workloads.BAD_TRACE, REFERENCE_SEED, deadline)
    checks = {"trace-stable with kalman_mu uniform": (bench.execute().check, 1.0)}
    # a mc-stable table with its gd empirical cell blank: 1 of 6 items fails
    shutil.rmtree(bench.out_dir)
    os.makedirs(bench.out_dir)
    with open(os.path.join(bench.out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(gate.SWEEP_HEADER) + "\n3.5,1.0,,,,1.0,1.0\n")
    with open(os.path.join(bench.out_dir, "sweep.meta.json"), "w", encoding="utf-8") as fh:
        fh.write("{}\n")
    checks["mc-stable table with one empty cell"] = (
        gate.check_sweep(workloads.config("mc-stable", REFERENCE_SEED, ""), bench.out_dir), 1 / 6)
    ok = True
    for what, (check, expected) in checks.items():
        fail_frac = check.failed / check.attempted
        ok = ok and fail_frac == expected
        print(json.dumps({"input": what, "attempted": check.attempted, "failed": check.failed,
                          "fail_frac": fail_frac, "expected_fail_frac": expected,
                          "problems": check.problems[:3]}))
    print(json.dumps({"self_test": "pass" if ok else "FAIL"}))
    return 0 if ok else 1


def write_reference(deadline: float) -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        run = Bench(name, REFERENCE_SEED, deadline).execute()
        if run.check.failed:
            print(f"{name}: gate failed: {run.check.problems}", file=sys.stderr)
            return 1
        reference[name] = {"analytic": run.check.analytic, "samples": run.check.samples,
                           "gamma": run.check.gamma}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(REFERENCE)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    # a terminated benchmark raises SystemExit, so spawn() kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "quadtrack", "cli.py")):
        print(f"error: no quadtrack sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(deadline)
    if args.write_reference:
        return write_reference(deadline)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(REFERENCE):
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, deadline)
    run = traced_run if args.trace else timed_run
    metrics, summary, detail = run(bench, args.seconds)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "gate": summary, **detail}
    with open(os.path.join(bench.dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
