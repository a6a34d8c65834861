"""Output-correctness gate: checks the files and stdout of one execution.

An execution is judged item by item.  An item is the run itself or one
output cell.  The run fails on a non-zero exit, a missing file or a
malformed table; a cell fails when it is empty or non-finite where a
finite value is required.  In a trace every column must be complete, so
a trace is one item: the run.

Besides pass/fail counts, each check reports
- `mc_relerr`: the largest |empirical / analytic - 1| over its cells;
- `analytic`: the analytic outputs by key, for comparison with the
  seed-1 reference (sqrt(J) analytic cells, the evaluate command's
  analytic and robust costs and the `evaluation.csv` norm columns);
- `samples`: a few trace values by key, compared the same way;
- `gamma`: the certified level printed by `tracker synthesize`.
"""

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field

# Tolerances of the gate.  Analytic outputs and trace samples are
# deterministic for a fixed seed, so they must match the reference up to
# roundoff.  MC_RTOL bounds |empirical / analytic - 1| for the Monte Carlo
# sizes of these workloads.
ANALYTIC_RTOL = 1e-6
SAMPLE_RTOL = 1e-6
MC_RTOL = 0.05
TRACE_SAMPLES = 8

_TRACKERS = ("gd", "hinf", "kalman")
SWEEP_HEADER = ["param"] + [f"sqrtJ_{t}_{s}" for t in _TRACKERS for s in ("analytic", "emp")]
TRACE_HEADER = ["k"] + [f"err_{t}" for t in _TRACKERS]
EVAL_HEADER = ["lambda", "stable", "h2_norm_sq", "hinf_norm"]


@dataclass
class Check:
    """Gate outcome of one execution."""

    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)
    mc_relerr: float | None = None
    analytic: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    gamma: float | None = None

    def fail_run(self, why: str, cells: int = 0):
        """Mark the run (and `cells` cells it never produced) as failed."""
        self.attempted += cells
        self.failed += 1 + cells
        self.problems.append(why)

    def cell(self, ok: bool, why: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(why)

    def mc(self, empirical: float, analytic: float):
        err = abs(empirical / analytic - 1.0)
        self.mc_relerr = err if self.mc_relerr is None else max(self.mc_relerr, err)


def _number(text: str) -> float | None:
    """Finite float of a cell, None when empty, non-numeric or non-finite."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _rows(path: str, header: list) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: unexpected header {rows[:1]}")
    if any(len(row) != len(header) for row in rows[1:]):
        raise ValueError(f"{os.path.basename(path)}: ragged row")
    return rows[1:]


def _key_values(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_sweep(doc: dict, out_dir: str) -> Check:
    use = doc["trackers"]["use"]
    points = doc["run"]["sweep"]["points"]
    result = Check()
    try:
        rows = _rows(os.path.join(out_dir, "sweep.csv"), SWEEP_HEADER)
        if len(rows) != points:
            raise ValueError(f"sweep.csv: {len(rows)} rows, expected {points}")
        if not os.path.isfile(os.path.join(out_dir, "sweep.meta.json")):
            raise ValueError("sweep.meta.json missing")
    except (OSError, ValueError) as exc:
        result.fail_run(str(exc), cells=_cells("sweep", doc))
        return result
    for i, row in enumerate(rows):
        for t in _TRACKERS:
            col = 1 + 2 * _TRACKERS.index(t)
            if t not in use:
                result.cell(row[col] == row[col + 1] == "", f"row {i}: {t} not run but filled")
                continue
            analytic, empirical = _number(row[col]), _number(row[col + 1])
            result.cell(analytic is not None, f"row {i}: sqrtJ_{t}_analytic = {row[col]!r}")
            result.cell(empirical is not None, f"row {i}: sqrtJ_{t}_emp = {row[col + 1]!r}")
            if analytic is not None:
                result.analytic[f"sqrtJ_{t}_analytic[{i}]"] = analytic
                if empirical is not None:
                    result.mc(empirical, analytic)
    return result


def check_synth(doc: dict, out_dir: str, stdouts: list) -> Check:
    grid = doc["trackers"].get("hinf_grid", 33)
    result = Check()
    synth, evaluate = (_key_values(s) for s in stdouts)
    try:
        if f"stable at {grid}/{grid} grid points" not in stdouts[0].splitlines():
            raise ValueError(f"synthesize: not stable on all {grid} grid points")
        rows = _rows(os.path.join(out_dir, "evaluation.csv"), EVAL_HEADER)
        if len(rows) != grid:
            raise ValueError(f"evaluation.csv: {len(rows)} rows, expected {grid}")
    except (OSError, ValueError) as exc:
        result.fail_run(str(exc), cells=_cells("synth", doc))
        return result
    gamma = _number(synth.get("Jhat", ""))
    result.cell(gamma is not None, f"Jhat = {synth.get('Jhat')!r}")
    result.gamma = gamma
    figures = {key: _number(evaluate.get(key, "")) for key in
               ("analytic_J", "robust_Jhat", "empirical_J")}
    for key, value in figures.items():
        result.cell(value is not None, f"{key} = {evaluate.get(key)!r}")
        if value is not None and key != "empirical_J":
            result.analytic[key] = value
    if figures["analytic_J"] is not None and figures["empirical_J"] is not None:
        result.mc(figures["empirical_J"], figures["analytic_J"])
    for i, row in enumerate(rows):
        h2, hinf = _number(row[2]), _number(row[3])
        result.cell(row[1] == "true" and h2 is not None and hinf is not None,
                    f"evaluation.csv row {i}: {row}")
        if h2 is not None and hinf is not None:
            result.analytic[f"h2_norm_sq[{i}]"] = h2
            result.analytic[f"hinf_norm[{i}]"] = hinf
    return result


def check_trace(doc: dict, out_dir: str) -> Check:
    use = doc["trackers"]["use"]
    horizon = doc["run"]["horizon"]
    result = Check()
    try:
        rows = _rows(os.path.join(out_dir, "trace.csv"), TRACE_HEADER)
        if len(rows) != horizon:
            raise ValueError(f"trace.csv: {len(rows)} rows, expected {horizon}")
        if not os.path.isfile(os.path.join(out_dir, "trace.meta.json")):
            raise ValueError("trace.meta.json missing")
        for t in _TRACKERS:
            col = 1 + _TRACKERS.index(t)
            if t not in use:
                if any(row[col] for row in rows):
                    raise ValueError(f"err_{t}: not run but filled")
                continue
            bad = sum(1 for row in rows if _number(row[col]) is None)
            if bad:
                raise ValueError(f"err_{t}: {bad} of {horizon} cells empty or non-finite")
            for k in range(0, horizon, horizon // TRACE_SAMPLES):
                result.samples[f"err_{t}[{k}]"] = float(rows[k][col])
    except (OSError, ValueError) as exc:
        result.fail_run(str(exc))
    return result


def _cells(kind: str, doc: dict) -> int:
    """Number of cells an execution of this kind is judged on."""
    if kind == "sweep":
        return 2 * doc["run"]["sweep"]["points"] * len(doc["trackers"]["use"])
    if kind == "synth":
        return 4 + doc["trackers"].get("hinf_grid", 33)
    return 0


def check(kind: str, doc: dict, out_dir: str, exit_codes: list, stdouts: list) -> Check:
    """Gate one execution of a workload of the given kind."""
    if any(rc != 0 for rc in exit_codes):
        result = Check()
        result.fail_run(f"exit codes {exit_codes}", cells=_cells(kind, doc))
        return result
    if kind == "sweep":
        return check_sweep(doc, out_dir)
    if kind == "synth":
        return check_synth(doc, out_dir, stdouts)
    return check_trace(doc, out_dir)


def relerr_max(values: dict, reference: dict) -> float:
    """Largest relative deviation from the reference; a missing key counts as inf."""
    worst = 0.0
    for key, ref in reference.items():
        value = values.get(key)
        if value is None:
            return math.inf
        worst = max(worst, abs(value - ref) / max(abs(ref), 1e-300))
    return worst


def digest(out_dir: str, stdouts: list) -> str:
    """Hash of every output file (name and bytes) and every step's stdout."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    for text in stdouts:
        h.update(b"\0stdout\0" + text.encode())
    return h.hexdigest()

