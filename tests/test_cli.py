"""End-to-end command line tests, all on deliberately tiny experiments."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from quadtrack.cli import main
from quadtrack.runner import _TRACE_ROWS, TRACE_HEADER, _fmt, _trace_csv_parts, _write_text


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def stable_scenario(seed=2, n=1):
    # single pole at 0.5: mixes fast, so short horizons are meaningful
    return {"n": n, "lambda_max": 2.0, "sigma": 1.0,
            "d_stable": [-0.5, 1.0], "j": 0.5, "seed": seed}


def test_unknown_preset_fails_cleanly(tmp_path, capsys):
    rc = main(["preset", "no-such-benchmark", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "no-such-benchmark" in err
    assert err.startswith("error: unknown preset")


def test_missing_required_field_names_the_path(tmp_path, capsys):
    doc = {"scenario": {"n": 1, "lambda_max": 2.0, "j": 0.5},
           "run": {"horizon": 10}}
    cfg = write_config(tmp_path / "c.json", doc)
    rc = main(["run", "--config", cfg])
    assert rc == 1
    assert "scenario.seed" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["outptu", "scenario.sigmaa", "trackers.hinf_gird",
                                  "run.burn_in", "run.sweep.point", "output.nmae"])
def test_unknown_config_key_names_its_path(tmp_path, capsys, path):
    doc = {
        "scenario": stable_scenario(),
        "trackers": {"use": ["gd"]},
        "run": {"horizon": 100, "sweep": {"param": "j", "lo": 0.5, "hi": 0.5, "points": 1}},
        "output": {"dir": str(tmp_path)},
    }
    *where, key = path.split(".")
    block = doc
    for name in where:
        block = block[name]
    block[key] = 1
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 1
    assert f"unknown field {path}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command, scenario, run", [
    ("run", {}, {}),
    ("synthesize", {}, {}),
    ("run", {"j": 0.5}, {"sweep": {"param": "j", "lo": 0.0, "hi": 1.0, "points": 3}}),
], ids=["run", "synthesize", "j-sweep"])
def test_zero_signal_model_is_rejected(tmp_path, capsys, command, scenario, run):
    # g = 0 and j = 0: the minimizer never moves, so there is nothing to
    # track and the filter's innovation variance is zero
    doc = {
        "scenario": {**stable_scenario(), "g": [0.0], "j": 0.0, **scenario},
        "trackers": {"use": ["kalman", "hinf"], "hinf_grid": 5},
        "run": {"horizon": 100, **run},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    args = {"run": ["run", "--config", cfg],
            "synthesize": ["synthesize", "--config", cfg,
                           "--out", str(tmp_path / "controller.json")]}[command]
    assert main(args) == 1
    assert "scenario.g" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


@pytest.mark.parametrize("command", ["run", "synthesize"])
@pytest.mark.parametrize("scenario", [
    {"d_unstable": [-1.0, 1.0], "j": 0.0, "g": [1.0, -1.0]},
    {"d_unstable": [-1.0, 1.0], "j": 1.0, "g": [0.0, 0.0]},
    {"d_unstable": [1.0, -2.0, 1.0], "j": 0.5, "g": [0.0, 1.0, -1.0]},
], ids=["z-1", "zero-g", "ramp-z-1"])
def test_signal_model_hiding_a_persistent_mode_is_rejected(tmp_path, capsys, command, scenario):
    # the signal numerator b (g reversed) vanishes at a root of d_unstable,
    # so the noise never excites that mode; whether a tracker must carry it
    # has no answer, so the config is refused whatever j is
    doc = {
        "scenario": {**stable_scenario(), **scenario},
        "trackers": {"use": ["kalman", "hinf"], "hinf_grid": 5, "synthesis_max_evals": 100},
        "run": {"horizon": 100},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    args = {"run": ["run", "--config", cfg],
            "synthesize": ["synthesize", "--config", cfg,
                           "--out", str(tmp_path / "controller.json")]}[command]
    assert main(args) == 1
    assert "scenario.g" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


def test_signal_model_hiding_a_stable_mode_still_runs(tmp_path):
    # b = z - 0.5 hides the stable pole of d_stable only: the model keeps
    # that pole-zero pair, and every cell is filled
    doc = {
        "scenario": {**stable_scenario(), "d_unstable": [-1.0, 1.0], "j": 0.0, "g": [1.0, -0.5]},
        "trackers": {"use": ["kalman", "hinf"], "hinf_grid": 5, "synthesis_max_evals": 200},
        "run": {"horizon": 400,
                "sweep": {"param": "lambda_max", "lo": 2.0, "hi": 2.0, "points": 1}},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 0
    row = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
    assert all(row[3:7])  # the hinf and kalman cells, analytic and Monte Carlo


def test_growing_signal_mode_is_rejected(tmp_path, capsys):
    # a d_unstable root at 1.2 grows without bound: the analytic cells stay
    # finite while the simulation overflows
    doc = {
        "scenario": {**stable_scenario(), "d_unstable": [-1.2, 1.0]},
        "trackers": {"use": ["gd", "kalman"]},
        "run": {"horizon": 100},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 1
    assert "scenario.d_unstable" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("g", ["ones", [1.0]])
def test_order_zero_model_is_rejected_for_its_order(tmp_path, capsys, g):
    # no root in d_stable or d_unstable: the model has no state, so the
    # error names the order, not the length of g
    scenario = {**stable_scenario(), "g": g}
    del scenario["d_stable"]
    doc = {"scenario": scenario, "run": {"horizon": 100}, "output": {"dir": str(tmp_path)}}
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err == ("error: scenario: model order is zero; give d_stable "
                                       "or d_unstable a root\n")


@pytest.mark.parametrize("command", ["run", "synthesize"])
def test_hinf_synthesis_on_a_white_noise_signal(tmp_path, capsys, command):
    # g = 0 with j = 1: h is d_s / d_s, white noise written over the model's
    # own stable poles.  The filter's gain is zero, so
    # the synthesis starts from the zero controller over d_s, and no feedback
    # also gives the least peak gain, 1; both loops leave the error -w, so
    # both cost n sigma^2 = 3
    doc = {
        "scenario": {"n": 3, "lambda_max": 2.0, "sigma": 1.0, "d_stable": [0.45, -1.4, 1.0],
                     "g": [0.0, 0.0], "j": 1.0, "seed": 1},
        "trackers": {"use": ["gd", "kalman", "hinf"], "hinf_grid": 5,
                     "synthesis_starts": 2, "synthesis_max_evals": 200},
        "run": {"horizon": 2000, "reps": 1,
                "sweep": {"param": "lambda_max", "lo": 2.0, "hi": 2.0, "points": 1}},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    if command == "run":
        assert main(["run", "--config", cfg]) == 0
        row = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[3] == row[5] == repr(math.sqrt(3.0))
    else:
        out = str(tmp_path / "controller.json")
        assert main(["synthesize", "--config", cfg, "--out", out]) == 0
        # the synthesized controller is the zero start 0 / d_s or one within
        # roundoff of it, so the certified peak is 1 up to the rounding of its row
        text = capsys.readouterr().out
        assert text.startswith("Jhat = ")
        assert float(text.split()[2]) == pytest.approx(1.0, rel=1e-15)


def test_config_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"scenario": ', encoding="utf-8")
    rc = main(["run", "--config", str(bad)])
    assert rc == 1
    assert "line" in capsys.readouterr().err


def test_minimal_trace_run(tmp_path, capsys):
    doc = {
        "scenario": stable_scenario(),
        "trackers": {"use": ["gd"]},
        "run": {"horizon": 100, "window": 5},
        "output": {"dir": str(tmp_path), "name": "t.csv"},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    rc = main(["run", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert str(tmp_path / "t.csv") in out
    assert str(tmp_path / "t.meta.json") in out

    lines = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,err_gd,err_hinf,err_kalman"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] != "" and first[2] == "" and first[3] == ""

    meta = json.loads((tmp_path / "t.meta.json").read_text(encoding="utf-8"))
    assert meta["preset"] is None
    assert meta["seed"] == 2
    assert meta["version"].startswith("quadtrack-")
    assert "output" not in meta["config"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_leaves_an_unstable_tracker_column_empty(tmp_path):
    """The closed-form "uniform" tuning is unstable on this spectrum: its
    trace is not simulated, so nothing overflows and the column is empty."""
    doc = {
        "scenario": {"n": 10, "lambda_min": 1.0, "lambda_max": 3.5, "sigma": 1.0,
                     "d_stable": [0.950625, -1.95, 1.0], "j": 0.2, "seed": 1},
        "trackers": {"use": ["gd", "kalman"], "kalman_mu": "uniform"},
        "run": {"horizon": 2000, "window": 100},
        "output": {"dir": str(tmp_path), "name": "t.csv"},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 2000
    assert all(row[1] != "" and row[3] == "" for row in rows)


def percell_trace_csv(horizon, columns):
    """The trace table as it was first written: every cell through _fmt."""
    lines = [TRACE_HEADER]
    for k in range(horizon):
        cells = [str(k)]
        for name in ("gd", "hinf", "kalman"):
            col = columns[name]
            cells.append(_fmt(float(col[k])) if col is not None else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_chunked_trace_table_keeps_the_bytes_of_the_per_cell_rows(tmp_path):
    """The %-template parts write the bytes of the per-cell rows, with
    infinite and NaN cells blank, for any mix of present, missing and
    non-finite columns and horizons on both sides of a part edge."""
    rng = np.random.default_rng(3)
    for horizon in (1, _TRACE_ROWS - 1, _TRACE_ROWS, _TRACE_ROWS + 1):
        def column():
            # every magnitude from subnormal to near overflow, and signed zeros
            col = rng.standard_normal(horizon) * 10.0 ** rng.integers(-320, 307, horizon)
            col[rng.integers(0, horizon, 3)] = [0.0, -0.0, 5e-324]
            return col

        special = column()
        special[[0, horizon // 2, horizon - 1]] = [np.inf, -np.inf, np.nan]
        late = column()
        late[horizon - 1] = np.nan
        for columns in ({"gd": column(), "hinf": None, "kalman": column()},
                        {"gd": None, "hinf": None, "kalman": None},
                        {"gd": column(), "hinf": column(), "kalman": special},
                        {"gd": None, "hinf": late, "kalman": None}):
            parts = _trace_csv_parts(horizon, columns)
            want = percell_trace_csv(horizon, columns)
            assert "".join(parts) == want
            assert all(part.count("\n") <= _TRACE_ROWS for part in parts)
            path = _write_text(str(tmp_path / "t.csv"), *parts)
            assert pathlib.Path(path).read_bytes() == want.encode("utf-8")


def test_sweep_rerun_is_byte_identical(tmp_path):
    def doc(outdir):
        return {
            "scenario": stable_scenario(seed=9, n=2),
            "trackers": {"use": ["gd", "kalman"], "kalman_mu": "search"},
            "run": {"horizon": 400, "burnin": 50, "reps": 2,
                    "sweep": {"param": "j", "lo": 0.2, "hi": 0.6, "points": 2}},
            "output": {"dir": str(outdir), "name": "s.csv"},
        }

    for d in ("a", "b"):
        cfg = write_config(tmp_path / f"{d}.json", doc(tmp_path / d))
        assert main(["run", "--config", cfg]) == 0

    csv_a = (tmp_path / "a" / "s.csv").read_bytes()
    csv_b = (tmp_path / "b" / "s.csv").read_bytes()
    assert csv_a == csv_b
    meta_a = (tmp_path / "a" / "s.meta.json").read_bytes()
    meta_b = (tmp_path / "b" / "s.meta.json").read_bytes()
    assert meta_a == meta_b

    header = csv_a.decode("utf-8").splitlines()[0]
    assert header == ("param,sqrtJ_gd_analytic,sqrtJ_gd_emp,sqrtJ_hinf_analytic,"
                      "sqrtJ_hinf_emp,sqrtJ_kalman_analytic,sqrtJ_kalman_emp")


def sweep_row(outdir, doc):
    """The one data row of a one-point sweep run in outdir, as floats; an
    empty cell is None."""
    outdir.mkdir(exist_ok=True)
    cfg = write_config(outdir / "c.json", {**doc, "output": {"dir": str(outdir), "name": "s.csv"}})
    assert main(["run", "--config", cfg]) == 0
    rows = (outdir / "s.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2
    return [float(cell) if cell else None for cell in rows[1].split(",")]


def one_point_analytic(doc, make):
    """sqrt of `analytic_cost` of the tracker make(scenario) on doc's scenario."""
    from quadtrack.config import build_scenario, validate_config
    from quadtrack.evaluation import analytic_cost
    from quadtrack.lti import ss_to_tf

    scenario = build_scenario(validate_config(doc).scenario)
    h = ss_to_tf(scenario.model)
    return math.sqrt(analytic_cost(h, make(scenario).tf, scenario.spectrum, scenario.sigma ** 2))


def one_point_doc(trackers):
    return {"scenario": stable_scenario(n=2), "trackers": trackers,
            "run": {"horizon": 400, "reps": 1,
                    "sweep": {"param": "j", "lo": 0.5, "hi": 0.5, "points": 1}}}


def test_sweep_runs_gd_at_the_configured_step(tmp_path):
    # gd_alpha 0.3, not the default 1 / lambda_max = 0.5
    from quadtrack.trackers import make_gd_tracker

    doc = one_point_doc({"use": ["gd"], "gd_alpha": 0.3})
    row = sweep_row(tmp_path, doc)
    assert row[1] == one_point_analytic(doc, lambda sc: make_gd_tracker(0.3))  # sqrtJ_gd_analytic


def test_sweep_tunes_the_filter_from_the_spectrum_with_eigs(tmp_path):
    # kalman_mu "eigs" is sum(lambda^2) / sum(lambda), not the default search
    from quadtrack.trackers import make_kalman_tracker, mu_star_from_eigs

    doc = one_point_doc({"use": ["kalman"], "kalman_mu": "eigs"})
    row = sweep_row(tmp_path, doc)
    assert row[5] == one_point_analytic(  # sqrtJ_kalman_analytic
        doc, lambda sc: make_kalman_tracker(sc.model, mu_star_from_eigs(sc.spectrum)))


@pytest.mark.parametrize("d_unstable", [None, [-1.0, 1.0]], ids=["stable", "persistent"])
@pytest.mark.parametrize("sigma", [1e-8, 1e-12])
def test_filter_is_designed_at_unit_noise(tmp_path, d_unstable, sigma):
    """The filter gain does not depend on the noise level, so a small sigma
    runs, and both of its kalman cells are sigma times those at sigma = 1."""
    def doc(s):
        scenario = {**stable_scenario(n=2), "sigma": s}
        if d_unstable is not None:
            scenario["d_unstable"] = d_unstable
        return {"scenario": scenario,
                "trackers": {"use": ["kalman"]},
                "run": {"horizon": 400, "reps": 2,
                        "sweep": {"param": "j", "lo": 0.5, "hi": 0.5, "points": 1}}}

    unit = sweep_row(tmp_path / "unit", doc(1.0))
    small = sweep_row(tmp_path / "small", doc(sigma))
    assert small[5] == pytest.approx(sigma * unit[5], rel=1e-15)  # sqrtJ_kalman_analytic
    assert small[6] == pytest.approx(sigma * unit[6], rel=1e-13)  # sqrtJ_kalman_emp


@pytest.mark.parametrize("d_unstable", [[1.0, -2.0, 1.0], [1.0, 0.0, 2.0, 0.0, 1.0]],
                         ids=["ramp", "double-resonance"])
def test_sweep_fills_the_hinf_cells_of_a_repeated_persistent_factor(tmp_path, d_unstable):
    """(z - 1)^2 and (z^2 + 1)^2, whose repeated roots the root finder returns
    only about 1e-8 exact.  The synthesis starts from the filter, which
    carries them, and stays within 5% of its H2 cost on this narrow
    interval; the Monte Carlo cell is within 5% of the analytic one."""
    doc = {
        "scenario": {"n": 2, "lambda_min": 1.0, "lambda_max": 1.5, "sigma": 1.0,
                     "d_stable": [-0.5, 1.0], "d_unstable": d_unstable, "j": 1.0, "seed": 1},
        "trackers": {"use": ["kalman", "hinf"], "hinf_grid": 5, "synthesis_starts": 2,
                     "synthesis_max_evals": 300},
        "run": {"horizon": 2000, "reps": 2,
                "sweep": {"param": "lambda_max", "lo": 1.5, "hi": 1.5, "points": 1}},
    }
    _, _, _, hinf, hinf_emp, kalman, _ = sweep_row(tmp_path, doc)
    assert hinf is not None and hinf_emp is not None
    assert hinf_emp == pytest.approx(hinf, rel=0.05)
    assert hinf <= 1.05 * kalman


def test_gd_runs_on_a_random_walk_minimizer(tmp_path):
    """Gradient descent's integrator 1 / (z - 1) is the internal model of a
    random walk, so its loop is stable on this persistent model: the sweep
    fills both gd cells, the Monte Carlo one within 5% of the analytic one,
    and the trace fills err_gd."""
    scenario = {"n": 2, "lambda_min": 1.0, "lambda_max": 1.5, "sigma": 1.0,
                "d_stable": [-0.5, 1.0], "d_unstable": [-1.0, 1.0], "j": 1.0, "seed": 1}
    doc = {"scenario": scenario,
           "trackers": {"use": ["gd", "kalman", "hinf"], "hinf_grid": 5, "synthesis_starts": 2,
                        "synthesis_max_evals": 300},
           "run": {"horizon": 2000, "reps": 2,
                   "sweep": {"param": "lambda_max", "lo": 1.5, "hi": 1.5, "points": 1}}}
    _, gd, gd_emp, _, _, _, _ = sweep_row(tmp_path / "sweep", doc)
    assert gd is not None and gd_emp is not None
    assert gd_emp == pytest.approx(gd, rel=0.05)
    trace = {"scenario": scenario, "trackers": {"use": ["gd", "kalman"]},
             "run": {"horizon": 200, "window": 10},
             "output": {"dir": str(tmp_path), "name": "t.csv"}}
    assert main(["run", "--config", write_config(tmp_path / "t.json", trace)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 200 and all(row[1] != "" for row in rows)


def test_sweep_with_failed_synthesis_leaves_hinf_cells_empty(tmp_path):
    # persistent model with a one-start, 100-evaluation search: at this
    # seed synthesis finds no stabilizing controller at either point
    doc = {
        "scenario": {"n": 2, "lambda_min": 1.0, "lambda_max": 3.3, "sigma": 1.0,
                     "d_stable": [0.765625, -1.75, 1.0],
                     "d_unstable": [1.0, -2.0 * math.cos(math.pi / 12.0), 1.0],
                     "j": 1.0, "seed": 3},
        "trackers": {"use": ["hinf"], "hinf_grid": 9, "synthesis_starts": 1,
                     "synthesis_max_evals": 100},
        "run": {"horizon": 300,
                "sweep": {"param": "lambda_max", "lo": 2.0, "hi": 3.3, "points": 2}},
        "output": {"dir": str(tmp_path), "name": "s.csv"},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 0
    rows = (tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[3] == "" and cells[4] == ""  # sqrtJ_hinf_analytic, sqrtJ_hinf_emp


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_simulates_no_tracker_of_infinite_analytic_cost(tmp_path, monkeypatch):
    """At mu = 2.3 the filter loop is unstable at 3 of this spectrum's 10
    curvatures, so its analytic cost is +inf: the runner never simulates
    it, both kalman cells are empty, and gd's are filled."""
    from quadtrack import runner
    from quadtrack.trackers import KIND_GD

    simulated = []
    empirical_cost = runner.empirical_cost

    def recorded(scenario, ctrl, *args):
        simulated.append(ctrl.kind)
        return empirical_cost(scenario, ctrl, *args)

    monkeypatch.setattr(runner, "empirical_cost", recorded)
    doc = {
        "scenario": {"n": 10, "lambda_min": 1.0, "lambda_max": 3.5, "sigma": 1.0,
                     "d_stable": [0.950625, -1.95, 1.0], "j": 0.2, "seed": 1},
        "trackers": {"use": ["gd", "kalman"], "kalman_mu": 2.3},
        "run": {"horizon": 500, "reps": 2,
                "sweep": {"param": "lambda_max", "lo": 3.5, "hi": 3.5, "points": 1}},
    }
    _, gd, gd_emp, _, _, kalman, kalman_emp = sweep_row(tmp_path, doc)
    assert gd is not None and gd_emp is not None
    assert kalman is None and kalman_emp is None
    assert simulated == [KIND_GD]


def test_synthesize_then_evaluate_roundtrip(tmp_path, capsys):
    doc = {
        "scenario": {"n": 2, "lambda_min": 1.0, "lambda_max": 1.5, "sigma": 1.0,
                     "d_stable": [0.25, -1.0, 1.0], "j": 0.5, "seed": 4},
        "trackers": {"hinf_grid": 9, "synthesis_starts": 2,
                     "synthesis_max_evals": 200},
        "run": {"horizon": 500, "burnin": 50, "reps": 2},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    ctrl_path = tmp_path / "controller.json"

    rc = main(["synthesize", "--config", cfg, "--out", str(ctrl_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Jhat = " in out
    assert "stable at 9/9 grid points" in out

    stored = json.loads(ctrl_path.read_text(encoding="utf-8"))
    assert stored["kind"] == "HInf"
    assert len(stored["lambda_grid"]) == 9
    assert np.isfinite(stored["gamma"])

    rc = main(["evaluate", "--controller", str(ctrl_path), "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "analytic_J = " in out
    assert "robust_Jhat = " in out
    assert "per_lambda_stable = 2/2" in out

    table = (tmp_path / "evaluation.csv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "lambda,stable,h2_norm_sq,hinf_norm"
    assert len(table) == 10
    assert all(row.split(",")[1] == "true" for row in table[1:])


def test_evaluate_reports_divergence_as_inf(tmp_path, capsys):
    # gradient descent cannot carry the resonant modes, so every figure
    # that depends on the realized eigenvalues is infinite
    from quadtrack.trackers import controller_to_dict, make_gd_tracker

    ctrl_path = tmp_path / "gd.json"
    ctrl_path.write_text(json.dumps(controller_to_dict(make_gd_tracker(0.3))),
                         encoding="utf-8")
    doc = {
        "scenario": {"n": 1, "lambda_max": 2.0, "sigma": 1.0,
                     "d_unstable": [1.0, -2.0 * np.cos(np.pi / 12.0), 1.0],
                     "j": 1.0, "seed": 5},
        "trackers": {"hinf_grid": 5},
        "run": {"horizon": 200, "burnin": 20, "reps": 1},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    rc = main(["evaluate", "--controller", str(ctrl_path), "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "analytic_J = inf" in out
    assert "empirical_J = inf" in out
    assert "per_lambda_stable = 0/1" in out

    table = (tmp_path / "evaluation.csv").read_text(encoding="utf-8").splitlines()
    assert all(row.endswith(",false,,") for row in table[1:])


def test_evaluate_table_on_a_partly_stable_grid(tmp_path, capsys):
    # gradient descent with step 0.8 is stable for lam < 2.5 only, so the
    # grid {1, 1.37, 2.25, 3.13, 3.5} splits three stable, two unstable
    from quadtrack.trackers import controller_to_dict, make_gd_tracker

    ctrl_path = tmp_path / "gd.json"
    ctrl_path.write_text(json.dumps(controller_to_dict(make_gd_tracker(0.8))),
                         encoding="utf-8")
    doc = {
        "scenario": {**stable_scenario(), "lambda_min": 1.0, "lambda_max": 3.5},
        "trackers": {"hinf_grid": 5},
        "run": {"horizon": 200, "burnin": 20, "reps": 1},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["evaluate", "--controller", str(ctrl_path), "--config", cfg]) == 0
    capsys.readouterr()

    rows = [row.split(",") for row in
            (tmp_path / "evaluation.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert [row[1] for row in rows] == ["true", "true", "true", "false", "false"]
    for lam, stable, h2, hinf in rows:
        if stable == "true":
            assert float(h2) > 0.0 and float(hinf) > 0.0
        else:
            assert h2 == "" and hinf == ""


def evaluate_figures(tmp_path, capsys, name, num, den):
    """The printed figures and the table rows of `tracker evaluate` for the
    stored controller num / den on a stable two-pole model over [1, 2]."""
    ctrl_path = tmp_path / f"{name}.json"
    ctrl_path.write_text(json.dumps({"num": list(num), "den": list(den)}), encoding="utf-8")
    doc = {"scenario": {"n": 3, "lambda_max": 2.0, "sigma": 1.0, "d_stable": [0.45, -1.4, 1.0],
                        "j": 0.5, "seed": 1},
           "trackers": {"hinf_grid": 5}, "run": {"horizon": 400, "burnin": 20, "reps": 1},
           "output": {"dir": str(tmp_path / name)}}
    cfg = write_config(tmp_path / f"{name}-config.json", doc)
    assert main(["evaluate", "--controller", str(ctrl_path), "--config", cfg]) == 0
    out = capsys.readouterr().out
    figures = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    table = (tmp_path / name / "evaluation.csv").read_text(encoding="utf-8").splitlines()[1:]
    return figures, [row.split(",") for row in table]


@pytest.mark.parametrize("r", [1.2, 0.7])
def test_evaluate_keeps_a_stored_pole_zero_pair(tmp_path, capsys, r):
    # -0.3 (z - r) / ((z - r)(z - 0.6)) is -0.3 / (z - 0.6) only while the
    # pair is stable: at r = 1.2 the stored controller carries a growing
    # mode, so no loop is stable; at r = 0.7 it costs what the reduced one does
    num, den = -0.3 * npoly.polyfromroots([r]), npoly.polyfromroots([r, 0.6])
    figures, table = evaluate_figures(tmp_path, capsys, "pair", num.tolist(), den.tolist())
    if r > 1.0:
        assert figures["per_lambda_stable"] == "0/3"
        assert figures["analytic_J"] == "inf"
        assert [row[1] for row in table] == ["false"] * 5
        return
    reduced, reduced_table = evaluate_figures(tmp_path, capsys, "reduced", [-0.3], [-0.6, 1.0])
    assert figures["per_lambda_stable"] == reduced["per_lambda_stable"] == "3/3"
    for key in ("analytic_J", "robust_Jhat", "empirical_J"):
        assert float(figures[key]) == pytest.approx(float(reduced[key]), rel=1e-12)
    assert [row[1] for row in table] == [row[1] for row in reduced_table] == ["true"] * 5
    for row, ref in zip(table, reduced_table):
        assert [float(x) for x in row[::2] + row[3:]] == pytest.approx(
            [float(x) for x in ref[::2] + ref[3:]], rel=1e-12)


def test_evaluate_takes_the_synthesized_zero_controller(tmp_path, capsys):
    # synthesis for a zero signal model stores {"num": [0.0], "den": [1.0]};
    # evaluating it once failed with "error: cannot realize a constant".
    # With c = 0 the error is -h at every curvature, so J = sigma^2 n ||h||^2.
    from quadtrack.config import build_scenario, validate_config
    from quadtrack.lti import TransferFunctionSISO, h2_norm_sq_exact, ss_to_tf
    from quadtrack.synthesis import SynthesisOptions, hinf_synthesize
    from quadtrack.trackers import UncertaintyInterval, controller_to_dict

    ctrl = hinf_synthesize(TransferFunctionSISO([0.0], [-0.5, 1.0]), UncertaintyInterval(1.0, 2.0),
                           SynthesisOptions(starts=1, max_evals=20, grid_points=5, seed=0))
    ctrl_path = tmp_path / "zero.json"
    ctrl_path.write_text(json.dumps(controller_to_dict(ctrl)), encoding="utf-8")
    doc = {"scenario": {**stable_scenario(n=2), "sigma": 2.0},
           "trackers": {"hinf_grid": 5}, "run": {"horizon": 200, "burnin": 20, "reps": 1},
           "output": {"dir": str(tmp_path)}}
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["evaluate", "--controller", str(ctrl_path), "--config", cfg]) == 0
    out = capsys.readouterr().out
    h = ss_to_tf(build_scenario(validate_config(doc).scenario).model)
    assert float(out.split("analytic_J = ")[1].split()[0]) == 2.0 ** 2 * 2 * h2_norm_sq_exact(h)
    assert "per_lambda_stable = 2/2" in out


def test_evaluate_rejects_malformed_controller(tmp_path, capsys):
    ctrl_path = tmp_path / "bad.json"
    ctrl_path.write_text("{not json", encoding="utf-8")
    doc = {
        "scenario": stable_scenario(),
        "run": {"horizon": 100},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    rc = main(["evaluate", "--controller", str(ctrl_path), "--config", cfg])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def _gd_document():
    from quadtrack.trackers import controller_to_dict, make_gd_tracker
    return controller_to_dict(make_gd_tracker(0.3))


@pytest.mark.parametrize("text", [
    json.dumps({**_gd_document(), "num": None}),
    json.dumps({**_gd_document(), "num": [float("nan")]}),
    json.dumps([_gd_document()]),
    json.dumps({k: v for k, v in _gd_document().items() if k != "num"}),
    json.dumps({**_gd_document(), "lambda_grid": 2.0}),
], ids=["null-num", "nan-num", "array", "missing-num", "number-grid"])
def test_evaluate_rejects_a_malformed_controller_document(tmp_path, capsys, text):
    # each of these once loaded as the zero controller, crashed with a
    # traceback, or named neither the document nor what was wrong with it
    ctrl_path = tmp_path / "bad.json"
    ctrl_path.write_text(text, encoding="utf-8")
    doc = {"scenario": stable_scenario(), "run": {"horizon": 100},
           "output": {"dir": str(tmp_path)}}
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["evaluate", "--controller", str(ctrl_path), "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "coefficients" in err or "controller" in err
    assert not (tmp_path / "evaluation.csv").exists()


@pytest.mark.parametrize("doc", [
    {"num": [[0.3]], "den": [[-1.0, 1.0]]},
    {"num": [1e308], "den": [1e-308, 1.0]},
    {**_gd_document(), "num": ["0.3"]},
    {**_gd_document(), "num": [True]},
    {**_gd_document(), "num": [10 ** 400]},
], ids=["nested", "overflow", "string", "bool", "huge-int"])
def test_evaluate_accepts_only_flat_lists_of_finite_numbers(tmp_path, capsys, doc):
    # these once printed a misleading message, leaked a numpy overflow
    # warning, were silently read as numbers and evaluated, or crashed
    # converting an integer beyond the float range
    ctrl_path = tmp_path / "bad.json"
    ctrl_path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = write_config(tmp_path / "c.json", {"scenario": stable_scenario(), "run": {"horizon": 100},
                                             "output": {"dir": str(tmp_path)}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["evaluate", "--controller", str(ctrl_path), "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 1 and not caught
    assert err.startswith("error: controller coefficients") and err.count("\n") == 1
    assert not (tmp_path / "evaluation.csv").exists()


@pytest.mark.parametrize("command", ["run", "synthesize"])
def test_hinf_order_without_freedom_names_the_key(tmp_path, capsys, command):
    # two persistent poles take two controller poles, so order 2 leaves none
    doc = {
        "scenario": {"n": 1, "lambda_min": 2.0, "lambda_max": 2.5, "sigma": 1.0,
                     "d_stable": [-0.5, 1.0],
                     "d_unstable": [1.0, -2.0 * np.cos(np.pi / 12.0), 1.0],
                     "j": 1.0, "seed": 1},
        "trackers": {"use": ["hinf"], "hinf_order": 2, "hinf_grid": 3,
                     "synthesis_starts": 1, "synthesis_max_evals": 20},
        "run": {"horizon": 100},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    args = {"run": ["run", "--config", cfg],
            "synthesize": ["synthesize", "--config", cfg,
                           "--out", str(tmp_path / "controller.json")]}[command]
    assert main(args) == 1
    assert "trackers.hinf_order" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


def test_swept_lambda_max_below_lambda_min_is_rejected(tmp_path, capsys):
    doc = {
        "scenario": {"n": 1, "lambda_min": 2.0, "lambda_max": 3.0, "j": 0.5,
                     "d_stable": [-0.5, 1.0], "seed": 1},
        "run": {"horizon": 100,
                "sweep": {"param": "lambda_max", "lo": 1.0, "hi": 3.0}},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    rc = main(["run", "--config", cfg])
    assert rc == 1
    assert "run.sweep" in capsys.readouterr().err


def test_one_point_sweep_over_a_range_is_rejected(tmp_path, capsys):
    doc = {
        "scenario": stable_scenario(),
        "run": {"horizon": 100,
                "sweep": {"param": "lambda_max", "lo": 2.0, "hi": 3.0, "points": 1}},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    rc = main(["run", "--config", cfg])
    assert rc == 1
    assert "run.sweep" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_preset_seed_beyond_64_bits_is_rejected(tmp_path, capsys):
    # the random streams key on the seed modulo 2^64, so 2^64 + 1 would
    # replay seed 1 while the sidecar records the large seed
    assert main(["preset", "trace-stable", "--out", str(tmp_path),
                 "--seed", str(2 ** 64 + 1)]) == 1
    assert "scenario.seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed, ok", [(-2 ** 63, True), (2 ** 63 - 1, True),
                                      (-2 ** 63 - 1, False), (2 ** 63, False)])
def test_seed_range_ends(tmp_path, capsys, seed, ok):
    doc = {
        "scenario": stable_scenario(seed=seed),
        "trackers": {"use": ["gd"]},
        "run": {"horizon": 10, "window": 5},
        "output": {"dir": str(tmp_path), "name": "t.csv"},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == (0 if ok else 1)
    if ok:
        meta = json.loads((tmp_path / "t.meta.json").read_text(encoding="utf-8"))
        assert meta["seed"] == seed
    else:
        assert "scenario.seed" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


def test_filter_tuning_leaves_stderr_empty(tmp_path):
    # the filter start's tuning meets +inf costs at its refinement bracket's
    # end, where the bounded Brent search computes inf - inf, and the
    # synthesis simplex holds +inf vertices; nothing of that may reach stderr
    doc = {
        "scenario": {"n": 10, "lambda_min": 1.0, "lambda_max": 3.5, "sigma": 1.0,
                     "d_stable": [0.950625, -1.95, 1.0], "j": 0.0, "g": [1.0, -1.0], "seed": 1},
        "trackers": {"use": ["gd", "kalman", "hinf"], "hinf_grid": 9,
                     "synthesis_starts": 1, "synthesis_max_evals": 300},
        "run": {"horizon": 2000, "sweep": {"param": "lambda_max", "lo": 3.5, "hi": 3.5,
                                           "points": 1}},
        "output": {"dir": str(tmp_path)},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys; from quadtrack.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, "run", "--config", cfg], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == ""
    header, row = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert all(math.isfinite(float(cell)) for cell in row.split(","))
