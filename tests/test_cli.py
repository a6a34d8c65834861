"""End-to-end command line tests, all on deliberately tiny experiments."""

import json
import math

import numpy as np
import pytest

from quadtrack.cli import main


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


def test_missing_required_field_names_the_path(tmp_path, capsys):
    doc = {"scenario": {"n": 1, "lambda_max": 2.0, "j": 0.5},
           "run": {"horizon": 10}}
    cfg = write_config(tmp_path / "c.json", doc)
    rc = main(["run", "--config", cfg])
    assert rc == 1
    assert "scenario.seed" in capsys.readouterr().err


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
