import json
import math
import os

import numpy as np
import pytest

from radialgauge import cli

from oracles import expm_taylor


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _flat_config(tmp_path, **overrides):
    doc = {
        "bundle": {"n": 2, "k": 2, "domain": {"halfwidth": 1.0}},
        "connection": {"builtin": "flat"},
        "initial": [1.0, 0.0],
        "grid": {"axes": [{"min": -1, "max": 1, "count": 3},
                          {"min": -1, "max": 1, "count": 3}]},
        "checks": {"seed": 0, "scaling_samples": 10, "residual_samples": 3,
                   "gauge_samples": 3, "fit_samples": 6,
                   "smooth_directions": 4},
    }
    doc.update(overrides)
    return _write_config(tmp_path, doc)


def _scalar_config(tmp_path):
    return _write_config(tmp_path, {
        "bundle": {"n": 1, "k": 1, "domain": {"halfwidth": 2.0}},
        "connection": {"builtin": "abelian_poly", "params": {"exprs": ["x1"]}},
        "initial": [1.0],
        "integrator": {"atol": 1e-13, "rtol": 1e-12},
        "grid": {"axes": [{"min": -1, "max": 1, "count": 3}]},
    })


def _rotation_config(tmp_path, **integrator):
    return _write_config(tmp_path, {
        "bundle": {"n": 2, "k": 2, "domain": {"halfwidth": 1.0}},
        "connection": {"builtin": "rotation", "params": {"omega": 1.0}},
        "initial": [1.0, 0.0],
        "integrator": integrator,
        "grid": {"axes": [{"min": -0.9, "max": 0.9, "count": 3},
                          {"min": -0.9, "max": 0.9, "count": 2}]},
        "checks": {"seed": 0, "scaling_samples": 15, "residual_samples": 4,
                   "gauge_samples": 4, "fit_samples": 6,
                   "smooth_directions": 5},
    })


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_transport_flat(tmp_path, capsys):
    code = cli.main(["transport", "--config", _flat_config(tmp_path),
                     "--z", "0.5,0.5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["y"] == [1.0, 0.0]
    assert doc["z"] == [0.5, 0.5]


def test_transport_scalar_closed_form(tmp_path, capsys):
    code = cli.main(["transport", "--config", _scalar_config(tmp_path),
                     "--z", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["y"][0] == pytest.approx(math.exp(-2.0), abs=1e-10)


def test_transport_outside_domain_exits_2(tmp_path, capsys):
    code = cli.main(["transport", "--config", _flat_config(tmp_path),
                     "--z", "1.5,0.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "z[0]" in err and "outside" in err


def test_transport_bad_z_exits_2(tmp_path, capsys):
    config = _flat_config(tmp_path)
    assert cli.main(["transport", "--config", config, "--z", "a,b"]) == 2
    assert cli.main(["transport", "--config", config, "--z", "0.1"]) == 2
    capsys.readouterr()


def test_transport_pole_on_ray_exits_3(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 1, "k": 1, "domain": {"halfwidth": 2.0}},
        "connection": {"builtin": "abelian_poly",
                       "params": {"exprs": ["1/(x1 - 0.5)"]}},
        "initial": [1.0],
    })
    code = cli.main(["transport", "--config", config, "--z", "1.0"])
    assert code == 3
    assert "division by zero" in capsys.readouterr().err


def test_transport_to_file(tmp_path):
    out = tmp_path / "result.json"
    code = cli.main(["transport", "--config", _flat_config(tmp_path),
                     "--z", "0,0", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["y"] == [1.0, 0.0]


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------


def test_frame_flat_identity(tmp_path, capsys):
    code = cli.main(["frame", "--config", _flat_config(tmp_path),
                     "--z", "0.3,-0.4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [[1.0, 0.0], [0.0, 1.0]]


def test_frame_identity_at_origin(tmp_path, capsys):
    code = cli.main(["frame", "--config", _rotation_config(tmp_path),
                     "--z", "0,0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [[1.0, 0.0], [0.0, 1.0]]


def test_frame_constant_family_expm(tmp_path, capsys):
    mats = [[[0.1, 0.4], [-0.2, 0.3]], [[0.0, -0.5], [0.5, 0.0]]]
    config = _write_config(tmp_path, {
        "bundle": {"n": 2, "k": 2, "domain": {"halfwidth": 1.0}},
        "connection": {"builtin": "constant", "params": {"matrices": mats}},
        "initial": [1.0, 0.0],
        "integrator": {"atol": 1e-13, "rtol": 1e-12},
    })
    code = cli.main(["frame", "--config", config, "--z", "0.4,-0.7"])
    assert code == 0
    got = np.array(json.loads(capsys.readouterr().out)["matrix"])
    z = np.array([0.4, -0.7])
    expected = expm_taylor(-np.tensordot(z, np.array(mats), axes=(0, 0)))
    assert np.max(np.abs(got - expected)) < 1e-8


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_flat_rows_identical(tmp_path, capsys):
    code = cli.main(["grid", "--config", _flat_config(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x1,x2,y1,y2"
    assert len(lines) == 10
    assert all(line.endswith(",1,0") for line in lines[1:])


def test_grid_contains_exact_origin_row(tmp_path, capsys):
    code = cli.main(["grid", "--config", _rotation_config(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    origin_rows = [l for l in lines[1:] if l.startswith("0,")]
    # rotation grid has x1 = 0 rows but no x2 = 0 node; transport depends
    # only on x2 here, so check the flat config instead for exactness
    config = _flat_config(tmp_path)
    cli.main(["grid", "--config", config])
    lines = capsys.readouterr().out.strip().split("\n")
    assert "0,0,1,0" in lines


def test_grid_row_order_innermost_fastest(tmp_path, capsys):
    code = cli.main(["grid", "--config", _rotation_config(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    coords = [tuple(float(v) for v in line.split(",")[:2]) for line in lines]
    x1_values = [-0.9, 0.0, 0.9]
    x2_values = [-0.9, 0.9]
    expected = [(a, b) for a in x1_values for b in x2_values]
    assert coords == expected


def test_grid_scalar_closed_form_column(tmp_path, capsys):
    code = cli.main(["grid", "--config", _scalar_config(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x1,y1"
    for line in lines[1:]:
        z, y = (float(v) for v in line.split(","))
        assert y == pytest.approx(math.exp(-z * z / 2.0), abs=1e-10)


def test_grid_17_digit_round_trip(tmp_path, capsys):
    code = cli.main(["grid", "--config", _rotation_config(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    for line in out.strip().split("\n")[1:]:
        values = [float(v) for v in line.split(",")]
        # formatting with 17 significant digits is lossless
        assert [float(format(v, ".17g")) for v in values] == values


def test_grid_requires_grid_block(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 1, "k": 1},
        "connection": {"builtin": "flat"},
        "initial": [1.0],
    })
    assert cli.main(["grid", "--config", config]) == 2
    assert "grid" in capsys.readouterr().err


def test_grid_pole_exits_3(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 1, "k": 1, "domain": {"halfwidth": 2.0}},
        "connection": {"builtin": "abelian_poly",
                       "params": {"exprs": ["1/(x1 - 0.5)"]}},
        "initial": [1.0],
        "grid": {"axes": [{"min": 0.9, "max": 1.1, "count": 2}]},
    })
    assert cli.main(["grid", "--config", config]) == 3
    assert "grid point" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_flat_passes(tmp_path, capsys):
    code = cli.main(["check", "--config", _flat_config(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert {m["name"] for m in doc["measured"]} >= {"scaling_identity",
                                                    "radial_residual"}


def test_check_rotation_passes(tmp_path, capsys):
    code = cli.main(["check", "--config", _rotation_config(tmp_path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_check_loose_tolerance_fails(tmp_path, capsys):
    config = _rotation_config(tmp_path, atol=1e-2, rtol=1e-2)
    code = cli.main(["check", "--config", config])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail"
    by_name = {s["name"]: s for s in doc["samples"]}
    assert by_name["scaling_identity"]["verdict"] == "fail"


def test_check_pole_fails_with_recorded_error(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 2, "k": 1},
        "connection": {"builtin": "abelian_poly",
                       "params": {"exprs": ["1/(x1 - 0.5)", "x2"]}},
        "initial": [1.0],
        "checks": {"scaling_samples": 5, "residual_samples": 2,
                   "gauge_samples": 2, "fit_samples": 4,
                   "smooth_directions": 3},
    })
    code = cli.main(["check", "--config", config])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail"
    failures = [s for s in doc["samples"] if s["verdict"] == "fail"]
    assert any("division by zero" in s["params"].get("error", "")
               for s in failures)


@pytest.mark.parametrize("key", ["scaling_samples", "residual_samples",
                                 "gauge_samples", "fit_samples",
                                 "smooth_directions", "metric_samples"])
def test_check_zero_samples_exits_2(tmp_path, capsys, key):
    # a check over no samples would report a vacuous pass
    config = _write_config(tmp_path, {
        "bundle": {"n": 2, "k": 2},
        "connection": {"builtin": "sphere_levicivita"},
        "initial": [1.0, 0.0],
        "integrator": {"atol": 1e-2, "rtol": 1e-2},
        "checks": {key: 0},
    })
    assert cli.main(["check", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid checks block: {key} must be at least 1" in captured.err


def test_check_seed_override(tmp_path, capsys):
    config = _flat_config(tmp_path)
    cli.main(["check", "--config", config, "--seed", "9"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["seed"] == 9


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_dump(capsys):
    assert cli.main(["parse", "x1+x2", "--n", "2"]) == 0
    assert capsys.readouterr().out == "Add(Var(x1), Var(x2))\n"


def test_parse_syntax_error(capsys):
    assert cli.main(["parse", "sin(", "--n", "2"]) == 2
    assert "position 4" in capsys.readouterr().err


def test_parse_index_error(capsys):
    assert cli.main(["parse", "x9", "--n", "2"]) == 2
    assert "exceeds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_missing_block_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, {"bundle": {"n": 1, "k": 1}})
    assert cli.main(["transport", "--config", config, "--z", "0"]) == 2
    capsys.readouterr()


def test_unknown_key_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 1, "k": 1, "bogus": 3},
        "connection": {"builtin": "flat"},
        "initial": [1.0],
    })
    assert cli.main(["transport", "--config", config, "--z", "0"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_wrong_initial_length_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 1, "k": 2},
        "connection": {"builtin": "flat"},
        "initial": [1.0],
    })
    assert cli.main(["transport", "--config", config, "--z", "0"]) == 2
    capsys.readouterr()


def test_builtin_dimension_mismatch_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 3, "k": 2},
        "connection": {"builtin": "rotation"},
        "initial": [1.0, 0.0],
    })
    assert cli.main(["transport", "--config", config, "--z", "0,0,0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("block, message", [
    # one rk4 step printed error_estimate 0.0 for a y about 2e-5 off
    ({"method": "rk4", "rk4_steps": 1}, "rk4_steps must be at least 2, got 1"),
    ({"method": "rk4", "rk4_steps": True},
     "rk4_steps must be an integer, got True"),
    # escaped as a TypeError traceback from the step loop
    ({"method": "rk4", "rk4_steps": 2.5},
     "rk4_steps must be an integer, got 2.5"),
    ({"max_steps": 0}, "max_steps must be at least 1, got 0"),
    ({"max_steps": 10.0}, "max_steps must be an integer, got 10.0"),
    # JSON Infinity accepted every step
    ({"atol": math.inf}, "tolerances must be positive and finite"),
    ({"rtol": math.inf}, "tolerances must be positive and finite"),
])
def test_invalid_integrator_block_exits_2(tmp_path, capsys, block, message):
    config = _rotation_config(tmp_path, **block)
    assert cli.main(["transport", "--config", config, "--z", "0.5,0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid integrator block: {message}" in captured.err


def test_grid_outside_domain_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 1, "k": 1},
        "connection": {"builtin": "flat"},
        "initial": [1.0],
        "grid": {"axes": [{"min": -2, "max": 2, "count": 3}]},
    })
    assert cli.main(["grid", "--config", config]) == 2
    assert "exceeds domain" in capsys.readouterr().err


def test_expression_connection_block(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "bundle": {"n": 2, "k": 2},
        "connection": {"expressions": [
            [["0", "-x2"], ["x2", "0"]],
            [["0", "x1"], ["-x1", "0"]],
        ]},
        "initial": [1.0, 0.0],
    })
    assert cli.main(["transport", "--config", config, "--z", "0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["y"] == [1.0, 0.0]


def test_config_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["transport", "--config", str(path), "--z", "0"]) == 2
    capsys.readouterr()


def test_config_missing_file(tmp_path, capsys):
    assert cli.main(["transport", "--config", str(tmp_path / "nope.json"),
                     "--z", "0"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_grid_and_check_byte_identical_across_runs(tmp_path):
    config = _rotation_config(tmp_path)
    grid_a, grid_b = tmp_path / "a.csv", tmp_path / "b.csv"
    check_a, check_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["grid", "--config", config, "--out", str(grid_a)]) == 0
    assert cli.main(["grid", "--config", config, "--out", str(grid_b)]) == 0
    assert cli.main(["check", "--config", config, "--out", str(check_a)]) == 0
    assert cli.main(["check", "--config", config, "--out", str(check_b)]) == 0
    assert grid_a.read_bytes() == grid_b.read_bytes()
    assert check_a.read_bytes() == check_b.read_bytes()


def test_grid_byte_identical_across_worker_counts(tmp_path):
    config = _rotation_config(tmp_path)
    serial, parallel = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert cli.main(["grid", "--config", config, "--workers", "1",
                     "--out", str(serial)]) == 0
    assert cli.main(["grid", "--config", config, "--workers", "4",
                     "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_workers_env_default(tmp_path, monkeypatch):
    config = _rotation_config(tmp_path)
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("RADIAL_GAUGE_WORKERS", "2")
    assert cli.main(["grid", "--config", config, "--out", str(out_env)]) == 0
    monkeypatch.delenv("RADIAL_GAUGE_WORKERS")
    assert cli.main(["grid", "--config", config, "--workers", "2",
                     "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_workers_env_invalid(tmp_path, monkeypatch, capsys):
    config = _rotation_config(tmp_path)
    monkeypatch.setenv("RADIAL_GAUGE_WORKERS", "many")
    assert cli.main(["grid", "--config", config]) == 2
    assert "RADIAL_GAUGE_WORKERS" in capsys.readouterr().err
