import json

import pytest

from tsopt import ldlt
from tsopt.cli import main
from tsopt.config import ConfigError, RunConfig, load_config


def test_default_round_trip_identity():
    cfg = RunConfig().validate()
    text = cfg.dumps()
    again = RunConfig.from_dict(json.loads(text))
    assert again.dumps() == text


def test_empty_file_reproduces_benchmark(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}\n")
    cfg = load_config(path)
    assert cfg.problem == {
        "lambda1": 1.0, "lambda2": 0.6, "alpha1": 1.0, "alpha2": 0.2,
        "atilde1": 1.0, "atilde2": 0.9, "f1": 1.0, "f2": 0.5,
        "c1": 0.0, "c2": 1.0,
    }
    assert cfg.optimize["max_iter"] == 800
    assert cfg.optimize["uhat"] == "target"
    assert cfg.verify["uhat"] == "zero"


def test_partial_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"optimize": {"max_iter": 10},
                                "output_dir": "elsewhere"}))
    cfg = load_config(path)
    assert cfg.optimize["max_iter"] == 10
    assert cfg.optimize["kappa_init"] == 1.0
    assert cfg.output_dir == "elsewhere"


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"lambda2": 0.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"optimize": {"kappa_min": 2.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"verify": {"uhat": "bogus"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"no_such_section": {}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"no_such_key": 1.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"threads": 2})


def test_mesh_info_command(capsys):
    assert main(["mesh-info", "8"]) == 0
    out = capsys.readouterr().out
    assert "nodes:           145" in out
    assert "elements:        256" in out
    assert "dirichlet nodes: 18" in out
    assert main(["mesh-info", "32"]) == 0
    assert "nodes:           2113" in capsys.readouterr().out
    assert main(["mesh-info", "128"]) == 0
    assert "nodes:           33025" in capsys.readouterr().out
    assert main(["mesh-info", "0"]) == 2


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": {"lambda2": 0.0}}))
    code = main(["verify", "--config", str(bad), "--output", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_verify_command_hd_step_independence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"hd_steps": [1.0, 1e-2]}}))
    out = tmp_path / "out"
    code = main(["verify", "--method", "hd", "--config", str(cfg),
                 "--output", str(out)])
    assert code == 0
    report = (out / "verify_hd.csv").read_text().splitlines()
    assert report[0] == "method,step,e_S,e_T"
    rows = [line.split(",") for line in report[1:]]
    assert len(rows) == 2
    # both step sizes give the same (machine-precision) error level
    assert all(float(r[2]) < 1e-12 and float(r[3]) < 1e-12 for r in rows)
    nodes = (out / "verify_nodes.csv").read_text().splitlines()
    assert nodes[0] == "node,class,analytic,fd_best,cs_best,hd"
    assert len(nodes) == 146


def test_verify_command_all_methods(tmp_path):
    # short step lists keep this an end-to-end smoke of all three schemes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {
        "fd_steps": [1e-3, 1e-4], "cs_steps": [1e-4, 1e-5],
        "hd_steps": [1.0]}}))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--output", str(out)]) == 0
    for method in ("fd", "cs", "hd"):
        assert (out / f"verify_{method}.csv").exists()
    nodes = (out / "verify_nodes.csv").read_text().splitlines()
    assert len(nodes) == 146
    # every scheme produced a best estimate for every node
    assert all(row.count(",") == 5 and not row.endswith(",")
               for row in nodes[1:])


def test_optimize_command_zero_iterations(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 0, "mesh_level": 4}}))
    out = tmp_path / "run"
    code = main(["optimize", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the initial state
    assert (out / "snapshot_00000.vtk").exists()


def test_optimize_command_is_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 25, "mesh_level": 4,
                                            "snapshot_cadence": 0}}))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["optimize", "--config", str(cfg),
                     "--output", str(out)]) in (0, 1)
        outputs.append((out / "history.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_optimize_command_meets_reduction_target(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 800, "mesh_level": 4,
                                            "snapshot_cadence": 0}}))
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--output", str(out)]) == 0
    lines = (out / "history.csv").read_text().splitlines()[1:]
    j0 = float(lines[0].split(",")[1])
    j_end = float(lines[-1].split(",")[1])
    assert j_end <= 1e-4 * j0


def test_optimize_solver_failure_exits_3_with_partial_history(
        tmp_path, monkeypatch, capsys):
    # the banded LU of the real path finds a zero pivot on its 12th call,
    # mid-run
    calls = []
    real_dgbtrf = ldlt.dgbtrf

    def failing_dgbtrf(*args, **kwargs):
        calls.append(None)
        lu, ipiv, info = real_dgbtrf(*args, **kwargs)
        return lu, ipiv, 1 if len(calls) >= 12 else info

    monkeypatch.setattr(ldlt, "dgbtrf", failing_dgbtrf)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 25, "mesh_level": 4,
                                            "snapshot_cadence": 0}}))
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--output", str(out)]) == 3
    assert "solver failure" in capsys.readouterr().err
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0].startswith("iter,J,")
    assert 2 <= len(lines) < 27   # the initial state, then the run cut short
