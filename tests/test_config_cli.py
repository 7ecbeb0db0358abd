import dataclasses
import importlib
import inspect
import json
import math

import pytest

from tsopt import ldlt, optimize
from tsopt.cli import main
from tsopt.fem import ProblemParams
from tsopt.hdarray import DivisionByZeroRealPart
from tsopt.ldlt import SolverBreakdown
from tsopt.levelset import DegenerateCut
from tsopt.optimize import DegenerateAngle, run
from tsopt.sensitivity import DegenerateDenominator
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
    path.write_text(json.dumps({"optimize": {"max_iter": 10}}))
    cfg = load_config(path)
    assert cfg.optimize["max_iter"] == 10
    assert cfg.optimize["snapshot_cadence"] == 100


def test_configs_share_no_default_step_list():
    RunConfig().verify["hd_steps"].append(5.0)
    assert RunConfig().verify["hd_steps"] == [1.0, 1e-1, 1e-2, 1e-3]


def test_config_surface_is_pinned():
    # every settable value, section by section: a new one needs a test change
    cfg = RunConfig().to_dict()
    assert set(cfg) == {"problem", "verify", "optimize"}
    constants = {"lambda1", "lambda2", "alpha1", "alpha2", "atilde1",
                 "atilde2", "f1", "f2", "c1", "c2"}
    assert set(cfg["problem"]) == constants
    assert set(cfg["verify"]) == {"uhat", "fd_steps", "cs_steps", "hd_steps"}
    assert set(cfg["optimize"]) == {"uhat", "max_iter", "snapshot_cadence",
                                    "reduction_target"}
    assert sum(map(len, cfg.values())) == 18
    # and the settable values of the library calls under it
    assert {f.name for f in dataclasses.fields(ProblemParams)} \
        == constants | {"uhat"}
    assert list(inspect.signature(run).parameters) == [
        "mesh", "params", "config", "phi0", "on_snapshot", "history"]


# settings that became constants or the --mesh-level flag
REMOVED_KEYS = [
    ("verify", "mesh_level", 8),
    ("verify", "hd_tolerance", 1e-10),
    ("verify", "slope_windows", {"fd_e_s": [9.0e-7, 4.0e-4]}),
    ("optimize", "mesh_level", 16),
    ("optimize", "kappa_init", 1.0),
    ("optimize", "kappa_min", 1e-9),
    ("optimize", "kappa_shrink", 0.5),
    ("optimize", "patience", 2),
    ("optimize", "smoothing", True),
    ("optimize", "theta_tol", 1e-8),
]


@pytest.mark.parametrize("section,key,value", REMOVED_KEYS,
                         ids=[f"{s}.{k}" for s, k, _ in REMOVED_KEYS])
def test_removed_key_exits_2(tmp_path, capsys, section, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {key: value}}))
    code = main([section, "--config", str(bad), "--mesh-level", "2",
                 "--output", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not (tmp_path / "run").exists()


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"lambda2": 0.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"optimize": {"kappa_min": 2.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"optimize": {"kappa_shrink": 2.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"optimize": {"max_iter": -1}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"optimize": {"patience": -3}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"optimize": {"snapshot_cadence": -1}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"verify": {"uhat": "bogus"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"no_such_section": {}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"no_such_key": 1.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"threads": 2})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"verify": {"hd_tolerance": -1}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"optimize": {"reduction_target": -1}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"output_dir": 5})


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
    assert main(["mesh-info", "-1"]) == 2


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": {"lambda2": 0.0}}))
    code = main(["verify", "--config", str(bad), "--output", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_optimizer_setting_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"optimize": {"kappa_shrink": 2.0}}))
    code = main(["optimize", "--config", str(bad), "--mesh-level", "2",
                 "--output", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "kappa_shrink" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["verify", "optimize"])
def test_unusable_output_exits_2_before_any_work(tmp_path, monkeypatch,
                                                 capsys, command, below):
    def no_work(level):
        raise AssertionError("work started before the output was checked")

    monkeypatch.setattr(importlib.import_module("tsopt.cli"),
                        "experiment_mesh", no_work)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main([command, "--mesh-level", "2", "--output",
                 str(taken / below)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert taken.read_text() == ""


# (command, config, --mesh-level)
WRONG_VALUES = [
    ("optimize", {"problem": {"lambda1": "1.0"}}, "2"),
    ("verify", {"verify": {"mesh_level": "8"}}, "2"),
    ("optimize", [], "2"),
    ("optimize", {"optimize": 5}, "2"),
    ("verify", {"verify": {"slope_windows": [1, 2]}}, "2"),
    ("optimize", {"optimize": {"reduction_target": "x", "max_iter": 2}}, "2"),
    ("verify", {"verify": {"hd_tolerance": "x"}}, "2"),
    ("optimize", {"output_dir": 5}, "2"),
    ("optimize", {"optimize": {"max_iter": 2.5}}, "2"),
    ("optimize", {"optimize": {"max_iter": True}}, "2"),
    ("optimize", {"optimize": {"snapshot_cadence": 1.0}}, "2"),
    ("verify", {"verify": {"hd_steps": []}}, "2"),
    ("verify", {"verify": {"fd_steps": 1e-3}}, "2"),
    ("verify", {"verify": {"hd_steps": [1.0, True]}}, "2"),
    ("verify", {"verify": {"hd_steps": [1.0, -1.0]}}, "2"),
    ("verify", {}, "-1"),
    ("verify", {}, "0"),
    ("optimize", {}, "-1"),
    ("optimize", {}, "0"),
    ("verify", {"problem": {"f1": "x"}}, "2"),
    ("verify", {"problem": {"f2": None}}, "2"),
    ("verify", {"problem": {"lambda1": math.nan}}, "2"),
    ("verify", {"problem": {"c2": math.inf}}, "2"),
    ("verify", {"problem": {"lambda1": True}}, "2"),
    ("verify", {"output_dir": "elsewhere"}, "2"),   # --output alone sets it
]


# ids in pytest's own form for the (command, data) pairs, so the cases keep
# the names they had before the level column
@pytest.mark.parametrize("command,data,level", WRONG_VALUES,
                         ids=[f"{command}-data{i}" for i, (command, _, _)
                              in enumerate(WRONG_VALUES)])
def test_value_of_wrong_type_exits_2(tmp_path, capsys, command, data, level):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main([command, "--config", str(bad), "--mesh-level", level,
                 "--output", str(tmp_path / "run")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_options_follow_the_command(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": {"no_such_key": 1.0}}))
    # before the command name they are a usage error
    for option, value in (("--config", bad), ("--output", tmp_path / "d")):
        with pytest.raises(SystemExit) as exc:
            main([option, str(value), "verify", "--method", "hd",
                  "--mesh-level", "2"])
        assert exc.value.code == 2
    assert not (tmp_path / "d").exists()
    capsys.readouterr()
    # after it they are read
    assert main(["verify", "--config", str(bad), "--method", "hd",
                 "--mesh-level", "2"]) == 2
    assert "no_such_key" in capsys.readouterr().err
    assert main(["verify", "--output", str(tmp_path / "d"), "--method", "hd",
                 "--mesh-level", "2"]) == 0
    assert (tmp_path / "d" / "verify_hd.csv").exists()


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
    cfg.write_text(json.dumps({"optimize": {"max_iter": 0}}))
    out = tmp_path / "run"
    code = main(["optimize", "--config", str(cfg), "--mesh-level", "4",
                 "--output", str(out)])
    assert code == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the initial state
    assert (out / "snapshot_00000.vtk").exists()


def test_optimize_command_snapshot_files_and_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 4,
                                            "snapshot_cadence": 2,
                                            "reduction_target": 0.5}}))
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--mesh-level", "4",
                 "--output", str(out)]) == 0
    snapshots = ["snapshot_00000.vtk", "snapshot_00002.vtk",
                 "snapshot_00004.vtk", "snapshot_final.vtk"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        snapshots + ["interface_final.vtk", "history.csv"])
    for name in snapshots:
        scalars = [line.split()[1] for line in
                   (out / name).read_text().splitlines()
                   if line.startswith("SCALARS ")]
        assert scalars == ["phi", "u", "p", "dJ", "G", "nodeclass", "uhat"]


def test_optimize_command_is_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 25,
                                            "snapshot_cadence": 0}}))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["optimize", "--config", str(cfg), "--mesh-level", "4",
                     "--output", str(out)]) in (0, 1)
        outputs.append((out / "history.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_optimize_command_meets_reduction_target(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 800,
                                            "snapshot_cadence": 0}}))
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--mesh-level", "4",
                 "--output", str(out)]) == 0
    lines = (out / "history.csv").read_text().splitlines()[1:]
    j0 = float(lines[0].split(",")[1])
    j_end = float(lines[-1].split(",")[1])
    assert j_end <= 1e-4 * j0


def test_optimize_solver_failure_exits_3_with_partial_history(
        tmp_path, monkeypatch, capsys):
    # the banded Cholesky of the real path finds a non-positive pivot on
    # its 12th call, mid-run
    calls = []
    real_dpbtrf = ldlt.dpbtrf

    def failing_dpbtrf(*args, **kwargs):
        calls.append(None)
        c, info = real_dpbtrf(*args, **kwargs)
        return c, 1 if len(calls) >= 12 else info

    monkeypatch.setattr(ldlt, "dpbtrf", failing_dpbtrf)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 25,
                                            "snapshot_cadence": 0}}))
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--mesh-level", "4",
                 "--output", str(out)]) == 3
    assert "solver failure" in capsys.readouterr().err
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0].startswith("iter,J,")
    assert 2 <= len(lines) < 27   # the initial state, then the run cut short


# every numerical failure the package raises is an ArithmeticError
NUMERICAL_FAILURES = [SolverBreakdown, DegenerateCut, DegenerateDenominator,
                      DegenerateAngle, DivisionByZeroRealPart]


def _failing_on_call(real, failure, at):
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) >= at:
            raise failure("injected failure")
        return real(*args, **kwargs)

    return failing


@pytest.mark.parametrize("failure", NUMERICAL_FAILURES,
                         ids=lambda cls: cls.__name__)
def test_numerical_failure_in_optimize_exits_3_with_partial_history(
        tmp_path, monkeypatch, capsys, failure):
    # the sensitivity of the fourth evaluated design fails, mid-run
    monkeypatch.setattr(optimize, "ts_derivative",
                        _failing_on_call(optimize.ts_derivative, failure, 4))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 25,
                                            "snapshot_cadence": 0}}))
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--mesh-level", "4",
                 "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and failure.__name__ in err
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0].startswith("iter,J,")
    assert 4 <= len(lines) < 27   # rows 0-2 at least, then the run cut short


@pytest.mark.parametrize("failure", NUMERICAL_FAILURES,
                         ids=lambda cls: cls.__name__)
def test_numerical_failure_in_verify_exits_3(tmp_path, monkeypatch, capsys,
                                             failure):
    module = importlib.import_module("tsopt.verify")
    monkeypatch.setattr(module, "ts_derivative",
                        _failing_on_call(module.ts_derivative, failure, 1))
    out = tmp_path / "run"
    assert main(["verify", "--method", "hd", "--mesh-level", "2",
                 "--output", str(out)]) == 3
    assert failure.__name__ in capsys.readouterr().err
