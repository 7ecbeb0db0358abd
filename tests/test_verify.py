import csv
import json

import numpy as np
import pytest

from tsopt.cli import main
from tsopt.levelset import SHAPE, classify_nodes
from tsopt.optimize import OptimizerConfig, run
from tsopt.problems import (default_params, experiment_mesh,
                            interpolate_target, setup_problem)
from tsopt.verify import (HD_TOLERANCE, analytic_field, cs_derivative,
                          fd_quotient, hd_derivative, run_verification)
from tsopt.fem import assemble, evaluate_cost, objective, solve_state


@pytest.fixture(scope="module")
def volume_setup(mesh8, phi_d8):
    params = default_params(c1=1.0, c2=0.0).with_uhat(np.zeros(mesh8.num_nodes))
    system = assemble(mesh8, phi_d8, params)
    u = solve_state(system)
    j0 = float(objective(mesh8, phi_d8, u, params, system=system))
    return params, j0


def test_fd_quotient_is_minus_one_for_pure_volume(mesh8, phi_d8,
                                                  volume_setup):
    # both sides of the quotient are exact areas, so the only deviation is
    # float cancellation in their difference
    params, j0 = volume_setup
    labels = classify_nodes(mesh8, phi_d8)
    for k in np.flatnonzero(labels == 0)[:5]:
        for eps in (1e-3, 1e-4, 1e-5):
            q = fd_quotient(mesh8, phi_d8, params, int(k), eps, 0, j0)
            assert q == pytest.approx(-1.0, abs=1e-8)
    # interior nodes: quotient of exact areas is the sign table value
    k = int(np.flatnonzero(labels == -1)[0])
    assert fd_quotient(mesh8, phi_d8, params, k, 1e-4, -1, j0) == \
        pytest.approx(-1.0, abs=1e-7)
    k = int(np.flatnonzero(labels == 1)[0])
    assert fd_quotient(mesh8, phi_d8, params, k, 1e-4, 1, j0) == \
        pytest.approx(1.0, abs=1e-7)


def test_fd_quotient_rejects_a_step_the_design_absorbs(mesh8, phi_d8,
                                                      params_zero8):
    # a step far below the ulp of phi[k] leaves the design unchanged, so the
    # symmetric difference area is zero
    labels = classify_nodes(mesh8, phi_d8)
    k = int(np.flatnonzero((labels == SHAPE) & (phi_d8 != 0.0))[0])
    assert phi_d8[k] + 1e-300 == phi_d8[k]
    j0 = float(evaluate_cost(mesh8, phi_d8, params_zero8)[0])
    with pytest.raises(ZeroDivisionError, match="no area change"):
        fd_quotient(mesh8, phi_d8, params_zero8, k, 1e-300, SHAPE, j0)


def test_cs_recovers_pure_volume(mesh8, phi_d8, volume_setup):
    params, j0 = volume_setup
    field = analytic_field(mesh8, phi_d8, params)
    for k in np.flatnonzero(field.labels == 0)[:3]:
        errs = [abs(cs_derivative(mesh8, phi_d8, params, int(k), h, 0,
                                  field.dkatilde[k], j0) + 1.0)
                for h in (1e-3, 1e-5)]
        assert errs[0] < 5e-3
        assert errs[1] < 1e-6
        assert errs[1] < 1e-3 * errs[0]  # second-order truncation


def test_hd_estimate_is_step_independent(mesh8, phi_d8, params_zero8):
    field = analytic_field(mesh8, phi_d8, params_zero8)
    for k in (int(np.flatnonzero(field.labels == 0)[2]),
              int(np.flatnonzero(field.labels == 1)[5])):
        label = int(field.labels[k])
        v1 = hd_derivative(mesh8, phi_d8, params_zero8, k, 1.0, label,
                           field.dkatilde[k])
        v2 = hd_derivative(mesh8, phi_d8, params_zero8, k, 1e-3, label,
                           field.dkatilde[k])
        assert v2 == pytest.approx(v1, rel=1e-10, abs=1e-12)


def test_three_schemes_agree_at_their_best_steps(mesh8, phi_d8, params_zero8):
    field = analytic_field(mesh8, phi_d8, params_zero8)
    system = assemble(mesh8, phi_d8, params_zero8)
    u = solve_state(system)
    j0 = float(objective(mesh8, phi_d8, u, params_zero8, system=system))
    for k in (int(np.flatnonzero(field.labels == 0)[4]),
              int(np.flatnonzero(field.labels == 1)[10])):
        label = int(field.labels[k])
        dkat = field.dkatilde[k]
        fd_best = min(abs(fd_quotient(mesh8, phi_d8, params_zero8, k, eps,
                                      label, j0) - field.dj[k])
                      for eps in (1e-5, 3.16e-6, 1e-6, 3.16e-7))
        hd = hd_derivative(mesh8, phi_d8, params_zero8, k, 1.0, label, dkat)
        assert fd_best <= 1e-6
        assert hd == pytest.approx(field.dj[k], rel=1e-10, abs=1e-12)
    # the interface-node complex-step estimate is cancellation free and
    # reaches 1e-10 agreement at small steps
    k = int(np.flatnonzero(field.labels == 0)[4])
    cs = cs_derivative(mesh8, phi_d8, params_zero8, k, 1e-8, 0,
                       field.dkatilde[k], j0)
    assert cs == pytest.approx(field.dj[k], abs=1e-10)


def test_fd_error_curves_turn_back_up(mesh8, phi_d8, params_zero8):
    # cancellation eventually dominates: the error minimum sits at an
    # interior step of a sweep that reaches into the noise regime
    steps = (1e-4, 1e-5, 3.16e-6, 1e-6, 3.16e-7, 1e-7, 3.16e-8)
    rep = run_verification(mesh8, phi_d8, params_zero8, "fd", steps=steps)
    for curve in (rep.e_s, rep.e_t):
        best = int(np.argmin(curve))
        assert 0 < best < len(steps) - 1
        assert curve[-1] >= 2 * curve[best]


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_report_aggregation_and_csv(tmp_path, mesh8, phi_d8, params_zero8):
    field = analytic_field(mesh8, phi_d8, params_zero8)
    rep = run_verification(mesh8, phi_d8, params_zero8, "hd",
                           steps=(1.0, 1e-2))
    assert rep.estimates.shape == (2, mesh8.num_nodes)
    assert rep.e_s.shape == (2,) and (rep.e_s >= 0).all()
    assert np.array_equal(rep.analytic, field.dj)
    assert np.array_equal(rep.labels, field.labels)
    worst_node, worst_err = rep.worst_node()
    assert worst_err <= 1e-12
    fd = run_verification(mesh8, phi_d8, params_zero8, "fd",
                          steps=(1e-4, 1e-5))

    # the tables ``tsopt verify`` writes for the same design, one scheme a
    # run, so the node table of each has two empty columns
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"hd_steps": [1.0, 1e-2],
                                          "fd_steps": [1e-4, 1e-5]}}))
    for method, report in (("hd", rep), ("fd", fd)):
        out = tmp_path / method
        assert main(["verify", "--method", method, "--mesh-level", "8",
                     "--config", str(cfg), "--output", str(out)]) == 0
        for path in out.iterdir():
            assert b"\r" not in path.read_bytes(), path.name
        rows = _read_csv(out / f"verify_{method}.csv")
        assert len(rows) == 2
        assert set(rows[0]) == {"method", "step", "e_S", "e_T"}
        assert float(rows[0]["step"]) == report.steps[0]
        for row, step, e_s, e_t in zip(rows, report.steps, report.e_s,
                                       report.e_t):
            assert row["method"] == method
            assert float(row["step"]) == step
            assert float(row["e_S"]) == e_s and float(row["e_T"]) == e_t

        node_rows = _read_csv(out / "verify_nodes.csv")
        assert len(node_rows) == mesh8.num_nodes
        assert set(node_rows[0]) == {"node", "class", "analytic", "fd_best",
                                     "cs_best", "hd"}
        k = int(node_rows[3]["node"])
        assert float(node_rows[3]["analytic"]) == pytest.approx(field.dj[k])
        best = report.best_estimates()
        column = {"hd": "hd", "fd": "fd_best"}[method]
        for k, row in enumerate(node_rows):
            assert int(row["node"]) == k
            assert row["class"] == {-1: "T-", 0: "S", 1: "T+"}[
                int(field.labels[k])]
            assert row["analytic"] == f"{field.dj[k]:.17g}"
            assert row[column] == f"{best[k]:.17g}"
            assert [row[c] for c in ("fd_best", "cs_best", "hd")
                    if c != column] == ["", ""]


def test_unknown_method_rejected(mesh8, phi_d8, params_zero8):
    with pytest.raises(ValueError):
        run_verification(mesh8, phi_d8, params_zero8, "ad")


def test_hd_agreement_at_level_32():
    # 2113 nodes: every shape node and every 8th topological node, against
    # the closed form at the tolerance of acceptance criterion 1
    mesh = experiment_mesh(32)
    params = setup_problem(mesh, uhat="zero")
    phi = interpolate_target(mesh)
    field = analytic_field(mesh, phi, params)
    nodes = np.concatenate([np.flatnonzero(field.labels == 0),
                            np.flatnonzero(field.labels != 0)[::8]])
    assert mesh.num_nodes == 2113 and len(nodes) > 400
    worst = 0.0
    for k in nodes:
        est = hd_derivative(mesh, phi, params, int(k), 1.0,
                            int(field.labels[k]), field.dkatilde[k])
        worst = max(worst, abs(est - field.dj[k]) / max(1.0, abs(field.dj[k])))
    assert worst <= 1e-10


def test_hd_agreement_on_the_optimizer_iterates(mesh8, params_target8):
    # the designs the level-8 optimizer visits, before and after it reaches
    # J <= 1e-4 J0: HD against the closed form on every node, relative to
    # max|dJ| (which falls to about 1e-5, where criterion 1's scale of
    # max(1, |dJ|) would make the test an absolute one)
    checked = (1, 50, 66, 80)
    designs = {}

    def keep(mesh, phi, ev, it, final):
        if it in checked and not final:
            designs[it] = (phi, ev.field)

    history, _ = run(mesh8, params_target8,
                     OptimizerConfig(max_iter=80, snapshot_cadence=1),
                     on_snapshot=keep)
    j = np.array(history.j)
    reached = int(np.flatnonzero(j <= 1e-4 * j[0])[0])
    assert reached <= 66 and sorted(designs) == list(checked)
    for it, (phi, field) in designs.items():
        est = np.array([hd_derivative(mesh8, phi, params_target8, k, 1.0,
                                      int(field.labels[k]), field.dkatilde[k])
                        for k in range(mesh8.num_nodes)])
        worst = np.abs(est - field.dj).max() / np.abs(field.dj).max()
        assert worst <= HD_TOLERANCE, (it, worst)
