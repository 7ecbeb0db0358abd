import csv

import numpy as np
import pytest

from tsopt.levelset import classify_nodes
from tsopt.problems import (default_params, experiment_mesh,
                            interpolate_target, setup_problem)
from tsopt.verify import (analytic_field, cs_derivative, fd_quotient,
                          hd_derivative, run_verification, write_node_table_csv,
                          write_report_csv)
from tsopt.fem import assemble, objective, solve_state


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
    cls = classify_nodes(mesh8, phi_d8)
    for k in cls.shape_nodes[:5]:
        for eps in (1e-3, 1e-4, 1e-5):
            q = fd_quotient(mesh8, phi_d8, params, int(k), eps, 0, j0)
            assert q == pytest.approx(-1.0, abs=1e-8)
    # interior nodes: quotient of exact areas is the sign table value
    k = int(cls.t_minus[0])
    assert fd_quotient(mesh8, phi_d8, params, k, 1e-4, -1, j0) == \
        pytest.approx(-1.0, abs=1e-7)
    k = int(cls.t_plus[0])
    assert fd_quotient(mesh8, phi_d8, params, k, 1e-4, 1, j0) == \
        pytest.approx(1.0, abs=1e-7)


def test_cs_recovers_pure_volume(mesh8, phi_d8, volume_setup):
    params, j0 = volume_setup
    field = analytic_field(mesh8, phi_d8, params)
    cls = field.classification
    for k in cls.shape_nodes[:3]:
        errs = [abs(cs_derivative(mesh8, phi_d8, params, int(k), h, 0,
                                  field.dkatilde[k], j0) + 1.0)
                for h in (1e-3, 1e-5)]
        assert errs[0] < 5e-3
        assert errs[1] < 1e-6
        assert errs[1] < 1e-3 * errs[0]  # second-order truncation


def test_hd_estimate_is_step_independent(mesh8, phi_d8, params_zero8):
    field = analytic_field(mesh8, phi_d8, params_zero8)
    for k in (int(field.classification.shape_nodes[2]),
              int(field.classification.t_plus[5])):
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
    for k in (int(field.classification.shape_nodes[4]),
              int(field.classification.t_plus[10])):
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
    k = int(field.classification.shape_nodes[4])
    cs = cs_derivative(mesh8, phi_d8, params_zero8, k, 1e-8, 0,
                       field.dkatilde[k], j0)
    assert cs == pytest.approx(field.dj[k], abs=1e-10)


def test_fd_error_curves_turn_back_up(mesh8, phi_d8, params_zero8):
    # cancellation eventually dominates: the error minimum sits at an
    # interior step of a sweep that reaches into the noise regime
    field = analytic_field(mesh8, phi_d8, params_zero8)
    steps = (1e-4, 1e-5, 3.16e-6, 1e-6, 3.16e-7, 1e-7, 3.16e-8)
    rep = run_verification(mesh8, phi_d8, params_zero8, "fd", steps=steps,
                           field_=field)
    for curve in (rep.e_s, rep.e_t):
        best = int(np.argmin(curve))
        assert 0 < best < len(steps) - 1
        assert curve[-1] >= 2 * curve[best]


def test_report_aggregation_and_csv(tmp_path, mesh8, phi_d8, params_zero8):
    field = analytic_field(mesh8, phi_d8, params_zero8)
    rep = run_verification(mesh8, phi_d8, params_zero8, "hd",
                           steps=(1.0, 1e-2), field_=field)
    assert rep.estimates.shape == (2, mesh8.num_nodes)
    assert rep.e_s.shape == (2,) and (rep.e_s >= 0).all()
    worst_node, worst_err = rep.worst_node()
    assert worst_err <= 1e-12
    path = tmp_path / "report.csv"
    write_report_csv(path, [rep])
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 2
    assert set(rows[0]) == {"method", "step", "e_S", "e_T"}
    assert float(rows[0]["step"]) == 1.0

    node_path = tmp_path / "nodes.csv"
    write_node_table_csv(node_path, field.dj, field.labels, {"hd": rep})
    node_rows = list(csv.DictReader(node_path.open()))
    assert len(node_rows) == mesh8.num_nodes
    assert set(node_rows[0]) == {"node", "class", "analytic", "fd_best",
                                 "cs_best", "hd"}
    k = int(node_rows[3]["node"])
    assert float(node_rows[3]["analytic"]) == pytest.approx(field.dj[k])
    assert node_rows[3]["fd_best"] == ""


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
