import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from tsopt import fem, optimize
from tsopt.cli import main
from tsopt.fem import assemble, evaluate_cost
from tsopt.ldlt import SolverBreakdown
from tsopt.levelset import classify_nodes
from tsopt.mesh import build_incidence, generate_crossed_mesh
from tsopt.optimize import (DegenerateAngle, OptimizerConfig, _evaluate,
                            _line_search, l2_inner, l2_norm, run,
                            slerp_frame, slerp_update, smooth,
                            unit_mass_matrix)
from tsopt.problems import experiment_mesh, setup_problem


@pytest.fixture(scope="module")
def m0_16():
    return unit_mass_matrix(generate_crossed_mesh(16))


@pytest.fixture(scope="module")
def mesh16():
    return generate_crossed_mesh(16)


def test_inner_product_of_constants(mesh16, m0_16):
    ones = np.ones(mesh16.num_nodes)
    assert l2_inner(m0_16, ones, ones) == pytest.approx(1.0, abs=1e-13)


def test_inner_product_bilinearity(mesh16, m0_16, rng):
    a = rng.normal(size=mesh16.num_nodes)
    b = rng.normal(size=mesh16.num_nodes)
    c = rng.normal(size=mesh16.num_nodes)
    lhs = l2_inner(m0_16, a, 2.0 * b + c)
    rhs = 2.0 * l2_inner(m0_16, a, b) + l2_inner(m0_16, a, c)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert l2_inner(m0_16, a, b) == pytest.approx(l2_inner(m0_16, b, a))


def test_inner_product_approximates_integral(mesh16, m0_16):
    x = mesh16.nodes[:, 0]
    assert l2_inner(m0_16, x, x) == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_slerp_endpoints(mesh16, m0_16, rng):
    phi = rng.normal(size=mesh16.num_nodes)
    phi /= l2_norm(m0_16, phi)
    g = rng.normal(size=mesh16.num_nodes)
    _, g_unit, theta = slerp_frame(phi, g, m0_16)
    assert np.allclose(slerp_update(phi, g_unit, theta, 0.0), phi, atol=1e-12)
    assert np.allclose(slerp_update(phi, g_unit, theta, 1.0),
                       g / l2_norm(m0_16, g), atol=1e-12)


def test_slerp_halfway_between_orthonormal_vectors(mesh16, m0_16):
    # two discrete fields that are exactly L2-orthonormal
    phi = np.ones(mesh16.num_nodes)
    phi /= l2_norm(m0_16, phi)
    g = mesh16.nodes[:, 0] - 0.5   # odd about the midline: orthogonal to 1
    g /= l2_norm(m0_16, g)
    assert abs(l2_inner(m0_16, phi, g)) < 1e-13
    norm_phi, g_unit, theta = slerp_frame(phi, g, m0_16)
    assert norm_phi == pytest.approx(1.0)
    assert theta == pytest.approx(math.pi / 2.0)
    out = slerp_update(phi, g_unit, theta, 0.5)
    assert np.allclose(out, (phi + g) / math.sqrt(2.0), atol=1e-12)


def test_slerp_preserves_norm(mesh16, m0_16, rng):
    for _ in range(5):
        phi = rng.normal(size=mesh16.num_nodes)
        phi /= l2_norm(m0_16, phi)
        g = rng.normal(size=mesh16.num_nodes)
        kappa = rng.uniform(0.05, 0.95)
        _, g_unit, theta = slerp_frame(phi, g, m0_16)
        out = slerp_update(phi, g_unit, theta, kappa)
        assert abs(l2_norm(m0_16, out) - 1.0) <= 1e-12


def test_slerp_degenerate_angles(mesh16, m0_16):
    phi = np.ones(mesh16.num_nodes)
    phi /= l2_norm(m0_16, phi)
    _, _, theta = slerp_frame(phi, 2.0 * phi, m0_16)
    assert theta < 1e-8
    with pytest.raises(DegenerateAngle):
        slerp_frame(phi, -phi, m0_16)
    with pytest.raises(DegenerateAngle):
        slerp_frame(phi, np.zeros(mesh16.num_nodes), m0_16)


def test_line_search_returns_nothing_when_aligned(mesh8, params_target8):
    # a descent field parallel to the design leaves nothing to rotate: no
    # candidate is evaluated
    m0 = unit_mass_matrix(mesh8)
    phi = np.ones(mesh8.num_nodes)
    phi /= l2_norm(m0, phi)
    ev = SimpleNamespace(j=1.0, field=SimpleNamespace(g=2.0 * phi))
    assert _line_search(mesh8, params_target8, m0, phi, ev) == (None, 0)


@pytest.mark.parametrize("level", [1, 2, 8, 16])
def test_unit_mass_matrix_equals_coo_conversion_bitwise(level):
    mesh = experiment_mesh(level)
    m = mesh.num_nodes
    local = (np.ones((3, 3)) + np.eye(3)) / 24.0
    vals = local * mesh.geometry.det_j[:, None, None]
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, 3).ravel()
    want = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(m, m)).tocsr()
    got = unit_mass_matrix(mesh)
    for a, b in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_smoothing_leaves_constants_and_interface_nodes(mesh16, rng):
    const = np.full(mesh16.num_nodes, 0.7)
    assert np.allclose(smooth(mesh16, const), const)
    psi = rng.normal(size=mesh16.num_nodes)
    labels = classify_nodes(mesh16, psi)
    smoothed = smooth(mesh16, psi)
    s_nodes = labels == 0
    assert np.array_equal(smoothed[s_nodes], psi[s_nodes])
    indptr, indices = build_incidence(mesh16.elements, mesh16.num_nodes)
    for k in np.flatnonzero(labels != 0)[:10]:
        ring = indices[indptr[k]:indptr[k + 1]]
        assert smoothed[k] == pytest.approx(psi[ring].mean())


def test_smoothing_averages_a_spike():
    mesh = generate_crossed_mesh(1)
    psi = np.array([1.0, 1.0, 1.0, 1.0, 6.0])  # spike at the center node
    smoothed = smooth(mesh, psi)
    assert smoothed[4] == pytest.approx(10.0 / 5.0)


def _smooth_per_node(mesh, psi):
    """Reference: the one-ring average written as a loop over the nodes,
    each ring summed left to right from 0.0."""
    labels = classify_nodes(mesh, psi)
    indptr, indices = build_incidence(mesh.elements, mesh.num_nodes)
    out = np.array(psi, dtype=float)
    for k in np.flatnonzero(labels != 0):
        ring = indices[indptr[k]:indptr[k + 1]]
        total = 0.0
        for node in ring:
            total += psi[node]
        out[k] = total / len(ring)
    return out


@pytest.mark.parametrize("level", [1, 2, 8, 16])
def test_smoothing_equals_per_node_loop_bitwise(level, rng):
    mesh = experiment_mesh(level)
    for _ in range(5):
        psi = rng.normal(size=mesh.num_nodes)
        psi[rng.random(mesh.num_nodes) < 0.15] = 0.0   # snapped exact zeros
        want = _smooth_per_node(mesh, psi)
        got = smooth(mesh, psi)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_accepted_candidate_reuse_equals_fresh_evaluation(mesh8,
                                                          params_target8):
    # run() evaluates the accepted design on the system and state the line
    # search already solved; that must equal evaluating it from scratch
    m0 = unit_mass_matrix(mesh8)
    phi = np.ones(mesh8.num_nodes)
    phi /= l2_norm(m0, phi)
    ev = _evaluate(mesh8, params_target8, m0, phi,
                   *evaluate_cost(mesh8, phi, params_target8))
    for _ in range(3):
        best, _ = _line_search(mesh8, params_target8, m0, phi, ev)
        assert best is not None
        reused = _evaluate(mesh8, params_target8, m0, best.phi, best.j,
                           best.system, best.u)
        fresh = _evaluate(mesh8, params_target8, m0, best.phi,
                          *evaluate_cost(mesh8, best.phi, params_target8))
        assert reused.j == fresh.j == best.j
        for name in ("u", "p"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name))
        assert np.array_equal(reused.field.g, fresh.field.g)
        assert reused.norm_g == fresh.norm_g
        phi, ev = best.phi, reused


@pytest.mark.parametrize("case", ["one entry short", "NaN entry",
                                  "inf entry"])
def test_malformed_start_raises_before_any_work(case, monkeypatch):
    mesh = experiment_mesh(2)
    params = setup_problem(mesh)
    phi0 = np.ones(mesh.num_nodes)
    if case == "one entry short":
        phi0 = phi0[1:]
    else:
        phi0[3] = np.nan if case == "NaN entry" else np.inf

    def no_work(*args, **kwargs):
        raise AssertionError("work began before phi0 was checked")

    monkeypatch.setattr(optimize, "unit_mass_matrix", no_work)
    monkeypatch.setattr(optimize, "evaluate_cost", no_work)
    with pytest.raises(ValueError, match="phi0 must be"):
        run(mesh, params, OptimizerConfig(max_iter=1), phi0=phi0)


def test_run_stops_at_the_optimum(mesh8, params_target8, phi_d8):
    # starting at the target design, the descent field vanishes
    history, phi = run(mesh8, params_target8,
                       OptimizerConfig(max_iter=5, snapshot_cadence=0),
                       phi0=phi_d8)
    assert history.j[0] <= 1e-25
    assert history.j[-1] <= 1e-25
    assert len(history.j) <= 2


def test_single_step_fixed_point_and_descent(mesh8, params_target8, phi_d8):
    m0 = unit_mass_matrix(mesh8)
    one = OptimizerConfig(max_iter=1, snapshot_cadence=0)
    history, phi_new = run(mesh8, params_target8, one, phi0=phi_d8)
    assert history.iteration == [0] and history.j[0] <= 1e-25
    assert np.allclose(phi_new, phi_d8 / l2_norm(m0, phi_d8))
    # from the empty design each single step must strictly decrease the cost
    ones = np.ones(mesh8.num_nodes)
    first, _ = run(mesh8, params_target8, one, phi0=ones)
    assert first.stalled == [False, False] and first.j[1] < first.j[0]
    two = OptimizerConfig(max_iter=2, snapshot_cadence=0)
    second, _ = run(mesh8, params_target8, two, phi0=ones)
    assert second.j[:2] == first.j
    assert not second.stalled[2] and second.j[2] < second.j[1]


def test_short_run_descends_monotonically(mesh8, params_target8):
    config = OptimizerConfig(max_iter=25, snapshot_cadence=0)
    history, phi = run(mesh8, params_target8, config)
    j = history.j
    assert all(j[i + 1] <= j[i] for i in range(len(j) - 1))
    assert j[-1] < 0.2 * j[0]
    assert max(history.slerp_norm_dev) <= 1e-12
    assert history.n_tplus[0] == mesh8.num_nodes  # empty initial design


def test_accepted_sign_flips_follow_descent_rule(mesh8, params_target8):
    # whenever an interior node changes sign across an accepted step, the
    # sensitivity at that node must have been negative
    trace = []
    config = OptimizerConfig(max_iter=15, snapshot_cadence=1)
    run(mesh8, params_target8, config,
        on_snapshot=lambda mesh, phi, ev, it, final:
            trace.append((phi.copy(), ev.field)))
    violations = 0
    for (phi_a, field_a), (phi_b, _) in zip(trace, trace[1:]):
        labels = field_a.labels
        for k in np.flatnonzero(labels != 0):
            flipped = (phi_a[k] > 0 > phi_b[k]) or (phi_a[k] < 0 < phi_b[k])
            if flipped and not field_a.dj[k] < 0.0:
                violations += 1
    assert violations == 0


def test_local_optimality_certificate(mesh8, params_target8):
    # wherever the descent field vanishes, the sensitivity satisfies the
    # local optimality conditions: nonnegative at interior nodes, zero at
    # interface nodes
    trace = []
    run(mesh8, params_target8, OptimizerConfig(max_iter=40, snapshot_cadence=0),
        on_snapshot=lambda mesh, phi, ev, it, final:
            trace.append(ev.field) if final else None)
    field = trace[-1]
    flat = np.abs(field.g) <= 1e-12
    interior = field.labels != 0
    assert np.all(field.dj[flat & interior] >= -1e-12)
    assert np.all(np.abs(field.dj[flat & ~interior]) <= 1e-12)


def test_history_csv_format(tmp_path, mesh8, params_target8):
    # the file ``tsopt optimize`` writes, against the same run in-process
    history, _ = run(mesh8, params_target8,
                     OptimizerConfig(max_iter=3, snapshot_cadence=0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimize": {"max_iter": 3,
                                            "snapshot_cadence": 0}}))
    assert main(["optimize", "--mesh-level", "8", "--config", str(cfg),
                 "--output", str(tmp_path)]) in (0, 1)
    data = (tmp_path / "history.csv").read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == ("iter,J,normG,kappa,theta,nTminus,nTplus,nS,normDev,"
                        "stalled,nEvals")
    assert len(lines) == len(history.j) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[10] == "1"
    assert float(first[1]) == pytest.approx(history.j[0], rel=1e-15)
    for line, dev, stalled, n_evals in zip(lines[1:], history.slerp_norm_dev,
                                           history.stalled, history.n_evals):
        cols = line.split(",")
        assert sum(map(int, cols[5:8])) == mesh8.num_nodes
        assert float(cols[8]) == dev and cols[9] == str(int(stalled))
        assert cols[10] == str(n_evals)


def test_n_evals_sum_to_the_assemble_calls(monkeypatch):
    # every cost evaluation assembles once, and the accepted candidate's
    # system is reused, so the column adds up to the assemble calls
    mesh = experiment_mesh(4)
    params = setup_problem(mesh)
    calls = []

    def counted(*args):
        calls.append(None)
        return assemble(*args)

    monkeypatch.setattr(fem, "assemble", counted)
    history, _ = run(mesh, params,
                     OptimizerConfig(max_iter=12, snapshot_cadence=0))
    assert history.n_evals[0] == 1
    assert all(n >= 1 for n in history.n_evals[1:])
    assert sum(history.n_evals) == len(calls)


def test_run_stops_at_the_first_stalled_iteration(monkeypatch):
    # every candidate costs more than the initial design, so the first line
    # search walks the whole ladder and finds no decrease; the run must stop
    # there rather than walk the same ladder again from the same design
    mesh = experiment_mesh(4)
    params = setup_problem(mesh)
    calls = []

    def worse(*args):
        j, system, u = evaluate_cost(*args)
        calls.append(None)
        return (j if len(calls) == 1 else j + 1.0), system, u

    monkeypatch.setattr(optimize, "evaluate_cost", worse)
    history, _ = run(mesh, params,
                     OptimizerConfig(max_iter=3, snapshot_cadence=0))
    assert history.stalled == [False, True]
    assert history.n_evals == [1, 30]
    assert history.j[1] == history.j[0]
    assert len(calls) == 31


def _breaking_from_call(at, until=None):
    # optimize.evaluate_cost that raises on calls ``at`` to ``until``
    calls = []

    def breaking(*args):
        calls.append(None)
        if at <= len(calls) <= (until or len(calls)):
            raise SolverBreakdown("injected failure")
        return evaluate_cost(*args)

    return breaking, calls


def test_a_failing_candidate_is_rejected_and_counted(monkeypatch):
    # the second candidate of the first ladder breaks down: the ladder goes
    # on without it, and its evaluation counts in nEvals
    mesh = experiment_mesh(4)
    params = setup_problem(mesh)
    breaking, calls = _breaking_from_call(3, 3)
    monkeypatch.setattr(optimize, "evaluate_cost", breaking)
    history, _ = run(mesh, params,
                     OptimizerConfig(max_iter=5, snapshot_cadence=0))
    j = history.j
    assert len(j) == 6 and not any(history.stalled)
    assert all(j[i + 1] < j[i] for i in range(len(j) - 1))
    assert history.n_evals[1] >= 3
    assert sum(history.n_evals) == len(calls)


def test_a_ladder_of_failing_candidates_raises_the_last_failure(monkeypatch):
    mesh = experiment_mesh(4)
    params = setup_problem(mesh)
    breaking, calls = _breaking_from_call(2)
    monkeypatch.setattr(optimize, "evaluate_cost", breaking)
    history = optimize.History()
    with pytest.raises(SolverBreakdown):
        run(mesh, params, OptimizerConfig(max_iter=3, snapshot_cadence=0),
            history=history)
    assert history.iteration == [0]
    assert len(calls) == 31   # the initial design, then the whole ladder


def _line_search_by_slerp_update(mesh, params, m0, phi, ev):
    # the ladder with the slerp's frame recomputed for every kappa: norms
    # and angle evaluated once per candidate
    kappa = optimize.KAPPA_INIT
    best, since_best, n_evals = None, 0, 0
    while kappa >= optimize.KAPPA_MIN:
        _, g_unit, theta = slerp_frame(phi, ev.field.g, m0)
        if theta < optimize.THETA_TOL:
            break
        psi = slerp_update(phi, g_unit, theta, kappa)
        norm_dev = abs(l2_norm(m0, psi) - l2_norm(m0, phi))
        psi_hat = smooth(mesh, psi)
        candidate = psi_hat / l2_norm(m0, psi_hat)
        j_cand, system, u = evaluate_cost(mesh, candidate, params)
        j_cand = float(j_cand)
        n_evals += 1
        if best is None or j_cand < best.j:
            best = optimize._Candidate(j_cand, candidate, kappa, theta,
                                       norm_dev, system, u)
            since_best = 0
        else:
            since_best += 1
        if best.j < ev.j and since_best >= optimize.PATIENCE:
            break
        kappa *= optimize.KAPPA_SHRINK
    if best is None or best.j >= ev.j:
        return None, n_evals
    return best, n_evals


def test_line_search_equals_the_slerp_update_loop_bitwise(monkeypatch,
                                                          mesh8,
                                                          params_target8):
    config = OptimizerConfig(max_iter=20, snapshot_cadence=0)
    runs = []
    for search in (optimize._line_search, _line_search_by_slerp_update):
        monkeypatch.setattr(optimize, "_line_search", search)
        runs.append(run(mesh8, params_target8, config))
    (got, got_phi), (want, want_phi) = runs
    assert len(got.j) == 21
    for name in ("j", "norm_g", "kappa", "theta", "slerp_norm_dev",
                 "stalled", "n_evals"):
        assert np.array(getattr(got, name)).tobytes() \
            == np.array(getattr(want, name)).tobytes()
    assert got_phi.tobytes() == want_phi.tobytes()
