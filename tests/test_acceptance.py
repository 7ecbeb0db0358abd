"""Acceptance suite.

Each test prints one PASS line for its criterion; tolerances are fixed
here, not tuned at runtime.  The long optimization run is shared between
the two criteria that examine it.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from helpers import (clip_negative_region, exact_negative_area,
                     jittered_crossed_mesh, one_diagonal_mesh,
                     reference_triangles)
from tsopt.fem import assemble, element_geometry, solve_adjoint, solve_state
from tsopt.hdarray import HyperDualArray
from tsopt.levelset import (T_MINUS, T_PLUS, classify_nodes,
                            interface_segments, symmetric_difference_area)
from tsopt.mesh import generate_crossed_mesh
from tsopt.optimize import OptimizerConfig, run
from tsopt.problems import (default_params, experiment_mesh,
                            interpolate_target, setup_problem)
from tsopt.sensitivity import area_derivative, cut_matrices, ts_derivative
from tsopt.verify import analytic_field, hd_derivative, run_verification


def _report(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {description}" +
          (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {description} [{detail}]"


@pytest.fixture(scope="module")
def verification_point(mesh8, phi_d8, params_zero8):
    field = analytic_field(mesh8, phi_d8, params_zero8)
    return mesh8, phi_d8, params_zero8, field


@pytest.fixture(scope="module")
def long_run():
    mesh = experiment_mesh(16)
    params = setup_problem(mesh, uhat="target")
    history, phi = run(mesh, params,
                       OptimizerConfig(max_iter=800, snapshot_cadence=0))
    return mesh, history, phi


def test_criterion_1_hyperdual_oracle_equivalence(verification_point):
    mesh, phi, params, field = verification_point
    start = time.monotonic()
    worst = 0.0
    for k in range(mesh.num_nodes):
        est = hd_derivative(mesh, phi, params, k, 1.0, int(field.labels[k]),
                            field.dkatilde[k])
        rel = abs(est - field.dj[k]) / max(1.0, abs(field.dj[k]))
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    _report(1, "closed-form sensitivity equals the hyper-dual re-solve at "
               "every node within 1e-10",
            worst <= 1e-10 and elapsed < 60.0,
            f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_complex_step_convergence(verification_point):
    mesh, phi, params, field = verification_point
    rep = run_verification(mesh, phi, params, "cs")
    slope_s = rep.slopes["e_s"]
    slope_t = rep.slopes["e_t"]
    min_e_s = float(rep.e_s.min())
    ok = (abs(slope_s - 2.0) <= 0.2 and min_e_s <= 1e-11
          and abs(slope_t - 2.0) <= 0.3)
    _report(2, "complex-step errors decay quadratically and the interface "
               "error reaches 1e-11",
            ok, f"slopes {slope_s:.2f}/{slope_t:.2f}, min e_S {min_e_s:.1e}")


def test_criterion_3_finite_difference_convergence(verification_point):
    mesh, phi, params, field = verification_point
    rep = run_verification(mesh, phi, params, "fd")
    slope_s = rep.slopes["e_s"]
    slope_t = rep.slopes["e_t"]
    ok = abs(slope_s - 1.0) <= 0.2 and abs(slope_t - 1.0) <= 0.2
    _report(3, "finite-difference errors decay at first order on the "
               "pre-cancellation window",
            ok, f"slopes {slope_s:.2f}/{slope_t:.2f}")


def test_criterion_4_volume_derivative_exactness(mesh8):
    # the pure area cost (c1 = 1, c2 = 0): the closed form on 100 random
    # level sets, and the hyper-dual re-solve on every node of 3 of them
    params = default_params(c1=1.0, c2=0.0).with_uhat(
        np.zeros(mesh8.num_nodes))
    rng = np.random.default_rng(4)
    worst = worst_hd = 0.0
    for i in range(100):
        phi = rng.uniform(-1.0, 1.0, mesh8.num_nodes)
        expected = np.where(classify_nodes(mesh8, phi) == T_PLUS, 1.0, -1.0)
        field = analytic_field(mesh8, phi, params)
        worst = max(worst, float(np.abs(field.dj - expected).max()))
        if i < 3:
            est = np.array([hd_derivative(mesh8, phi, params, k, 1.0,
                                          int(field.labels[k]),
                                          field.dkatilde[k])
                            for k in range(mesh8.num_nodes)])
            worst_hd = max(worst_hd, float(np.abs(est - expected).max()))
    _report(4, "area-cost sensitivity is exactly the sign table for 100 "
               "random level sets, and the hyper-dual re-solve agrees on 3",
            worst <= 1e-12 and worst_hd <= 1e-12,
            f"worst {worst:.1e}, hyper-dual {worst_hd:.1e}")


def test_criterion_5_cut_rate_oracles(every_element_integrals):
    rng = np.random.default_rng(5)
    # pivot-first sign patterns of the six cut configurations A+, A-, B+,
    # B-, C+, C-
    patterns = [(1, -1, -1), (-1, 1, 1), (-1, 1, -1), (1, -1, 1),
                (-1, -1, 1), (1, 1, -1)]
    eps = 1e-6
    h = 0.37
    worst_fd = worst_hd = 0.0
    # one reference triangle per sample, all differentiated in one call of
    # the production kernel; the pivot is each triangle's first vertex
    samples = 200
    mesh = reference_triangles(samples)
    pivot = np.zeros((samples, 3))
    pivot[:, 0] = 1.0

    def entries(vals):
        # rows: the area, the mass's upper triangle and the load
        frac, mass, load = every_element_integrals(mesh, vals)
        return ([frac] + [mass[:, i, j] for i in range(3) for j in range(i, 3)]
                + [load[:, i] for i in range(3)])

    for pattern in patterns:
        vals = np.array(pattern) * rng.uniform(0.1, 2.0, (samples, 3))
        closed = []
        for v in vals:
            mats = cut_matrices(v, det_j=1.0)
            closed.append([area_derivative_reference(v)]
                          + [mats.dm[i, j] for i in range(3)
                             for j in range(i, 3)]
                          + list(mats.df))
        up = entries((vals + eps * pivot).reshape(-1))
        down = entries((vals - eps * pivot).reshape(-1))
        hd_vals = entries(HyperDualArray(vals.reshape(-1),
                                         h * pivot.reshape(-1)))
        for want, hi, lo, hdv in zip(np.array(closed).T, up, down, hd_vals):
            fd = (hi - lo) / (2.0 * eps)
            scale = np.maximum(np.abs(want), 1e-8)
            worst_fd = max(worst_fd, float((np.abs(fd - want) / scale).max()))
            worst_hd = max(worst_hd, float(
                (np.abs(hdv.e1 / h - want)
                 / np.maximum(np.abs(want), 1e-13)).max()))

    # interior-node (second-order) area rates, both signs; the area change
    # is the cap cut off by the perturbed interface, evaluated directly by
    # clipping so the quotient is not cancellation limited
    worst_topo = 0.0
    for _ in range(200):
        p2, p3 = -rng.uniform(0.1, 2.0, 2)
        rate = -1.0 / (2.0 * p2 * p3)
        delta = -exact_negative_area((-eps, -p2, -p3))  # positive cap appears
        worst_topo = max(worst_topo, abs(delta / eps ** 2 - rate) / abs(rate))
        q2, q3 = rng.uniform(0.1, 2.0, 2)
        rate = 1.0 / (2.0 * q2 * q3)
        delta = exact_negative_area((-eps, q2, q3))     # negative cap appears
        worst_topo = max(worst_topo, abs(delta / eps ** 2 - rate) / abs(rate))

    ok = worst_fd <= 1e-4 and worst_hd <= 1e-10 and worst_topo <= 1e-4
    _report(5, "closed-form cut rates match finite-difference and "
               "hyper-dual differentiation of the exact cut integrals",
            ok, f"fd {worst_fd:.1e}, hd {worst_hd:.1e}, topo {worst_topo:.1e}")


def area_derivative_reference(vals):
    """Single-element signed area rate via the public per-node routine."""
    from tsopt.mesh import Mesh
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    phi = np.array(vals, dtype=float)
    return area_derivative(mesh, phi, 0).total


def test_criterion_6_discretized_continuous_identity(verification_point):
    from tsopt.sensitivity import continuous_sd_discretized
    mesh, phi, params, field = verification_point
    system = assemble(mesh, phi, params)
    u = solve_state(system)
    p = solve_adjoint(system, u, params)
    geo = element_geometry(mesh)
    normals = {}
    for l, (p0, p1) in interface_segments(mesh, phi):
        d = p1 - p0
        n = np.array([-d[1], d[0]])
        n /= np.hypot(*n)
        if (phi[mesh.elements[l]] @ geo.grads[l]) @ n < 0:
            n = -n
        normals[l] = n
    worst = 0.0
    for k in np.flatnonzero(field.labels == 0):
        ghat = continuous_sd_discretized(mesh, phi, u, p, params, int(k),
                                         field.labels)
        der = area_derivative(mesh, phi, int(k), field.labels)
        flux = 0.0
        for l, dka_l in zip(der.elements, der.values):
            if dka_l == 0.0 or l not in normals:
                continue
            n = normals[l]
            gu = u[mesh.elements[l]] @ geo.grads[l]
            gp = p[mesh.elements[l]] @ geo.grads[l]
            flux += (gu @ n) * (gp @ n) * dka_l
        rhs = -2.0 * params.d_lambda * flux / der.total_abs
        worst = max(worst, abs((ghat - field.dj[k]) - rhs))
    _report(6, "discretized boundary-form sensitivity differs from the "
               "direct one by exactly the normal-flux term",
            worst <= 1e-12, f"worst {worst:.1e}")


def test_criterion_7_optimization_recovers_target(long_run):
    mesh, history, phi = long_run
    reduction = history.j[-1] / history.j[0]
    g_drop = history.norm_g[-1] / max(history.norm_g[0], 1e-300)
    centroids = _negative_component_centroids(mesh, phi)
    cell = 1.0 / 16.0
    targets = [np.array([0.3, 0.4]), np.array([0.7, 0.7])]
    matched = []
    for t in targets:
        hits = [c for c, area in centroids
                if np.hypot(*(c - t)) <= 2.0 * cell]
        matched.append(len(hits) == 1)
    ok = (history.iteration[-1] == 800 and reduction <= 1e-4
          and g_drop <= 1e-2 and all(matched))
    detail = (f"J ratio {reduction:.2e}, |G| ratio {g_drop:.2e}, "
              f"components {[np.round(c, 3).tolist() for c, _ in centroids]}")
    _report(7, "800-iteration run reduces the cost 10^4-fold and recovers "
               "two components at the target circles", ok, detail)


def test_criterion_8_norm_preservation_and_monotonicity(long_run):
    _, history, _ = long_run
    j = history.j
    monotone = all(j[i + 1] <= j[i] for i in range(len(j) - 1))
    max_dev = max(history.slerp_norm_dev)
    _report(8, "slerp preserves the L2 norm to 1e-12 and accepted costs "
               "are monotone over the full run",
            monotone and max_dev <= 1e-12, f"max dev {max_dev:.1e}")


def test_criterion_9_discrete_perimeter_of_shifted_circle():
    mesh = generate_crossed_mesh(64)
    r = 0.3
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    phi = np.hypot(x - 0.5, y - 0.5) - r
    t = 1e-3
    rate = symmetric_difference_area(mesh, phi, phi - t) / t
    perimeter = 2.0 * np.pi * r
    rel = abs(rate - perimeter) / perimeter
    _report(9, "symmetric-difference rate of a uniformly shifted circle "
               "matches its perimeter within 5% on the fine mesh",
            rel <= 0.05, f"rate {rate:.4f} vs {perimeter:.4f}, rel {rel:.3f}")


def _gradient_factor(mesh, params, u, p, dj, label, k):
    """``c_eff`` of the interior node ``k``: its sensitivity ``dj`` less
    the terms that are local to the node, over ``d_lambda`` times the
    area-weighted mean of ``grad u . grad p`` over the elements around it.
    The continuous topological derivative has the polarization factor
    (0.75 at a positive, 1.25 at a negative node here) in its place."""
    w = u[k] - params.uhat[k]
    local = (params.c1 + params.d_alpha * p[k] * u[k] - params.d_f * p[k]
             + params.c2 * params.d_atilde * w * w)
    ring = np.flatnonzero((mesh.elements == k).any(axis=1))
    tris, grads = mesh.elements[ring], mesh.geometry.grads[ring]
    gu = np.einsum("ei,eid->ed", u[tris], grads)
    gp = np.einsum("ei,eid->ed", p[tris], grads)
    area = mesh.geometry.det_j[ring]
    mean = (area * (gu * gp).sum(axis=1)).sum() / area.sum()
    return (dj / label - local) / (params.d_lambda * mean)


def test_criterion_10_interior_sensitivity_tends_to_the_gradient_term():
    # at the node nearest a fixed point of each sign, on three kinds of
    # mesh: |c_eff - 1| falls at every refinement and is below 0.005 at
    # level 128 (measured worst 0.0026, jittered mesh, positive node), and
    # c_eff stays clear of the continuous polarization factors
    kinds = {"crossed": experiment_mesh, "one-diagonal": one_diagonal_mesh,
             "jittered": lambda n: jittered_crossed_mesh(n, 0)}
    points = {(0.5, 0.25): T_PLUS, (0.3, 0.4): T_MINUS}
    levels = (16, 32, 64, 128)
    base = default_params()
    total = base.lambda1 + base.lambda2
    polarization = (2.0 * base.lambda2 / total, 2.0 * base.lambda1 / total)
    factors, labelled = {}, True
    for kind, make in kinds.items():
        for level in levels:
            mesh = make(level)
            phi = interpolate_target(mesh)
            params = setup_problem(mesh, uhat="zero")
            system = assemble(mesh, phi, params)
            u = solve_state(system)
            p = solve_adjoint(system, u, params)
            field = ts_derivative(mesh, phi, u, p, params)
            for point, label in points.items():
                k = int(np.argmin(np.hypot(*(mesh.nodes - point).T)))
                labelled &= bool(field.labels[k] == label)
                factors.setdefault((kind, point), []).append(
                    _gradient_factor(mesh, params, u, p, field.dj[k], label,
                                     k))
    errors = np.abs(np.array(list(factors.values())) - 1.0)
    falls = bool((np.diff(errors, axis=1) < 0.0).all())
    finest = np.array([c[-1] for c in factors.values()])
    clear = float(np.abs(np.subtract.outer(finest, polarization)).min())
    worst = float(errors[:, -1].max())
    _report(10, "interior-node sensitivities tend to the gradient term with "
                "factor 1, not the continuous polarization factor, on three "
                "mesh kinds",
            labelled and falls and worst <= 0.005 and clear >= 0.2,
            f"level-128 c_eff {np.round(finest, 4).tolist()}, worst "
            f"|c_eff - 1| {worst:.1e}, falls {falls}, {clear:.2f} from "
            f"{polarization[0]:.2f} and {polarization[1]:.2f}")


def _negative_component_centroids(mesh, phi):
    """Area-weighted centroids of the connected components of the negative
    region, ignoring slivers below 1% of the domain."""
    neg = phi < 0
    tris = mesh.elements
    rows, cols = [], []
    for a in range(3):
        for b in range(3):
            if a != b:
                rows.append(tris[:, a])
                cols.append(tris[:, b])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    mask = neg[rows] & neg[cols]
    adj = sp.coo_matrix((np.ones(mask.sum()), (rows[mask], cols[mask])),
                        shape=(mesh.num_nodes,) * 2)
    _, labels = connected_components(adj, directed=False)

    sums = {}
    for l, tri in enumerate(tris):
        local_neg = neg[tri]
        if not local_neg.any():
            continue
        comp = labels[tri[local_neg][0]]
        pts = [mesh.nodes[v] for v in tri]
        vals = [phi[v] for v in tri]
        poly, _ = clip_negative_region(pts, vals)
        if len(poly) < 3:
            continue
        pts_arr = np.asarray(poly)
        xs, ys = pts_arr[:, 0], pts_arr[:, 1]
        xn, yn = np.roll(xs, -1), np.roll(ys, -1)
        cross = xs * yn - xn * ys
        a2 = cross.sum() / 2.0
        if abs(a2) < 1e-16:
            continue
        cx = ((xs + xn) * cross).sum() / (6.0 * a2)
        cy = ((ys + yn) * cross).sum() / (6.0 * a2)
        area_c, mx, my = sums.get(comp, (0.0, 0.0, 0.0))
        sums[comp] = (area_c + abs(a2), mx + abs(a2) * cx, my + abs(a2) * cy)

    out = []
    for area_c, mx, my in sums.values():
        if area_c >= 0.01:
            out.append((np.array([mx / area_c, my / area_c]), area_c))
    return out
