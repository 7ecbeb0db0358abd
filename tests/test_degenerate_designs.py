"""Degenerate level sets: exact zeros, values that underflow, tied values
across a cut.  Every public step of an evaluation must give finite values
or raise an ``ArithmeticError`` subclass, never a silent NaN or inf, nor an
untyped error."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import jittered_crossed_mesh, one_diagonal_mesh
from tsopt.fem import assemble, objective, solve_adjoint, solve_state
from tsopt.hdarray import sign_array
from tsopt.levelset import classify_nodes, subdomain_area
from tsopt.optimize import smooth
from tsopt.problems import experiment_mesh, setup_problem
from tsopt.sensitivity import ts_derivative

_SPECIAL = (0.0, 1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0, 2.0)


@lru_cache(maxsize=None)
def _problem(level):
    mesh = experiment_mesh(level)
    return mesh, setup_problem(mesh)


@st.composite
def _designs(draw):
    level = draw(st.integers(1, 4))
    mesh, params = _problem(level)
    m = mesh.num_nodes
    if draw(st.booleans()):
        values = st.sampled_from(_SPECIAL)
    else:
        values = st.floats(-1.0, 1.0, allow_nan=False)
    phi = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    node = st.integers(0, m - 1)
    for k in draw(st.lists(node, max_size=m)):
        phi[k] = 0.0                                   # snapped zeros
    for i, j, sign in draw(st.lists(st.tuples(node, node,
                                              st.sampled_from((1.0, -1.0))),
                                    max_size=m)):
        phi[j] = sign * phi[i]                         # tied values
    return mesh, params, phi


def _finite(*values):
    for value in values:
        assert np.isfinite(value).all()


def _typed(step):
    """``step()``'s result, or None if it raised an ``ArithmeticError``."""
    try:
        return step()
    except ArithmeticError:
        return None


@settings(max_examples=300)
@given(_designs())
def test_degenerate_designs_end_finite_or_typed(design):
    mesh, params, phi = design
    labels = _typed(lambda: classify_nodes(mesh, phi))
    if labels is not None:
        assert set(np.unique(labels)) <= {-1, 0, 1}
    smoothed = _typed(lambda: smooth(mesh, phi))
    if smoothed is not None:
        _finite(smoothed)

    def evaluation():
        system = assemble(mesh, phi, params)
        _finite(system.matrix.data, system.rhs, system.mt_local,
                subdomain_area(mesh, phi))
        u = solve_state(system)
        _finite(u)
        _finite(objective(mesh, phi, u, params, system=system))
        p = solve_adjoint(system, u, params)
        _finite(p)
        fld = ts_derivative(mesh, phi, u, p, params)
        _finite(fld.dj, fld.g, fld.dkatilde)
        return fld

    _typed(evaluation)


def _plus(phi):
    return sign_array(phi) >= 0


@st.composite
def _zero_free_designs(draw):
    level = draw(st.integers(1, 5))
    mesh = draw(st.sampled_from([
        _problem(level)[0], one_diagonal_mesh(level),
        jittered_crossed_mesh(level, draw(st.integers(0, 2 ** 32 - 1)))]))
    if draw(st.booleans()):
        values = st.sampled_from([v for v in _SPECIAL if v != 0.0])
    else:   # 0.0 and -0.0 become 1.0
        values = st.floats(-1.0, 1.0, allow_nan=False).map(lambda v: v or 1.0)
    m = mesh.num_nodes
    psi = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    if draw(st.booleans()):          # two one-signed halves: interior nodes
        cut = draw(st.floats(0.0, 1.0))
        psi = np.where(mesh.nodes[:, 0] < cut, -1.0, 1.0) * np.abs(psi)
    return mesh, psi


@settings(max_examples=200)
@given(_zero_free_designs())
def test_smoothing_keeps_the_signs_of_a_zero_free_design(design):
    # an interior node averages a ring of one strict sign, whose mean keeps
    # that sign (at least the smallest subnormal in size), so the
    # optimizer's candidates keep the labels and plus bits of their psi
    mesh, psi = design
    smoothed = smooth(mesh, psi)
    assert np.array_equal(_plus(smoothed), _plus(psi))
    assert np.array_equal(classify_nodes(mesh, smoothed),
                          classify_nodes(mesh, psi))


def test_smoothing_moves_an_exact_zero_with_a_nonpositive_ring_below_zero():
    mesh = experiment_mesh(2)
    psi = np.zeros(mesh.num_nodes)
    psi[9], psi[8] = -1.0, 1.0       # a negative and a positive node
    labels = classify_nodes(mesh, psi)
    smoothed = smooth(mesh, psi)
    moved = np.flatnonzero(_plus(smoothed) != _plus(psi))
    assert moved.tolist() == [0, 1, 3, 4]
    assert (psi[moved] == 0.0).all() and (labels[moved] == -1).all()
    assert (smoothed[moved] < 0.0).all()
    assert not np.array_equal(classify_nodes(mesh, smoothed), labels)


def test_smoothing_underflows_a_negative_subnormal_to_negative_zero():
    mesh = experiment_mesh(2)
    psi = np.zeros(mesh.num_nodes)
    psi[4], psi[0] = -5e-324, 1.0    # node 4's ring: zeros and itself
    smoothed = smooth(mesh, psi)
    assert smoothed[4] == 0.0 and np.signbit(smoothed[4])
    assert np.flatnonzero(_plus(smoothed) != _plus(psi)).tolist() == [4]
    assert not np.array_equal(classify_nodes(mesh, smoothed),
                              classify_nodes(mesh, psi))
