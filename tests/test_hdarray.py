import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsopt.hdarray import (DivisionByZeroRealPart, HyperDualArray,
                           promote_like, sign_array)


def random_hda(rng, shape):
    return HyperDualArray(*(rng.normal(size=shape) for _ in range(3)))


def check_matches_scalars(arr, expected_fn, a, b):
    for idx in np.ndindex(arr.shape):
        want = expected_fn(a[idx], b[idx])
        got = arr[idx]
        for u, v in zip(got.lanes, want.lanes):
            assert u == pytest.approx(v, rel=1e-13, abs=1e-13)


def test_elementwise_ops_match_scalar_arithmetic(rng):
    a = random_hda(rng, (4, 3))
    b = random_hda(rng, (4, 3))
    b.re += 3.0  # keep real parts away from zero for division
    check_matches_scalars(a + b, lambda x, y: x + y, a, b)
    check_matches_scalars(a - b, lambda x, y: x - y, a, b)
    check_matches_scalars(a * b, lambda x, y: x * y, a, b)
    check_matches_scalars(a / b, lambda x, y: x / y, a, b)


def test_scalar_and_ndarray_operands(rng):
    a = random_hda(rng, 5)
    s = HyperDualArray(0.3, 1.0, -1.0)
    r = np.linspace(1.0, 2.0, 5)
    assert isinstance(a * s, HyperDualArray)
    assert np.allclose((a * 2.0).re, 2.0 * a.re)
    assert np.allclose((r - a).re, r - a.re)
    assert np.allclose((r - a).e1, -a.e1)
    # commutative up to the order of the e12 sum
    for left, right in zip((s * a).lanes, (a * s).lanes):
        assert np.allclose(left, right, rtol=1e-14, atol=0.0)


def test_indexing_and_assignment():
    a = HyperDualArray(np.zeros((3, 3)))
    a[1, 2] = HyperDualArray(1.0, 2.0, 4.0)
    v = a[1, 2]
    assert isinstance(v, HyperDualArray) and v.shape == () and v.e1 == 2.0
    sub = a[1]
    assert isinstance(sub, HyperDualArray) and sub.shape == (3,)
    a[0] = np.ones(3)
    assert np.allclose(a.re[0], 1.0) and np.allclose(a.e1[0], 0.0)


def test_sum_and_reductions(rng):
    a = random_hda(rng, (6, 3))
    total = a.sum()
    assert isinstance(total, HyperDualArray) and total.shape == ()
    assert total.re == pytest.approx(a.re.sum())
    rows = a.sum(axis=1)
    assert rows.shape == (6,)
    assert np.allclose(rows.e12, a.e12.sum(axis=1))


def test_reciprocal_requires_nonzero_real_parts():
    bad = HyperDualArray(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(DivisionByZeroRealPart):
        bad.reciprocal()


def _first_nonzero_sign(parts):
    for p in parts:
        if p > 0.0:
            return 1
        if p < 0.0:
            return -1
    return 0


def test_sign_array_matches_scalar_rule(rng):
    a = random_hda(rng, 50)
    a.re[::5] = 0.0
    a.e1[::10] = 0.0
    a.e12[::20] = 0.0
    signs = sign_array(a)
    for i in range(50):
        assert signs[i] == _first_nonzero_sign((a.re[i], a.e1[i], a.e12[i]))
        assert signs[i] == int(sign_array(a[i]))
    z = rng.normal(size=20) + 1j * rng.normal(size=20)
    z[::4] = 1j * z[::4].imag
    signs = sign_array(z)
    for i in range(20):
        assert signs[i] == _first_nonzero_sign((z[i].real, z[i].imag))
        assert signs[i] == int(sign_array(complex(z[i])))


def test_promote_and_zeros():
    phi = np.array([1.0, -2.0])
    assert promote_like(phi, 0.5).dtype == float
    assert promote_like(phi, 0.5) is phi    # the real path makes no copy
    assert promote_like(phi, 1j).dtype == complex
    hd = promote_like(phi, HyperDualArray(0.0, 1.0))
    assert isinstance(hd, HyperDualArray)
    z = promote_like(np.zeros((2, 2)), hd)
    assert isinstance(z, HyperDualArray) and z.shape == (2, 2)
    assert promote_like(np.zeros(3), np.zeros(1, dtype=complex)).dtype \
        == complex
    # an integer prototype is real: the result is float, not truncated
    assert promote_like(np.zeros(3), np.arange(3)).dtype == float


class FourLane:
    """Reference hyper-dual ``a + b E1 + c E2 + d E1 E2`` with four
    independent lanes, in the operation order of the untied formulas."""

    __array_ufunc__ = None

    def __init__(self, re, e1, e2, e12):
        self.lanes = tuple(np.float64(v) for v in (re, e1, e2, e12))

    @staticmethod
    def of(value):
        if isinstance(value, FourLane):
            return value.lanes
        return np.float64(value), 0.0, 0.0, 0.0

    def __add__(self, other):
        return FourLane(*(x + y for x, y in zip(self.lanes, self.of(other))))

    __radd__ = __add__

    def __sub__(self, other):
        return FourLane(*(x - y for x, y in zip(self.lanes, self.of(other))))

    def __rsub__(self, other):
        return FourLane(*(y - x for x, y in zip(self.lanes, self.of(other))))

    def __mul__(self, other):
        r, s, t, u = self.lanes
        a, b, c, d = self.of(other)
        return FourLane(r * a, r * b + s * a, r * c + t * a,
                        r * d + s * c + t * b + u * a)

    __rmul__ = __mul__

    def reciprocal(self):
        r, s, t, u = self.lanes
        if r == 0.0:
            raise ZeroDivisionError
        inv = 1.0 / r
        inv2 = inv * inv
        return FourLane(inv, -s * inv2, -t * inv2,
                        (2.0 * s * t * inv - u) * inv2)

    def __truediv__(self, other):
        if isinstance(other, FourLane):
            return self * other.reciprocal()
        inv = 1.0 / np.float64(other)
        return FourLane(*(x * inv for x in self.lanes))

    def __rtruediv__(self, other):
        return self.reciprocal() * other


_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "rsub": lambda x, y: y - x,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
    "rdiv": lambda x, y: y / x,
    "reciprocal": lambda x, y: x.reciprocal(),
}
_finite = st.floats(-8.0, 8.0, allow_nan=False)
_hyper = st.tuples(_finite, _finite, _finite)


@settings(max_examples=300)
@given(start=_hyper,
       chain=st.lists(st.tuples(st.sampled_from(sorted(_OPS)),
                                st.one_of(_hyper, _finite)),
                      min_size=1, max_size=8))
def test_tied_lanes_equal_four_lane_reference_bitwise(start, chain):
    # the tied type must give, lane for lane and to the last bit, the
    # untied arithmetic of numbers whose E2 part equals their E1 part
    def tied(v):
        return HyperDualArray(*v), FourLane(v[0], v[1], v[1], v[2])

    got, want = tied(start)
    with np.errstate(all="ignore"):
        for name, y in chain:
            y_got, y_want = tied(y) if isinstance(y, tuple) else (y, y)
            try:
                want = _OPS[name](want, y_want)
            except ZeroDivisionError:
                with pytest.raises(DivisionByZeroRealPart):
                    _OPS[name](got, y_got)
                return
            got = _OPS[name](got, y_got)
    re, e1, e2, e12 = want.lanes
    assert e1.tobytes() == e2.tobytes()
    for lane, ref in zip(got.lanes, (re, e1, e12)):
        assert lane.shape == () and lane.tobytes() == ref.tobytes()
