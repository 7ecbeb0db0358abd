import numpy as np
import pytest

from tsopt.hdarray import DivisionByZeroRealPart, HyperDualArray, scalar_sign

EPS8 = 8.0 * np.finfo(float).eps


def hd(re, e1=0.0, e12=0.0):
    """Hyper-dual scalar ``re + e1 (E1 + E2) + e12 E1 E2``."""
    return HyperDualArray(re, e1, e12)


def as_tuple(x):
    return tuple(float(lane) for lane in x.lanes)


def test_squaring_produces_cross_term():
    x = hd(1.0, 1.0, 0.0)
    assert as_tuple(x * x) == (1.0, 2.0, 2.0)


def test_multiplicative_identity(rng):
    one = hd(1.0)
    for _ in range(20):
        x = hd(*rng.normal(size=3))
        assert as_tuple(x * one) == as_tuple(x)


def test_cubic_carries_first_and_mixed_second_derivative():
    h = 0.25
    x = hd(2.0, h, 0.0)
    y = x * x * x
    assert y.re == 8.0
    assert y.e1 == pytest.approx(12.0 * h, rel=1e-15)   # q'(2) = 12
    assert y.e12 == pytest.approx(12.0 * h * h, rel=1e-15)  # q''(2) = 12


def test_division_by_self(rng):
    for _ in range(20):
        re = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        x = hd(re, *rng.normal(size=2))
        q = x / x
        tol = EPS8 * (1.0 + max(abs(v) for v in as_tuple(x))) ** 2
        assert q.re == pytest.approx(1.0, abs=tol)
        assert abs(q.e1) <= tol and abs(q.e12) <= tol


def test_geometric_series_truncates():
    # 1 / (1 + eps) = 1 - eps + eps^2 with eps = h (E1 + E2), eps^3 = 0
    h = 0.3
    q = hd(1.0) / hd(1.0, h)
    assert as_tuple(q) == (1.0, -h, 2.0 * h * h)


def test_first_order_quotient_rule(rng):
    for _ in range(50):
        a, b, d = rng.uniform(-2, 2, size=3)
        c = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        q = hd(a, b) / hd(c, d)
        scale = (1.0 + max(abs(a), abs(b), abs(d))) ** 2 / c ** 2
        assert q.re == pytest.approx(a / c, rel=1e-13)
        assert q.e1 == pytest.approx((b * c - a * d) / c ** 2, rel=1e-12,
                                     abs=1e-14 * scale)
        # multiplying back must reproduce the numerator
        back = q * hd(c, d)
        assert back.re == pytest.approx(a, rel=EPS8, abs=EPS8 * scale)
        assert back.e1 == pytest.approx(b, rel=EPS8, abs=EPS8 * scale)


def test_division_requires_nonzero_real_part():
    with pytest.raises(DivisionByZeroRealPart):
        hd(1.0) / hd(0.0, 1.0)


def test_division_exactly_inverts_multiplication(rng):
    for _ in range(50):
        x = hd(*rng.normal(size=3))
        y_re = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        y = hd(y_re, *rng.normal(size=2))
        z = (x / y) * y
        scale = ((1.0 + max(abs(v) for v in as_tuple(x)))
                 * (1.0 + max(abs(v) for v in as_tuple(y))) ** 2)
        assert all(abs(a - b) <= EPS8 * scale
                   for a, b in zip(as_tuple(z), as_tuple(x)))


def test_sign_examples():
    assert scalar_sign(3.0) == 1
    assert scalar_sign(-2) == -1
    assert scalar_sign(0.0) == 0
    assert scalar_sign(complex(0.0, 1e-8)) == 1
    assert scalar_sign(complex(-1.0, 5.0)) == -1
    assert scalar_sign(hd(0.0, -1e-3)) == -1
    assert scalar_sign(hd(0.0, 0.0, 2.0)) == 1
    assert scalar_sign(hd(0.0)) == 0


def test_polynomial_parts_equal_scaled_derivatives(rng):
    # for q(x) = sum c_k x^k: e1 part is h q'(x0), e12 part is h^2 q''(x0)
    for _ in range(25):
        coeffs = rng.uniform(-3, 3, size=4)
        x0 = rng.uniform(-2, 2)
        h = rng.uniform(0.05, 2.0)
        x = hd(x0, h)
        acc = hd(0.0)
        for c in coeffs[::-1]:
            acc = acc * x + c
        dq = 3 * coeffs[3] * x0 ** 2 + 2 * coeffs[2] * x0 + coeffs[1]
        ddq = 6 * coeffs[3] * x0 + 2 * coeffs[2]
        assert acc.e1 == pytest.approx(h * dq, rel=1e-12, abs=1e-13)
        assert acc.e12 == pytest.approx(h * h * ddq, rel=1e-12, abs=1e-13)


def test_complex_step_second_order_convergence():
    def r(x):
        return (x * x + 1.0) / (x + 2.0)

    x0 = 0.7
    exact = (2 * x0 * (x0 + 2) - (x0 * x0 + 1)) / (x0 + 2) ** 2
    errors = []
    for h in (1e-1, 1e-2, 1e-3):
        est = r(complex(x0, h)).imag / h
        errors.append(abs(est - exact))
    rate1 = errors[0] / errors[1]
    rate2 = errors[1] / errors[2]
    assert 50 < rate1 < 200 and 50 < rate2 < 200  # slope 2 per decade


def test_field_axioms(rng):
    for _ in range(40):
        a, b, c = (hd(*rng.normal(size=3)) for _ in range(3))
        scale = 1.0 + max(abs(v) for x in (a, b, c) for v in as_tuple(x)) ** 3
        for lhs, rhs in (
            ((a + b) + c, a + (b + c)),
            (a * b, b * a),
            ((a * b) * c, a * (b * c)),
            (a * (b + c), a * b + a * c),
        ):
            assert all(abs(u - v) <= EPS8 * scale
                       for u, v in zip(as_tuple(lhs), as_tuple(rhs)))


def test_mixed_arithmetic_with_floats():
    x = hd(2.0, 1.0, 0.5)
    assert (1.0 + x).re == 3.0
    assert (2.0 * x).e12 == 1.0
    assert (x - 1).re == 1.0
    assert (1.0 - x).e1 == -1.0
    assert (6.0 / hd(2.0)).re == 3.0
