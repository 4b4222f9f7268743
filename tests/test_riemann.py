import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from psyslab import (BlowUpError, DomainError, PressureLaw, beta_from_gradient,
                     q_of_u, riccati_evolve, riccati_k, riemann_from_state,
                     state_from_riemann, u_of_q)

QUAD = PressureLaw.quadratic()
QUART = PressureLaw(0.1)


def q_oracle(law, u):
    """Independent quadrature of the defining integral (no substitution)."""
    val, _ = quad(lambda s: np.sqrt(-law.dp(s)), u, 0.0,
                  epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def test_q_values_quadratic():
    assert q_of_u(QUAD, 0.0) == 0.0
    assert q_of_u(QUAD, -1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert q_of_u(QUAD, -4.0) == pytest.approx(16.0 / 3.0, abs=1e-12)


def test_q_matches_quadrature_oracle():
    # relative, so that an error at small |u| (where q ~ |u|^1.5) shows
    for law in [QUAD] + [PressureLaw(a) for a in (0.01, 0.3, 1.0, 10.0)]:
        for u in (-1e-6, -1e-3, -0.25, -1.0, -3.7, -20.0, -50.0):
            assert q_of_u(law, u) == pytest.approx(q_oracle(law, u), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("law", [QUAD, QUART], ids=["quadratic", "quartic"])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_q_keeps_input_shape(law, shape):
    u = (-np.linspace(4.0, 0.0, int(np.prod(shape)))).reshape(shape)
    q = q_of_u(law, u)
    assert np.shape(q) == shape
    # the scalar loop is the reference: a point gives the same bits
    # however it is batched
    expected = np.array([q_of_u(law, float(x)) for x in u.flat]).reshape(shape)
    np.testing.assert_array_equal(q, expected)
    assert type(q_of_u(law, -1.5)) is float


def test_q_rejects_positive_u():
    with pytest.raises(DomainError):
        q_of_u(QUAD, 0.5)


def test_q_strictly_decreasing():
    rng = np.random.default_rng(11)
    for law in (QUAD, QUART):
        us = np.sort(rng.uniform(-30, 0, 50))
        qs = q_of_u(law, us)
        assert np.all(np.diff(qs) < 0.0)


def test_q_derivative_is_minus_eigenspeed():
    # q'(u) = -sqrt(-p'(u)), checked by finite differences away from 0
    h = 1e-6
    for law in (QUAD, QUART):
        for u in (-0.5, -2.0, -9.0):
            fd = (q_of_u(law, u + h) - q_of_u(law, u - h)) / (2 * h)
            assert abs(fd + np.sqrt(-law.dp(u))) < 1e-6


def test_u_of_q_inverse_values():
    assert u_of_q(QUAD, 0.0) == 0.0
    assert u_of_q(QUAD, 2.0 / 3.0) == pytest.approx(-1.0, abs=1e-12)
    assert u_of_q(QUAD, 16.0 / 3.0) == pytest.approx(-4.0, abs=1e-12)
    for y in (-0.1, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            u_of_q(QUAD, y)


def test_u_of_q_against_analytic_inverse():
    # quadratic law has the closed-form inverse u = -(3y/2)^(2/3)
    rng = np.random.default_rng(4)
    for y in rng.uniform(0.0, 200.0, 200):
        assert u_of_q(QUAD, y) == pytest.approx(-(1.5 * y) ** (2.0 / 3.0),
                                                abs=1e-10, rel=1e-12)


def test_u_of_q_residual_quartic():
    for y in (1e-6, 0.3, 4.0, 40.0):
        u = u_of_q(QUART, y)
        assert u <= 0.0
        assert abs(q_of_u(QUART, u) - y) <= 1e-10


@pytest.mark.parametrize("a", [0.01, 0.3, 10.0])
def test_u_of_q_matches_brentq_oracle(a):
    # an independent bracketing root search on the same q
    law = PressureLaw(a)
    for y in (1e-9, 1e-3, 0.2, 1.0, 7.5, 60.0, 1e4):
        left = -1.0
        while q_of_u(law, left) < y:
            left *= 2.0
        root = brentq(lambda u: q_of_u(law, u) - y, left, 0.0,
                      xtol=1e-300, rtol=8.9e-16)
        assert u_of_q(law, y) == pytest.approx(root, rel=1e-14, abs=0.0)


def test_u_of_q_overflow_is_a_domain_error():
    # the quadratic start u = -(3y/2)^(2/3) has |u|^3 beyond the float
    # range from y ~ 8e153 up; p'(u) leaked OverflowError (Python's pow)
    # and q(u) a numpy overflow RuntimeWarning, an error in this suite
    assert q_of_u(QUART, u_of_q(QUART, 1e150)) == pytest.approx(1e150, rel=1e-14)
    for y in (1e154, 1e160, 1e300):
        with pytest.raises(DomainError, match="cannot be inverted"):
            u_of_q(QUART, y)


def test_riemann_pair_values():
    assert riemann_from_state(QUAD, 0.0, 3.0) == (3.0, 3.0)
    r1, r2 = riemann_from_state(QUAD, -1.0, 0.5)
    assert (r1, r2) == pytest.approx((-1.0 / 6.0, 7.0 / 6.0), abs=1e-12)
    r1, r2 = riemann_from_state(QUAD, -4.0, 0.0)
    assert (r1, r2) == pytest.approx((-16.0 / 3.0, 16.0 / 3.0), abs=1e-12)
    with pytest.raises(DomainError):
        riemann_from_state(QUAD, 0.5, 0.0)


def test_state_from_riemann_values():
    assert state_from_riemann(QUAD, (3.0, 3.0)) == (0.0, 3.0)
    u, v = state_from_riemann(QUAD, (-1.0 / 6.0, 7.0 / 6.0))
    assert (u, v) == pytest.approx((-1.0, 0.5), abs=1e-10)
    u, v = state_from_riemann(QUAD, (-16.0 / 3.0, 16.0 / 3.0))
    assert (u, v) == pytest.approx((-4.0, 0.0), abs=1e-10)
    with pytest.raises(DomainError):
        state_from_riemann(QUAD, (1.0, 0.0))


@pytest.mark.parametrize("law", [QUAD, QUART], ids=["quadratic", "quartic"])
def test_round_trip(law):
    rng = np.random.default_rng(17)
    pts = 300 if law is QUAD else 40
    for _ in range(pts):
        u = rng.uniform(-50.0, -1e-6)
        v = rng.uniform(-10.0, 10.0)
        u2, v2 = state_from_riemann(law, riemann_from_state(law, u, v))
        assert abs(u2 - u) < 1e-9
        assert abs(v2 - v) < 1e-9


def test_riccati_k_values():
    assert riccati_k(QUAD, -1.0) == -0.25
    assert riccati_k(QUAD, -16.0) == pytest.approx(-1.0 / 128.0, rel=1e-13)
    assert riccati_k(PressureLaw(0.0), -1.0) == -0.25
    assert riccati_k(QUART, -2.0) < 0.0
    with pytest.raises(DomainError):
        riccati_k(QUAD, 0.0)


@pytest.mark.parametrize("a, u", [(1e300, -1.0), (1e308, -1.0), (1e305, -10.0),
                                  (0.0, -1e-320)])
def test_riccati_k_out_of_range_is_a_domain_error_for_floats_and_arrays(a, u):
    # a float raised OverflowError (Python's pow) at a = 1e300 where an
    # array gave -0.0, a float gave NaN at 1e308, and at 1e305 p' alone
    # overflows, so both gave -0.0; where (-p')^(5/4) underflows to 0 a
    # float raised ZeroDivisionError and an array gave -inf.  A numpy
    # warning is an error here
    law = PressureLaw(a)
    for arg in (u, np.array([u]), np.array([-1e-120, u])):
        with pytest.raises(DomainError, match="not a finite nonzero float"):
            riccati_k(law, arg)
    # where k is in range, a float still gives a float, with the array's bits
    k = riccati_k(PressureLaw(1e300), -1e-120)
    assert type(k) is float and k < 0.0
    assert riccati_k(PressureLaw(1e300), np.array([-1e-120])).tolist() == [k]


@pytest.mark.parametrize("defect", [None, "riccati_k"])
def test_riccati_k_is_the_speed_derivative(monkeypatch, defect):
    # on a simple wave beta = 2 (-p')^(3/4) u_x, and u_x' = -lambda1' u_x^2
    # along a straight family-1 line (Lax 1964), so k must satisfy
    # 2 (-p'(u))^(3/4) k(u) = d lambda1 / du with lambda1 = sqrt(-p'(u)).
    # The derivative is a central difference, independent of ``ddp``:
    # the worst relative gap is 3e-10 clean, 1e-2 with k off by 1%
    import psyslab.riemann as riemann
    if defect == "riccati_k":
        k = riemann.riccati_k
        monkeypatch.setattr(riemann, "riccati_k",
                            lambda law, u: 1.01 * k(law, u))
    u = np.linspace(-3.0, -0.05, 200)
    h = 2.0 ** -20
    gaps = []
    for law in (PressureLaw(a) for a in (0.0, 0.3, 1.0, 10.0)):
        speed_up, speed_down = np.sqrt(-law.dp(u + h)), np.sqrt(-law.dp(u - h))
        dspeed = (speed_up - speed_down) / (2.0 * h)
        lhs = 2.0 * (-law.dp(u)) ** 0.75 * riemann.riccati_k(law, u)
        gaps.append(np.max(np.abs(lhs - dspeed) / np.abs(dspeed)))
    assert (max(gaps) < 1e-7) == (defect is None)


def test_beta_from_gradient():
    assert beta_from_gradient(QUAD, -1.0, 0.0) == 0.0
    assert beta_from_gradient(QUAD, -1.0, 2.0) == 2.0
    assert beta_from_gradient(QUAD, -16.0, 1.0) == 2.0  # 16^(1/4)
    rs = np.linspace(0.1, 5.0, 20)
    betas = beta_from_gradient(QUAD, -2.0, rs)
    assert np.all(betas > 0.0)
    assert np.all(np.diff(betas) > 0.0)  # monotone in r_x
    with pytest.raises(DomainError):
        beta_from_gradient(QUAD, 0.0, 1.0)


def test_riccati_evolve_values():
    assert riccati_evolve(0.0, -5.0) == 0.0
    assert riccati_evolve(1.0, -0.5) == 2.0
    assert riccati_evolve(-1.0, -0.5) == pytest.approx(-2.0 / 3.0, rel=1e-15)
    with pytest.raises(BlowUpError):
        riccati_evolve(1.0, -1.0)
    with pytest.raises(BlowUpError):
        riccati_evolve(2.0, -1.0)


def test_riccati_evolve_solves_the_ode():
    # beta' = -k(u(t)) beta^2 along a synthetic profile, stiff-safe stepper
    profile = lambda t: -(1.0 + 0.5 * t + 0.2 * np.sin(t))
    T = 3.0
    K, _ = quad(lambda s: riccati_k(QUAD, profile(s)), 0.0, T,
                epsabs=1e-13, limit=200)
    for b0 in (-1.5, -0.2, 0.4, 1.5):
        sol = solve_ivp(lambda s, y: [-riccati_k(QUAD, profile(s)) * y[0] ** 2],
                        (0.0, T), [b0], method="Radau", rtol=1e-10, atol=1e-12)
        closed = riccati_evolve(b0, K)
        assert abs(closed - sol.y[0, -1]) / max(abs(closed), 1e-300) < 1e-6
