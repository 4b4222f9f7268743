import numpy as np
import pytest
from scipy.integrate import quad

from psyslab import (ConcaveGauge, DomainError, PeriodicGrid, PressureLaw,
                     StateField, energy, energy_ddot_direct,
                     energy_ddot_formula)
from psyslab.verify import random_elliptic_state

QUAD = PressureLaw.quadratic()
GRID = PeriodicGrid(256)
X = GRID.nodes


def field(u, v=None):
    if np.isscalar(u):
        u = np.full(GRID.n, float(u))
    if v is None:
        v = np.zeros(GRID.n)
    return StateField(GRID, u, v)


def test_gauge_validity():
    u = np.linspace(0.0, 100.0, 5001)
    for gauge in ConcaveGauge:
        assert gauge.f(0.0) == 0.0
        assert np.all(gauge.f(u[1:]) > 0.0)
        assert np.all(gauge.ddf(u) < 0.0)
    with pytest.raises(ValueError):
        ConcaveGauge("exp")


def test_energy_values():
    g = ConcaveGauge.log1p
    assert energy(field(0.0), g) == 0.0
    assert energy(field(1.0), g) == pytest.approx(np.log(2.0), abs=1e-14)


def test_energy_against_quadrature_oracle():
    g = ConcaveGauge.log1p
    s = field(1.0 + 0.5 * np.sin(2 * np.pi * X))
    oracle, _ = quad(lambda x: np.log(2.0 + 0.5 * np.sin(2 * np.pi * x)),
                     0.0, 1.0, epsabs=1e-13, limit=200)
    assert abs(energy(s, g) - oracle) < 1e-10


def test_energy_positive_for_nonzero_u():
    g = ConcaveGauge.rational
    s = field(1e-5 + 1e-6 * np.sin(2 * np.pi * X) ** 2)
    assert energy(s, g) > 0.0


def test_domain_gate():
    g = ConcaveGauge.log1p
    bad = field(np.where(X < 0.5, 1.0, -0.5))
    for fn in (lambda: energy(bad, g),
               lambda: energy_ddot_formula(QUAD, bad, g),
               lambda: energy_ddot_direct(QUAD, bad, g)):
        with pytest.raises(DomainError):
            fn()
    # roundoff at the interface is tolerated
    assert energy(field(np.full(GRID.n, -1e-13)), g) == pytest.approx(0.0, abs=1e-12)


def test_ddot_constant_is_zero():
    g = ConcaveGauge.log1p
    s = field(2.0, np.full(GRID.n, -3.0))
    assert energy_ddot_formula(QUAD, s, g) == 0.0
    assert energy_ddot_direct(QUAD, s, g) == 0.0


def test_ddot_analytic_case():
    # u = 1, v = sin(2 pi x): f''(1) = -1/4, integral of (2 pi cos)^2 is
    # 2 pi^2, so both routes give -pi^2/2; the u_tt term vanishes
    g = ConcaveGauge.log1p
    s = field(1.0, np.sin(2 * np.pi * X))
    target = -np.pi**2 / 2.0
    assert energy_ddot_formula(QUAD, s, g) == pytest.approx(target, abs=1e-8)
    assert energy_ddot_direct(QUAD, s, g) == pytest.approx(target, abs=1e-8)


def test_ddot_formula_against_quadrature_oracle():
    g = ConcaveGauge.log1p
    s = field(1.0 + 0.5 * np.sin(2 * np.pi * X))
    # v = 0: only the p'(u) u_x^2 term survives
    oracle, _ = quad(
        lambda x: (-1.0 / (2.0 + 0.5 * np.sin(2 * np.pi * x)) ** 2)
        * (1.0 + 0.5 * np.sin(2 * np.pi * x))
        * (np.pi * np.cos(2 * np.pi * x)) ** 2,
        0.0, 1.0, epsabs=1e-13, limit=200)
    val = energy_ddot_formula(QUAD, s, g)
    assert val <= 0.0
    assert abs(val - oracle) < 1e-8


def test_identity_and_concavity_on_random_fields():
    rng = np.random.default_rng(8)
    for law in (QUAD, PressureLaw.quartic(0.1)):
        for _ in range(25):
            s = random_elliptic_state(GRID, rng)
            for gauge in ConcaveGauge:
                a = energy_ddot_formula(law, s, gauge)
                b = energy_ddot_direct(law, s, gauge)
                assert abs(a - b) < 1e-8
                assert a <= 1e-10
                assert energy(s, gauge) > 0.0
