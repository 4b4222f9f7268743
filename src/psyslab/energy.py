"""Concave energy diagnostics for elliptic-region (u >= 0) snapshots.

E(t) = integral over the circle of f(u(t, x)) dx for a gauge f with
f(0) = 0, f > 0 on u > 0, and f'' < 0 on u >= 0.  Using the system to
trade time derivatives for space derivatives,

    d2E/dt2 = integral f''(u) ((v_x)^2 + p'(u) (u_x)^2) dx,

which is non-positive wherever u >= 0 (f'' < 0, p'(u) >= 0 there): E is
concave in time.  Both sides of the underlying integration by parts are
computed here from a single snapshot, so the identity can be verified
without ever time-stepping elliptic data (whose initial-value problem
is ill-posed).

The mean over the uniform periodic grid is the spectrally accurate
quadrature for these integrals.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainError
from .field import StateField, spectral_derivative

#: roundoff tolerated at the u = 0 interface
DOMAIN_EPS = 1e-12


class ConcaveGauge(str, enum.Enum):
    """Gauge function f for the energy.

    ``log1p``:    f(u) = log(1 + u),  f'' = -1/(1+u)^2
    ``rational``: f(u) = u/(1 + u),   f'' = -2/(1+u)^3  (bounded gauge)
    """

    log1p = "log1p"
    rational = "rational"

    def f(self, u):
        if self is ConcaveGauge.log1p:
            return np.log1p(u)
        return u / (1.0 + u)

    def df(self, u):
        if self is ConcaveGauge.log1p:
            return 1.0 / (1.0 + u)
        return 1.0 / (1.0 + u) ** 2

    def ddf(self, u):
        if self is ConcaveGauge.log1p:
            return -1.0 / (1.0 + u) ** 2
        return -2.0 / (1.0 + u) ** 3


def _require_elliptic(state: StateField):
    if float(np.min(state.u)) < -DOMAIN_EPS:
        raise DomainError(
            f"energy diagnostics need u >= 0 everywhere "
            f"(min u = {float(np.min(state.u)):g})")


def energy(state: StateField, gauge: ConcaveGauge) -> float:
    """E = integral f(u) dx; positive unless u is identically zero."""
    _require_elliptic(state)
    return float(np.mean(gauge.f(np.maximum(state.u, 0.0))))


def energy_ddot_formula(law, state: StateField, gauge: ConcaveGauge) -> float:
    """d2E/dt2 via the space-derivative formula
    integral f''(u) ((v_x)^2 + p'(u)(u_x)^2) dx; <= 0 for u >= 0."""
    _require_elliptic(state)
    grid = state.grid
    ux = spectral_derivative(grid, state.u)
    vx = spectral_derivative(grid, state.v)
    u = np.maximum(state.u, 0.0)
    return float(np.mean(gauge.ddf(u) * (vx**2 + law.dp(u) * ux**2)))


def energy_ddot_direct(law, state: StateField, gauge: ConcaveGauge) -> float:
    """d2E/dt2 evaluated without integration by parts.

    Differentiates E twice in time and uses the system to express
    u_t = -v_x and u_tt = -(p(u))_xx from the snapshot alone:

        d2E/dt2 = integral f''(u) u_t^2 + f'(u) u_tt dx.

    Must agree with energy_ddot_formula to spectral accuracy; the gap
    between the two is a numerical check of the integration by parts.
    """
    _require_elliptic(state)
    grid = state.grid
    ut = -spectral_derivative(grid, state.v)
    utt = -spectral_derivative(grid, spectral_derivative(grid, law.p(state.u)))
    u = np.maximum(state.u, 0.0)
    return float(np.mean(gauge.ddf(u) * ut**2 + gauge.df(u) * utt))
