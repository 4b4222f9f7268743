"""Hyperbolic-region change of variables and Riccati machinery.

For u < 0 the system has eigenvalues lambda_{1,2} = +-sqrt(-p'(u))
(family ``first`` takes the upper sign) and Riemann invariants

    r_1 = v - q(u),   r_2 = v + q(u),
    q(u) = integral_u^0 sqrt(-p'(s)) ds,

where q is positive and strictly decreasing for u < 0 with q(0) = 0 and
q'(u) = -sqrt(-p'(u)).  The state is recovered by

    v = (r_1 + r_2) / 2,   u = q^{-1}((r_2 - r_1) / 2).

Both eigenvalues are genuinely nonlinear: d(lambda_i)/d(r_i) =
p''(u) / (4 p'(u)), which diverges as u -> 0-.  Along a characteristic
of its own family the scaled gradient

    beta = r_x * (-p'(u))**(1/4)

obeys the Riccati equation beta' = -k beta^2 with

    k(u) = -p''(u) / (4 (-p'(u))**(5/4)) < 0,

whose exact solution is beta(t) = beta0 / (1 + beta0 * K(t)) with
K(t) = integral of k along the curve.  A vanishing denominator is the
gradient catastrophe.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

from .errors import BlowUpError, DomainError


class Family(enum.Enum):
    """Characteristic family; ``first`` is the + sqrt(-p') branch."""

    first = 1
    second = 2

    @property
    def sign(self) -> float:
        return 1.0 if self is Family.first else -1.0


# each domain check returns the float array np.atleast_1d(u) it checked
def _require_nonpositive(u) -> np.ndarray:
    if np.any(np.asarray(u) > 0.0):
        raise DomainError("u must be <= 0 (hyperbolic closure)")
    return np.atleast_1d(np.asarray(u, dtype=float))


def _require_negative(u) -> np.ndarray:
    if np.any(np.asarray(u) >= 0.0):
        raise DomainError("u must be < 0 (strict hyperbolic interior)")
    return np.atleast_1d(np.asarray(u, dtype=float))


def _as_input(values: np.ndarray, u):
    """``values``, computed on ``np.atleast_1d(u)``, in the type of u: an
    array of u's shape, or a float with the bits a batch would give."""
    return values.reshape(np.shape(u)) if isinstance(u, np.ndarray) else float(values[0])


@lru_cache(maxsize=1)
def _gauss_legendre():
    """64-point Gauss-Legendre nodes and weights mapped to [0, 1]."""
    t, wt = np.polynomial.legendre.leggauss(64)
    return 0.5 * (t + 1.0), 0.5 * wt


def q_of_u(law, u):
    """q(u) = integral_u^0 sqrt(-p'(s)) ds for u <= 0.

    The quadratic law (a = 0) uses the closed form (2/3)(-u)^(3/2).
    Every other law substitutes s = -w^2, which removes the square-root
    singularity of the integrand at s = 0,

        q(u) = integral_0^sqrt(-u) 2 w sqrt(-p'(-w^2)) dw,

    and apply a fixed 64-point Gauss-Legendre rule in w.  Over 400
    points u in [-50, -1e-6] and PressureLaw(a), a in {0.01, 0.3, 1, 10},
    it agrees with adaptive quadrature (epsrel 1e-13) to 4.4e-15
    relative; 32 points give only 1.6e-12 at a = 10.  An array comes
    back with the input's shape, a scalar as a float (``_as_input``).
    """
    a = _require_nonpositive(u)
    if law.a == 0.0:
        q = (2.0 / 3.0) * np.abs(a) ** 1.5
    else:
        t, wt = _gauss_legendre()
        s = np.sqrt(-a)
        w = np.multiply.outer(s, t)
        q = s * np.einsum("...k,k->...", 2.0 * w * np.sqrt(-law.dp(-w * w)), wt)
    return _as_input(q, u)


def u_of_q(law, y: float) -> float:
    """Inverse of q: the unique u <= 0 with q(u) = y, for finite y >= 0.

    Every law has -p'(s) >= -s for s <= 0, so the quadratic law's
    inverse u = -(3y/2)^(2/3) starts at or left of the root.  q is
    convex and decreasing, so Newton's method with q' = -sqrt(-p')
    climbs to the root without crossing it; the iterates are increasing
    floats capped at 0, so the loop ends.  The first step that fails to
    rise is returned: as a signed correction of the last iterate, it
    recovers more round trips exactly than the iterate itself.

    Raises DomainError when p'(u) or q(u) overflows on the way: on a
    quartic law, from y of about 8e153 up, the start's |u|^3 exceeds
    the float range.
    """
    y = float(y)
    if not 0.0 <= y < math.inf:
        raise DomainError(f"y must be finite and >= 0, got {y!r}")
    if y == 0.0:
        return 0.0
    u = -(1.5 * y) ** (2.0 / 3.0)
    # Python's pow raises OverflowError on a float; numpy raises
    # FloatingPointError here instead of warning
    with np.errstate(over="raise"):
        try:
            while True:
                step = min(u + (q_of_u(law, u) - y) / math.sqrt(-law.dp(u)), 0.0)
                if not step > u:
                    return step
                u = step
        except (OverflowError, FloatingPointError) as exc:
            raise DomainError(f"q cannot be inverted at y = {y!r}: "
                              f"{exc} at u = {u!r}") from None


def riemann_from_state(law, u: float, v: float) -> tuple:
    """The plain tuple (r1, r2) = (v - q(u), v + q(u)) for u <= 0."""
    qv = q_of_u(law, u)
    return v - qv, v + qv


def state_from_riemann(law, pair: tuple):
    """Recover (u, v) from the invariants: v = (r1+r2)/2, u = q^{-1}((r2-r1)/2)."""
    r1, r2 = pair
    if r2 < r1:
        raise DomainError("requires r2 >= r1 (r2 - r1 = 2 q(u) >= 0)")
    v = 0.5 * (r1 + r2)
    u = u_of_q(law, 0.5 * (r2 - r1))
    return u, v


def riccati_k(law, u):
    """Riccati coefficient k(u) = -p''(u) / (4 (-p'(u))^(5/4)) < 0.

    A float gives a float and an array an array, with the same bits
    (``_as_input``).  Both raise DomainError where k is not a finite
    nonzero float: where p'(u), p''(u) or the denominator overflows, or
    the denominator underflows to 0 (with p'' >= 1, k is nonzero
    otherwise), with numpy's warnings silenced.
    """
    a = _require_negative(u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k = -law.ddp(a) / (4.0 * (-law.dp(a)) ** 1.25)
    if not np.all(np.isfinite(k) & (k != 0.0)):
        raise DomainError(f"k(u) = -p''(u) / (4 (-p'(u))^(5/4)) is not a "
                          f"finite nonzero float under {law.describe()}")
    return _as_input(k, u)


def beta_from_gradient(law, u, r_x):
    """Scaled invariant gradient beta = r_x * (-p'(u))^(1/4), with the
    same bits for a float u as for an array (``_as_input``)."""
    a = _require_negative(u)
    return r_x * _as_input((-law.dp(a)) ** 0.25, u)


def riccati_evolve(beta0: float, K: float) -> float:
    """Closed-form Riccati solution beta0 / (1 + beta0 * K).

    K is the accumulated integral of k along the characteristic (<= 0
    going forward, since k < 0).  Raises BlowUpError when the
    denominator is <= 0: the gradient diverged at or before K.
    """
    den = 1.0 + beta0 * K
    if den <= 0.0:
        raise BlowUpError(
            f"1 + beta0*K = {den:g} <= 0: gradient catastrophe reached")
    return beta0 / den
