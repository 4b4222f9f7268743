"""Quadratic-like pressure laws p(u) and their derivatives.

A pressure law here is a C^2 function with p''(u) > 0 everywhere and
minimum value zero at u = 0, so that the system

    u_t = -v_x,   v_t = (p(u))_x

changes type across u = 0: hyperbolic where p'(u) < 0 (u < 0) and
elliptic where p'(u) > 0 (u > 0).

One family is built in, p(u) = u^2 / 2 + a * u^4 with a >= 0; its
member a = 0 is the quadratic law u^2 / 2, evaluated by its own closed
forms.

All derivatives are closed-form; finite differences appear only in the
test suite.  Evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PressureLaw:
    """The law p = u^2/2 + a u^4.  The constructor is the one place
    where quadratic-likeness is guaranteed: it admits only a finite
    a >= 0, so p(0) = p'(0) = 0 and p'' = 1 + 12 a u^2 > 0 hold for
    every law that exists."""

    a: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.a < np.inf:
            raise ValueError("quartic coefficient must be finite and non-negative")

    @classmethod
    def quadratic(cls) -> "PressureLaw":
        return cls()

    def p(self, u):
        if self.a == 0.0:
            return 0.5 * u * u
        uu = u * u  # products: numpy's pow on u < 0 is ~40x slower
        return 0.5 * uu + self.a * (uu * uu)

    def dp(self, u):
        if self.a == 0.0:
            return u * 1.0
        return u + 4.0 * self.a * (u * u * u)

    def ddp(self, u):
        if self.a == 0.0:
            if isinstance(u, np.ndarray):
                return np.ones_like(u, dtype=float)
            return 1.0
        return 1.0 + 12.0 * self.a * u * u

    def describe(self) -> str:
        if self.a == 0.0:
            return "quadratic"
        return f"quartic(a={self.a:g})"
