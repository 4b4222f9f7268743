"""Quadratic-like pressure laws p(u) and their derivatives.

A pressure law here is a C^2 function with p''(u) > 0 everywhere and
minimum value zero at u = 0, so that the system

    u_t = -v_x,   v_t = (p(u))_x

changes type across u = 0: hyperbolic where p'(u) < 0 (u < 0) and
elliptic where p'(u) > 0 (u > 0).

Two families are built in:

* ``quadratic``    p(u) = u^2 / 2  (its coefficient a must be 0)
* ``quartic(a)``   p(u) = u^2 / 2 + a * u^4,  a >= 0

All derivatives are closed-form; finite differences appear only in the
test suite.  Evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

QUADRATIC = "quadratic"
QUARTIC = "quartic"


@dataclass(frozen=True)
class PressureLaw:
    kind: str
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in (QUADRATIC, QUARTIC):
            raise ValueError(f"unknown pressure law kind: {self.kind!r}")
        if not 0.0 <= self.a < np.inf:
            raise ValueError("quartic coefficient must be finite and non-negative")
        if self.kind == QUADRATIC and self.a != 0.0:
            raise ValueError(f"the quadratic law takes no quartic coefficient, "
                             f"got a = {self.a:g}")

    @classmethod
    def quadratic(cls) -> "PressureLaw":
        return cls(QUADRATIC)

    @classmethod
    def quartic(cls, a: float) -> "PressureLaw":
        return cls(QUARTIC, float(a))

    def p(self, u):
        if self.kind == QUADRATIC:
            return 0.5 * u * u
        return 0.5 * u * u + self.a * u**4

    def dp(self, u):
        if self.kind == QUADRATIC:
            return u * 1.0
        return u + 4.0 * self.a * u**3

    def ddp(self, u):
        if self.kind == QUADRATIC:
            if isinstance(u, np.ndarray):
                return np.ones_like(u, dtype=float)
            return 1.0
        return 1.0 + 12.0 * self.a * u * u

    def describe(self) -> str:
        if self.kind == QUADRATIC:
            return "quadratic"
        return f"quartic(a={self.a:g})"


@dataclass(frozen=True)
class Violation:
    u: float
    quantity: str
    value: float


@dataclass
class ValidationReport:
    law: str
    u_min: float
    u_max: float
    n_samples: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def validate_law(law, u_min: float = -10.0, u_max: float = 10.0,
                 n_samples: int = 1001) -> ValidationReport:
    """Scan [u_min, u_max] for quadratic-likeness violations.

    Reports every sample where p'' <= 0, and the anchor conditions
    p(0) = 0, p'(0) = 0.  Violations are report entries, never
    exceptions, so the check also works on deliberately broken laws.
    """
    if not u_min < u_max:
        raise ValueError("u_min must be < u_max")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    label = law.describe() if hasattr(law, "describe") else repr(law)
    report = ValidationReport(label, float(u_min), float(u_max), int(n_samples))
    p0 = float(law.p(0.0))
    dp0 = float(law.dp(0.0))
    if p0 != 0.0:
        report.violations.append(Violation(0.0, "p(0)", p0))
    if dp0 != 0.0:
        report.violations.append(Violation(0.0, "dp(0)", dp0))
    for u in np.linspace(u_min, u_max, n_samples):
        dd = float(law.ddp(float(u)))
        if dd <= 0.0:
            report.violations.append(Violation(float(u), "ddp", dd))
    return report
