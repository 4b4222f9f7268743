import numpy as np
import pytest

from psyslab import PressureLaw, eval_ddp, eval_dp, eval_p, validate_law

QUAD = PressureLaw.quadratic()
QUART = PressureLaw.quartic(0.1)


def test_eval_p_values():
    assert eval_p(QUAD, 0.0) == 0.0
    assert eval_p(QUAD, -2.0) == 2.0          # u^2/2 by hand
    assert eval_p(QUART, 1.0) == pytest.approx(0.6, abs=1e-15)  # 1/2 + 0.1


def test_eval_dp_values():
    assert eval_dp(QUAD, 0.0) == 0.0
    assert eval_dp(QUAD, -4.0) == -4.0
    assert eval_dp(QUART, -1.0) == pytest.approx(-1.4, abs=1e-15)  # u + 4au^3


def test_eval_ddp_values():
    for u in (-3.0, 0.0, 7.5):
        assert eval_ddp(QUAD, u) == 1.0
    assert eval_ddp(PressureLaw.quartic(0.0), 2.0) == 1.0
    assert eval_ddp(QUART, 1.0) == pytest.approx(2.2, abs=1e-15)  # 1 + 12au^2


def test_array_evaluation():
    u = np.linspace(-3, 3, 17)
    assert np.allclose(eval_p(QUAD, u), 0.5 * u * u)
    assert np.allclose(eval_dp(QUART, u), u + 0.4 * u**3)


def test_anchor_and_convexity_invariants():
    for law in (QUAD, QUART, PressureLaw.quartic(2.5)):
        assert eval_p(law, 0.0) == 0.0
        assert eval_dp(law, 0.0) == 0.0
        u = np.linspace(-100, 100, 2001)
        assert np.all(eval_ddp(law, u) > 0.0)


def test_derivatives_match_finite_differences():
    # closed forms in the module, centered differences as the oracle
    rng = np.random.default_rng(3)
    h = 1e-5
    for law in (QUAD, QUART):
        for u in rng.uniform(-5, 5, 100):
            fd1 = (eval_p(law, u + h) - eval_p(law, u - h)) / (2 * h)
            fd2 = (eval_dp(law, u + h) - eval_dp(law, u - h)) / (2 * h)
            assert abs(eval_dp(law, u) - fd1) < 1e-8
            assert abs(eval_ddp(law, u) - fd2) < 1e-8


def test_constructor_rejects_bad_laws():
    with pytest.raises(ValueError):
        PressureLaw("cubic")
    for a in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PressureLaw.quartic(a)


def test_validate_law_clean_families():
    for law in (QUAD, QUART):
        report = validate_law(law, -10.0, 10.0, 1001)
        assert report.ok
        assert report.violations == []


class ConcaveStub:
    """Deliberately broken law: p'' < 0 away from the origin."""

    def p(self, u):
        return u * u / 2 - u**4

    def dp(self, u):
        return u - 4 * u**3

    def ddp(self, u):
        return 1.0 - 12 * u * u

    def describe(self):
        return "concave-stub"


def test_validate_law_detects_violations():
    report = validate_law(ConcaveStub(), -2.0, 2.0, 101)
    assert not report.ok
    assert any(v.quantity == "ddp" for v in report.violations)


class ShiftedStub:
    def p(self, u):
        return u * u / 2 + 0.25

    def dp(self, u):
        return float(u)

    def ddp(self, u):
        return 1.0


def test_validate_law_detects_shifted_minimum():
    report = validate_law(ShiftedStub(), -1.0, 1.0, 11)
    assert any(v.quantity == "p(0)" for v in report.violations)


def test_validate_law_preconditions():
    with pytest.raises(ValueError):
        validate_law(QUAD, 1.0, -1.0, 100)
    with pytest.raises(ValueError):
        validate_law(QUAD, -1.0, 1.0, 1)
