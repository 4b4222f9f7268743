import numpy as np
import pytest

from psyslab import PeriodicGrid, PressureLaw, q_of_u
from psyslab.verify import simple_wave_state

QUAD = PressureLaw.quadratic()
QUART = PressureLaw(0.1)


def test_eval_p_values():
    assert QUAD.p(0.0) == 0.0
    assert QUAD.p(-2.0) == 2.0          # u^2/2 by hand
    assert QUART.p(1.0) == pytest.approx(0.6, abs=1e-15)  # 1/2 + 0.1


def test_eval_dp_values():
    assert QUAD.dp(0.0) == 0.0
    assert QUAD.dp(-4.0) == -4.0
    assert QUART.dp(-1.0) == pytest.approx(-1.4, abs=1e-15)  # u + 4au^3


def test_eval_ddp_values():
    for u in (-3.0, 0.0, 7.5):
        assert QUAD.ddp(u) == 1.0
    assert PressureLaw(0.0).ddp(2.0) == 1.0
    assert QUART.ddp(1.0) == pytest.approx(2.2, abs=1e-15)  # 1 + 12au^2


def test_array_evaluation():
    u = np.linspace(-3, 3, 17)
    assert np.allclose(QUAD.p(u), 0.5 * u * u)
    assert np.allclose(QUART.dp(u), u + 0.4 * u**3)


def test_anchor_and_convexity_invariants():
    for law in (QUAD, QUART, PressureLaw(2.5)):
        assert law.p(0.0) == 0.0
        assert law.dp(0.0) == 0.0
        u = np.linspace(-100, 100, 2001)
        assert np.all(law.ddp(u) > 0.0)


def test_derivatives_match_finite_differences():
    # closed forms in the module, centered differences as the oracle
    rng = np.random.default_rng(3)
    h = 1e-5
    for law in (QUAD, QUART):
        for u in rng.uniform(-5, 5, 100):
            fd1 = (law.p(u + h) - law.p(u - h)) / (2 * h)
            fd2 = (law.dp(u + h) - law.dp(u - h)) / (2 * h)
            assert abs(law.dp(u) - fd1) < 1e-8
            assert abs(law.ddp(u) - fd2) < 1e-8


def test_quartic_zero_is_the_quadratic_law():
    # one law, one path: a = 0 takes the quadratic closed forms, q included
    law = PressureLaw(0.0)
    assert law == QUAD and law.describe() == "quadratic"
    a, b = (simple_wave_state(lw, PeriodicGrid(64), -1.0, 0.3, 1)
            for lw in (law, QUAD))
    assert q_of_u(law, a.u).tobytes() == q_of_u(QUAD, a.u).tobytes()
    assert a.v.tobytes() == b.v.tobytes()


def test_constructor_rejects_bad_laws():
    for a in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PressureLaw(a)

