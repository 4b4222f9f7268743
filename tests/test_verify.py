import json

import numpy as np
import pytest

from psyslab import (PeriodicGrid, PressureLaw, crossing_time_oracle,
                     q_of_u, random_trig_state, scenario_constant,
                     scenario_energy_identity, scenario_ramp_residual,
                     scenario_random_hyperbolic_sweep,
                     scenario_riccati_crosscheck, scenario_simple_wave_blowup,
                     simple_wave_exact, simple_wave_state)
from psyslab.errors import DomainError
from psyslab.field import StateField
from psyslab.solver import SolverConfig, run

QUAD = PressureLaw.quadratic()


def test_simple_wave_state_has_exact_r2():
    g = PeriodicGrid(256)
    s = simple_wave_state(QUAD, g, -1.0, 0.3, 1)
    r2 = s.v + q_of_u(QUAD, s.u)
    assert np.max(np.abs(r2)) == 0.0  # built as v = -q(u)
    assert np.max(s.u) < 0.0
    with pytest.raises(ValueError):
        simple_wave_state(QUAD, g, -0.2, 0.5, 1)


def test_random_trig_state_strictly_hyperbolic():
    g = PeriodicGrid(128)
    for seed in range(5):
        s = random_trig_state(g, seed, 3, 0.6, -0.4)
        assert np.max(s.u) <= -0.05 + 1e-12
    with pytest.raises(ValueError):
        random_trig_state(g, 0, 3, 0.3, 0.5)
    # a negative amplitude was kept whole and reached max u = 3.69
    for amplitude in (-5.0, float("nan")):
        with pytest.raises(ValueError, match="amplitude"):
            random_trig_state(PeriodicGrid(64), 0, 3, amplitude, -1.0)


def test_presets_reject_modes_the_grid_cannot_resolve():
    # each ran as a constant state: sin(2 pi m x_j) aliases for m >= n/2
    g = PeriodicGrid(16)
    for mode in (0, 8, -8, 200):
        with pytest.raises(ValueError, match="mode"):
            simple_wave_state(QUAD, g, -1.0, 0.3, mode)
    for modes in (0, -2, 8):
        with pytest.raises(ValueError, match="modes"):
            random_trig_state(g, 0, modes, 0.3, -1.0)
    assert np.ptp(simple_wave_state(QUAD, g, -1.0, 0.3, -7).u) > 0.1
    assert np.ptp(random_trig_state(g, 0, 7, 0.3, -1.0).u) > 0.1


def test_presets_reject_zero_amplitude():
    # each ran as a constant state: u and v had peak-to-peak 0
    g = PeriodicGrid(64)
    for amplitude in (0.0, -0.0):
        with pytest.raises(ValueError, match="amplitude"):
            simple_wave_state(QUAD, g, -1.0, amplitude, 1)
        with pytest.raises(ValueError, match="amplitude"):
            random_trig_state(g, 0, 3, amplitude, -1.0)
    # so did a simple wave whose amplitude rounds away against u_center
    with pytest.raises(ValueError, match="amplitude"):
        simple_wave_state(QUAD, g, -700.0, 1e-300, 1)
    # a negative amplitude is a simple wave shifted by half a period
    assert np.ptp(simple_wave_state(QUAD, g, -1.0, -0.3, 1).u) > 0.1
    assert np.ptp(random_trig_state(g, 0, 3, 1e-14, -1.0).u) > 0.0


#: -1 / min d(lambda_1)/dx by (a, u_center, amplitude) at mode 1, frozen
#: from a 40-digit mpmath root of the slope's derivative at these floats
_CROSSING_TIMES = {
    (0.0, -1.0, 0.3): 1.048743779355751084422848534912919739701,
    (0.3, -1.0, 0.3): 0.3381533052289823064644505778924043813611,
    (0.0, -0.55, 0.5449): 0.3264849352344278473177946443169754665378,
}


def test_crossing_time_oracle_quadratic_wave():
    # 100,001 samples read the quadratic wave 8.45e-10 high
    for (a, u_center, amplitude), t_star in _CROSSING_TIMES.items():
        t = crossing_time_oracle(PressureLaw(a), u_center, amplitude, 1)
        assert t == pytest.approx(t_star, rel=1e-14, abs=0.0), (a, u_center)
    assert crossing_time_oracle(QUAD, -1.0, 0.0, 1) is None


@pytest.mark.parametrize("u_center, amplitude", [(-0.1, 0.3), (-0.3, 0.3),
                                                 (-0.3, -0.3), (0.0, 0.0)])
def test_crossing_time_oracle_rejects_non_hyperbolic_wave(u_center, amplitude):
    # unchecked, (-0.1, 0.3) gave nan with a RuntimeWarning and (-0.3, 0.3),
    # which touches u = 0 where d(lambda_1)/dx is unbounded, gave 0.41
    with pytest.raises(DomainError, match="strictly hyperbolic"):
        crossing_time_oracle(QUAD, u_center, amplitude, 1)


def test_crossing_time_oracle_rejects_an_overflowing_speed():
    # p' overflows to -inf on the wave: np.gradient of the infinite speed
    # is NaN, and the oracle returned that NaN as a crossing time
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="overflows"):
            crossing_time_oracle(PressureLaw(1e308), -1.0, 0.3, 1)
        # lambda_1 stays finite but p'' overflows: unguarded, the analytic
        # slope gave a crossing time of 0.0, and 100,001 samples 5.5e-155
        with pytest.raises(DomainError, match="overflows"):
            crossing_time_oracle(PressureLaw(1e307), -1.0, 0.3, 1)


def test_crossing_time_oracle_allocates_no_sample_grid():
    # sampling d(lambda_1)/dx at 100,001 points peaked at 7.8 MB
    import tracemalloc
    tracemalloc.start()
    try:
        crossing_time_oracle(PressureLaw(0.3), -1.0, 0.3, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("law", [QUAD, PressureLaw(0.3)],
                         ids=["quadratic", "quartic"])
def test_simple_wave_exact_starts_at_the_initial_data(law):
    g = PeriodicGrid(64)
    s0 = simple_wave_state(law, g, -1.0, 0.3, 1)
    u, v = simple_wave_exact(law, -1.0, 0.3, 1, 0.0, g.nodes)
    assert np.array_equal(u, s0.u) and np.array_equal(v, s0.v)


def test_simple_wave_exact_is_constant_along_straight_characteristics():
    t_star = crossing_time_oracle(QUAD, -1.0, 0.3, 1)
    xi = np.linspace(0.0, 1.0, 9)
    u_init = -1.0 + 0.3 * np.sin(2.0 * np.pi * xi)
    t = 0.9 * t_star
    u, v = simple_wave_exact(QUAD, -1.0, 0.3, 1, t, xi + np.sqrt(-QUAD.dp(u_init)) * t)
    assert np.max(np.abs(u - u_init)) < 1e-13
    assert np.array_equal(v, -q_of_u(QUAD, u))
    for t in (-0.1, t_star, 2.0 * t_star):
        with pytest.raises(ValueError, match=r"\[0, t\*\)"):
            simple_wave_exact(QUAD, -1.0, 0.3, 1, t, xi)


def _error_against_exact_wave(n, fraction, **config):
    """Max |u - u_exact| of the solver's simple wave at fraction * t*."""
    t_star = crossing_time_oracle(QUAD, -1.0, 0.3, 1)
    g = PeriodicGrid(n)
    traj = run(QUAD, simple_wave_state(QUAD, g, -1.0, 0.3, 1), 0.0,
               SolverConfig(t_max=fraction * t_star, **config))
    t, state = traj.snapshots[-1]
    u, _ = simple_wave_exact(QUAD, -1.0, 0.3, 1, t, g.nodes)
    return float(np.max(np.abs(state.u - u)))


def test_solver_error_against_the_exact_wave_falls_with_n():
    # at the default step rule the error at t*/2 is the time stepping's,
    # which falls 16x per doubling of n; 12x leaves room for roundoff
    errors = [_error_against_exact_wave(n, 0.5) for n in (256, 512, 1024)]
    assert errors[0] / errors[1] >= 12.0 and errors[1] / errors[2] >= 12.0


def test_solver_error_against_the_exact_wave_at_n_1024():
    # the integrating-factor step at cfl_safety 0.8 measured 1.2e-11,
    # 4.1e-10 and 4.6e-8; each bound is 1.25x that, and below classical
    # RK4's error at half the step (1.7e-11, 1.8e-9 and 5.1e-7)
    for fraction, bound in ((0.5, 1.5e-11), (0.75, 5.1e-10), (0.9, 5.8e-8)):
        assert _error_against_exact_wave(1024, fraction) < bound


def test_scenario_constant_passes():
    for law, u0, v0 in ((QUAD, -1.0, 0.0), (QUAD, -4.0, 2.5),
                        (PressureLaw(0.1), -1.0, 0.0)):
        rep = scenario_constant(law, u0, v0, t_max=2.0, n=64)
        assert rep.verdict == "pass"
        assert rep.metrics["deviation"] < 1e-10
        assert rep.thresholds["max_deviation"] == 1e-10


def test_scenario_constant_fails_on_elliptic():
    rep = scenario_constant(QUAD, 1.0, 0.0, t_max=1.0, n=64)
    assert rep.verdict == "fail"
    assert "admission" in rep.reason


def test_scenario_ramp_residual():
    # (u, v) = (t, -x) solves the system for every law, since u_x = 0
    for law in (QUAD, PressureLaw(0.1)):
        rep = scenario_ramp_residual(law)
        assert rep.verdict == "pass"
        assert rep.law == law.describe()
        assert rep.metrics["max_residual_1"] == 0.0
        assert rep.metrics["max_residual_2"] == 0.0
        assert rep.metrics["v_period_shift"] == -1.0
        assert rep.metrics["u_period_shift"] == 0.0


def test_scenario_riccati_constant_profile():
    rep = scenario_riccati_crosscheck(QUAD, "constant")
    assert rep.verdict == "pass"
    # k = -1/4 over a window of length 2
    assert rep.metrics["K_total"] == pytest.approx(-0.5, abs=1e-12)
    assert rep.metrics["beta_crit"] == pytest.approx(2.0, abs=1e-10)


def test_scenario_riccati_ramp_profile():
    rep = scenario_riccati_crosscheck(QUAD, "ramp")
    assert rep.verdict == "pass"
    # int_0^2 -1/(4 (1+t)^(5/4)) dt = 3^(-1/4) - 1
    assert rep.metrics["K_total"] == pytest.approx(3.0 ** -0.25 - 1.0, abs=1e-10)


@pytest.mark.parametrize("profile", ["constant", "ramp"])
def test_scenario_riccati_names_a_non_finite_K_total(profile):
    # k(u) overflows under the law: quad returned K_total = nan, and the
    # reason was solve_ivp's "array must not contain infs or NaNs".  Now
    # riccati_k raises, and the scenario with it, as its siblings do
    with pytest.raises(DomainError, match="not a finite nonzero float"):
        scenario_riccati_crosscheck(PressureLaw(1e308), profile)


def test_scenario_simple_wave_small_grid():
    rep = scenario_simple_wave_blowup(QUAD, -1.0, 0.3, 1, n=256,
                                      n_curve_seeds=8, drift_seeds=2,
                                      spotcheck_seeds=2)
    assert rep.verdict == "pass"
    assert rep.metrics["gap_detect_oracle"] < 0.05
    assert rep.metrics["gap_predicted_oracle"] < 0.05
    assert rep.metrics["spotcheck_violations"] == 0.0


class _SkewedPressure(PressureLaw):
    """The quadratic law with p scaled by 1.001 and p', p'' left alone: a
    planted defect the solver's flux sees and the tracer's speed does not."""

    def p(self, u):
        return 1.001 * super().p(u)


@pytest.mark.parametrize("defect", [None, "law_p", "tracer_speed", "cbar"])
def test_small_wave_drift_gate_fails_a_planted_defect(monkeypatch, defect):
    # a flux p off by 0.1% (drift 2.3e-3), a tracer speed off by 0.1%
    # (4.4e-3), or an integrating factor whose c_bar is off by 1% (4.8e-2):
    # the invariant is no longer carried along the traced curves, and the
    # drift gate fails a scenario that passes without the defect (5.8e-5)
    import psyslab.characteristics as characteristics
    import psyslab.solver as solver
    law = _SkewedPressure() if defect == "law_p" else QUAD
    if defect == "tracer_speed":
        speed = characteristics._speed
        monkeypatch.setattr(characteristics, "_speed",
                            lambda law, u, sign: 1.001 * speed(law, u, sign))
    if defect == "cbar":
        init = solver._Workspace.__init__

        def skewed_init(self, law, c):
            init(self, law, c)
            self.c_bar *= 1.01

        monkeypatch.setattr(solver._Workspace, "__init__", skewed_init)
    rep = scenario_simple_wave_blowup(law, -1.0, 0.3, 1, n=256,
                                      n_curve_seeds=16, drift_seeds=4,
                                      spotcheck_seeds=4)
    drifted = rep.metrics["invariant_drift_max"] > rep.thresholds["drift_max"]
    assert drifted == (defect is not None)
    assert rep.verdict == ("fail" if drifted else "pass")


def test_scenario_simple_wave_traces_each_curve_once(monkeypatch):
    # predictions, drift and the spot check's forward curves share one
    # forward batch, the spot check's backward curves make the other; the
    # default counts overlap, and each batch traces a shared start once
    import psyslab.characteristics as characteristics
    import psyslab.verify as verify
    from psyslab import Direction
    calls = []
    original = characteristics.trace_batch

    def counting(traj, starts, direction=Direction.forward):
        curves = original(traj, starts, direction)
        calls.append([(float(x0), fam, direction) for x0, fam in curves])
        return curves

    monkeypatch.setattr(verify, "trace_batch", counting)
    monkeypatch.setattr(characteristics, "trace_batch", counting)
    rep = scenario_simple_wave_blowup(QUAD, -1.0, 0.3, 1, n=128)
    # at n=128 the drift gate fails; the report still holds every metric
    assert rep.metrics["spotcheck_violations"] == 0.0
    assert len(calls) == 2
    traced = [key for call in calls for key in call]
    # forward: the 32 family-1 starts j/32 hold the family-1 drift and spot
    # starts (j + 0.5)/8, so only their 8 family-2 starts add; backward: 16
    assert len(traced) == len(set(traced)) == 32 + 8 + 16


def test_scenario_simple_wave_fails_a_run_without_detection(monkeypatch):
    # a tail ratio is a fraction, so it never passes 1, and no gradient
    # passes 1e300 of its start: the run to twice the oracle time ends
    # without a monitor firing, and the scenario fails
    import functools
    import psyslab.verify as verify
    monkeypatch.setattr(verify, "SolverConfig", functools.partial(
        SolverConfig, tail_ratio_max=1.0, grad_blowup_factor=1e300))
    rep = scenario_simple_wave_blowup(QUAD, -1.0, 0.3, 1, n=64,
                                      n_curve_seeds=4, drift_seeds=2,
                                      spotcheck_seeds=2)
    assert rep.verdict == "fail"
    assert rep.reason == "run ended completed without detection"
    assert rep.metrics["status_completed"] == 1.0


def test_scenario_simple_wave_zero_amplitude_inconclusive():
    rep = scenario_simple_wave_blowup(QUAD, -1.0, 0.0, 1, n=64)
    assert rep.verdict == "inconclusive"
    assert "constant scenario" in rep.reason


def test_scenario_simple_wave_quartic_law():
    rep = scenario_simple_wave_blowup(PressureLaw(0.05), -1.0, 0.2, 1,
                                      n=256, n_curve_seeds=4, drift_seeds=1,
                                      spotcheck_seeds=1)
    assert rep.verdict == "pass"
    assert rep.metrics["t_oracle"] != pytest.approx(
        crossing_time_oracle(QUAD, -1.0, 0.2, 1))  # its own oracle value


def test_scenario_simple_wave_quartic_n_1024_passes_its_gates():
    # the faster quartic speeds drift the most since the step doubled
    # (invariant_drift_max reads 3.35e-5 against its 1e-4 gate): a longer
    # snapshot spacing, or a coarser time interpolant, fails here
    rep = scenario_simple_wave_blowup(PressureLaw(0.3), -1.0, 0.3, 1,
                                      n=1024)
    assert rep.verdict == "pass", rep.reason
    assert (rep.metrics["invariant_drift_max"]
            < rep.thresholds["drift_max"])
    assert rep.metrics["spotcheck_violations"] == 0.0


def test_scenario_sweep_small():
    rep = scenario_random_hyperbolic_sweep(QUAD, 3, 20.0, n=128,
                                           spotcheck_seeds=2)
    assert rep.verdict == "pass"
    assert rep.metrics["n_completed"] == 0.0
    assert rep.metrics["n_interface_reached"] == 0.0
    assert rep.metrics["spotcheck_violations"] == 0.0


@pytest.mark.parametrize("defect", [None, "growth_factor"])
def test_scenario_sweep_fails_a_dual_growth_violation(monkeypatch, defect):
    # classify with a tenth of its growth factor finds both families
    # growing on one run: a violation of the A/B dichotomy, which fails
    # the sweep that passes without the defect
    import psyslab.characteristics as characteristics
    if defect == "growth_factor":
        classify = characteristics.classify
        monkeypatch.setattr(
            characteristics, "classify",
            lambda curve, growth_factor=characteristics.GROWTH_FACTOR:
                classify(curve, 0.1 * growth_factor))
    rep = scenario_random_hyperbolic_sweep(QUAD, 3, 20.0, n=128,
                                           spotcheck_seeds=4)
    violations = rep.metrics["spotcheck_violations"]
    assert (violations > 0) == (defect is not None)
    assert rep.verdict == ("fail" if violations else "pass")
    if violations:
        assert f"dual-growth violations {violations:.0f}" in rep.reason


def test_scenario_sweep_fails_on_interface():
    # near-interface data with strong v: every run reaches u ~ 0, some
    # before their second snapshot, and none counts as a blow-up
    rep = scenario_random_hyperbolic_sweep(QUAD, 3, 5.0, n=64, amplitude=0.6,
                                           u0=-0.06, spotcheck_seeds=2)
    assert rep.verdict == "fail"
    assert rep.metrics["n_interface_reached"] == 3.0
    assert rep.metrics["n_blow_up"] + rep.metrics["n_resolution_lost"] == 0.0
    assert rep.metrics["latest_detection"] == 0.0
    assert "interface_reached" in rep.reason


def test_scenario_sweep_noise_floor_inconclusive():
    rep = scenario_random_hyperbolic_sweep(QUAD, 1, 5.0, n=64,
                                           amplitude=1e-14)
    assert rep.verdict == "inconclusive"


def test_scenario_energy_identity_passes():
    rep = scenario_energy_identity(QUAD, 10, seed=42)
    assert rep.verdict == "pass"
    assert rep.metrics["worst_identity_gap"] < 1e-8
    assert rep.metrics["worst_ddot_formula"] <= 1e-10


#: p'(u) overflows under this law for |u| > 1
OVERFLOWING = PressureLaw(1e308)


def _non_finite_fails(rep, keys):
    """The report fails, naming each metric of ``keys`` as non-finite and
    writing it as None, and the report stays writable as strict JSON."""
    assert rep.verdict == "fail"
    for key in keys:
        assert rep.metrics[key] is None and key in rep.reason
    assert rep.reason.startswith("non-finite ")
    json.dumps(rep.to_dict(), allow_nan=False)


def test_scenario_ramp_residual_fails_on_a_nan_residual():
    # p'(3) * 0 = inf * 0 is NaN, and max(0.0, nan) is 0.0: both residuals
    # read 0.0 and the scenario passed
    with np.errstate(invalid="ignore"):
        rep = scenario_ramp_residual(OVERFLOWING)
    _non_finite_fails(rep, ["max_residual_2"])
    assert rep.metrics["max_residual_1"] == 0.0


def test_scenario_energy_identity_fails_on_non_finite_diagnostics():
    # it passed with worst_identity_gap 0.0 (every gap NaN, dropped by
    # max) and worst_ddot_formula -inf, which no JSON file can hold
    with np.errstate(over="ignore", invalid="ignore"):
        rep = scenario_energy_identity(OVERFLOWING, 3, 42)
    _non_finite_fails(rep, ["worst_identity_gap", "worst_ddot_formula"])


def test_scenario_energy_identity_domain_gate(monkeypatch):
    import psyslab.verify as verify
    g = PeriodicGrid(64)
    u = np.full(64, 1.0)
    u[5] = -0.5
    bad = StateField(g, u, np.zeros(64))
    monkeypatch.setattr(verify, "random_elliptic_state", lambda grid, rng: bad)
    rep = scenario_energy_identity(QUAD, 1, seed=0, n=64)
    assert rep.verdict == "fail"
    assert "domain gate" in rep.reason


def test_scenarios_are_deterministic():
    a = scenario_energy_identity(QUAD, 5, seed=7)
    b = scenario_energy_identity(QUAD, 5, seed=7)
    assert a.metrics == b.metrics
    c = scenario_random_hyperbolic_sweep(QUAD, 2, 10.0, n=128, spotcheck_seeds=2)
    d = scenario_random_hyperbolic_sweep(QUAD, 2, 10.0, n=128, spotcheck_seeds=2)
    assert c.metrics == d.metrics


def test_report_embeds_thresholds():
    rep = scenario_riccati_crosscheck(QUAD, "constant")
    d = rep.to_dict()
    assert d["thresholds"]["relative_gap"] == 1e-6
    assert d["scenario_id"] == "riccati_crosscheck_constant"
    assert d["verdict"] in ("pass", "fail", "inconclusive")
