import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psyslab import (NonFiniteState, PeriodicGrid, PressureLaw, RunStatus,
                     SolverConfig, StateField, cfl_dt, constant_state,
                     random_trig_state, rhs, run, spectral_derivative,
                     step_rk4)
from psyslab.solver import _monitor_from_metrics, _state_metrics

QUAD = PressureLaw.quadratic()


def test_rhs_constants_are_equilibria():
    g = PeriodicGrid(64)
    s = constant_state(g, -2.0, 1.5)
    du, dv = rhs(QUAD, g, s.u, s.v)
    assert np.all(du == 0.0)
    assert np.all(dv == 0.0)


def test_rhs_analytic_case():
    g = PeriodicGrid(64)
    x = g.nodes
    du, dv = rhs(QUAD, g, np.full(64, -1.0), np.sin(2 * np.pi * x))
    assert np.max(np.abs(du + 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-10
    assert np.max(np.abs(dv)) < 1e-12  # p(u) is constant


def test_cfl_dt_values():
    g = PeriodicGrid(256)
    assert cfl_dt(QUAD, constant_state(g, -1.0, 0.0), 0.4) == pytest.approx(
        0.4 / 256, rel=1e-15)
    assert cfl_dt(QUAD, constant_state(g, -4.0, 0.0), 0.4) == pytest.approx(
        0.4 / 512, rel=1e-15)
    g16 = PeriodicGrid(16)
    assert cfl_dt(QUAD, constant_state(g16, -1.0, 0.0), 1.0) == pytest.approx(
        0.0625, rel=1e-15)


def test_cfl_dt_degenerate_fallback():
    g = PeriodicGrid(64)
    s = constant_state(g, -1e-30, 0.0)
    assert cfl_dt(QUAD, s, 0.4) == pytest.approx(0.4 / 64, rel=1e-15)


def test_step_preserves_constants_exactly():
    g = PeriodicGrid(128)
    s = constant_state(g, -0.3, 2.5)
    out = step_rk4(QUAD, s, 0.01)
    assert np.array_equal(out.u, s.u)
    assert np.array_equal(out.v, s.v)


def test_step_reversibility():
    g = PeriodicGrid(64)
    x = g.nodes
    s0 = StateField(g, -1.0 + 0.1 * np.sin(2 * np.pi * x),
                    0.05 * np.cos(2 * np.pi * x))
    s1 = step_rk4(QUAD, s0, 1e-3)
    s2 = step_rk4(QUAD, s1, -1e-3)
    assert np.max(np.abs(s2.u - s0.u)) < 1e-9
    assert np.max(np.abs(s2.v - s0.v)) < 1e-9


def test_step_matches_linearized_wave():
    # about u = -1 the system linearizes to w_tt = w_xx (speed 1); per
    # mode k: w_hat' = -ik v_hat, v_hat' = -ik w_hat, solved exactly
    g = PeriodicGrid(64)
    x = g.nodes
    amp, dt = 0.01, 1e-3
    s = StateField(g, -1.0 + amp * np.sin(2 * np.pi * x), np.zeros(64))
    stepped = step_rk4(QUAD, s, dt)
    w0 = np.fft.rfft(s.u + 1.0)
    v0 = np.fft.rfft(s.v)
    k = 2 * np.pi * np.arange(33)
    u_lin = -1.0 + np.fft.irfft(w0 * np.cos(k * dt) - 1j * v0 * np.sin(k * dt), 64)
    v_lin = np.fft.irfft(v0 * np.cos(k * dt) - 1j * w0 * np.sin(k * dt), 64)
    assert np.max(np.abs(stepped.u - u_lin)) < 1e-5  # O(amp^2) + O(dt^5)
    assert np.max(np.abs(stepped.v - v_lin)) < 1e-5


def test_step_raises_on_nonfinite():
    g = PeriodicGrid(64)
    s = StateField(g, -1.0 + 0.5 * np.sin(2 * np.pi * g.nodes), np.zeros(64))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            step_rk4(QUAD, s, 1e300)


def test_run_constant_completes_unchanged():
    g = PeriodicGrid(256)
    s0 = constant_state(g, -1.0, 0.0)
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=2.0))
    assert traj.status is RunStatus.completed
    t, final = traj.snapshots[-1]
    assert t == pytest.approx(2.0, abs=1e-10)
    assert np.max(np.abs(final.u - s0.u)) < 1e-12
    assert np.max(np.abs(final.v - s0.v)) < 1e-12
    times = [t for t, _ in traj.snapshots]
    assert np.all(np.diff(times) > 0.0)


def test_run_refuses_elliptic_and_interface_data():
    g = PeriodicGrid(64)
    for u0 in (1.0, 0.0, -1e-4):
        traj = run(QUAD, constant_state(g, u0, 0.0), 0.0, SolverConfig(t_max=1.0))
        assert traj.status is RunStatus.admission_refused
        assert traj.steps == 0


def test_run_requires_future_t_max():
    g = PeriodicGrid(64)
    with pytest.raises(ValueError):
        run(QUAD, constant_state(g, -1.0, 0.0), 5.0, SolverConfig(t_max=5.0))


def test_run_conserves_means_while_smooth():
    # both right-hand sides are exact x-derivatives
    g = PeriodicGrid(256)
    s0 = random_trig_state(g, seed=1, modes=3, amplitude=0.05, u_offset=-1.0)
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=3.0))
    mu0, mv0 = np.mean(s0.u), np.mean(s0.v)
    smooth_span = 0.0
    for t, s in traj.snapshots:
        if traj.t_detect is not None and t >= traj.t_detect:
            break
        assert abs(np.mean(s.u) - mu0) < 1e-10 * max(1.0, t)
        assert abs(np.mean(s.v) - mv0) < 1e-10 * max(1.0, t)
        smooth_span = t
    assert smooth_span > 0.5


def test_run_detects_breakdown_of_simple_wave():
    from psyslab import crossing_time_oracle, simple_wave_state
    t_star = crossing_time_oracle(QUAD, -1.0, 0.3, 1)
    g = PeriodicGrid(256)
    s0 = simple_wave_state(QUAD, g, -1.0, 0.3, 1)
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=2.0 * t_star))
    assert traj.status in (RunStatus.blow_up_detected, RunStatus.resolution_lost)
    assert abs(traj.t_detect - t_star) / t_star < 0.05


def test_run_stops_at_interface():
    # max u of this data crosses -hyperbolicity_eps on its way to 0 near
    # step 13 (t ~ 0.049); the run must stop there, not step on through
    # the ill-posed elliptic regime
    g = PeriodicGrid(256)
    x = g.nodes
    s0 = StateField(g, -0.1 + 0.05 * np.sin(2 * np.pi * x),
                    0.3 * np.sin(2 * np.pi * x))
    cfg = SolverConfig(t_max=2.0)
    traj = run(QUAD, s0, 0.0, cfg)
    assert traj.status is RunStatus.interface_reached
    assert 1 <= traj.steps <= 13
    assert traj.t_detect == traj.series[-1].t < 0.05
    assert traj.series[-1].max_u > -cfg.hyperbolicity_eps
    assert all(r.max_u <= -cfg.hyperbolicity_eps for r in traj.series[:-1])
    # the state past the threshold is not stored
    assert traj.t_end < traj.t_detect
    assert all(np.max(s.u) <= -cfg.hyperbolicity_eps for _, s in traj.snapshots)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), modes=st.integers(1, 4),
       amplitude=st.floats(0.01, 0.6),
       u_offset=st.floats(-0.3, -0.05, exclude_max=True),
       t_max=st.floats(0.01, 0.3))
def test_run_never_stores_a_state_past_the_interface(seed, modes, amplitude,
                                                     u_offset, t_max):
    g = PeriodicGrid(64)
    s0 = random_trig_state(g, seed, modes, amplitude, u_offset)
    cfg = SolverConfig(t_max=t_max)
    traj = run(QUAD, s0, 0.0, cfg)
    assert isinstance(traj.status, RunStatus)
    assert traj.status is not RunStatus.admission_refused  # max u <= -0.05
    assert all(np.max(s.u) <= -cfg.hyperbolicity_eps for _, s in traj.snapshots)
    # only the step that ends the run may read past the threshold
    assert all(r.max_u <= -cfg.hyperbolicity_eps for r in traj.series[:-1])
    if traj.status is RunStatus.completed:
        assert traj.t_detect is None
        assert traj.t_end == pytest.approx(t_max, abs=1e-10)
    else:
        assert traj.t_detect == traj.series[-1].t


def test_rk4_order():
    g = PeriodicGrid(64)
    x = g.nodes
    s0 = StateField(g, -1.0 + 0.1 * np.sin(2 * np.pi * x),
                    0.05 * np.cos(2 * np.pi * x))
    T = 0.08

    def advance(state, dt, steps):
        for _ in range(steps):
            state = step_rk4(QUAD, state, dt)
        return state

    ref = advance(s0, T / 1024, 1024)
    errs = []
    for k in (16, 32):
        s = advance(s0, T / k, k)
        errs.append(max(np.max(np.abs(s.u - ref.u)), np.max(np.abs(s.v - ref.v))))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0


def test_blowup_monitor_thresholds():
    g = PeriodicGrid(128)
    x = g.nodes
    cfg = SolverConfig(t_max=1.0)

    def fired(u, initial_scale):
        metrics = _state_metrics(StateField(g, u, np.zeros(128)))
        return _monitor_from_metrics(metrics, initial_scale, cfg)

    assert fired(-1.0 + 0.1 * np.sin(2 * np.pi * x), 1.0) is None

    # max|u_x| = 1e5 with initial scale 1 and factor 1e4: fires
    steep = (1e5 / (2 * np.pi)) * np.sin(2 * np.pi * x)
    assert fired(-2e4 + steep, 1.0) is RunStatus.blow_up_detected

    rng = np.random.default_rng(2)
    assert fired(-10.0 + rng.standard_normal(128), 1e9) is RunStatus.resolution_lost

    # the admission test, after every step; it outranks the other two
    assert fired(np.full(128, -0.5e-3), 1.0) is RunStatus.interface_reached
    assert fired(np.full(128, -2e-3), 1.0) is None
    assert fired(steep, 1.0) is RunStatus.interface_reached


def test_state_metrics_match_spectral_derivative():
    # one rfft per field feeds both the derivative and the tail
    g = PeriodicGrid(128)
    rng = np.random.default_rng(4)
    u = -1.0 + 0.01 * rng.standard_normal(128)
    v = 0.01 * rng.standard_normal(128)
    max_u, min_u, max_ux, max_vx, tail = _state_metrics(StateField(g, u, v))
    assert (max_u, min_u) == (np.max(u), np.min(u))
    assert max_ux == np.max(np.abs(spectral_derivative(g, u)))
    assert max_vx == np.max(np.abs(spectral_derivative(g, v)))
    assert 0.1 < tail < 0.6  # white noise: about a third


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_max=1.0, cfl_safety=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_max=1.0, tail_ratio_max=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(t_max=1.0, snapshot_stride=0)
    for name in ("t_max", "cfl_safety", "grad_blowup_factor",
                 "tail_ratio_max", "hyperbolicity_eps"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{"t_max": 1.0, name: bad})
