import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psyslab import (NonFiniteState, PeriodicGrid, PressureLaw, RunStatus,
                     SolverConfig, StateField, cfl_dt, constant_state,
                     random_trig_state, run, simple_wave_state,
                     spectral_derivative, step_rk4)
from psyslab import solver
from psyslab.field import _derivative_multipliers, _parseval_weights
from psyslab.solver import (NOISE_FLOOR, _advance, _monitor_from_metrics,
                            _spectral, _state_metrics, _Workspace, start)

QUAD = PressureLaw.quadratic()


def test_cfl_dt_values(monkeypatch):
    g = PeriodicGrid(256)
    monkeypatch.setattr(solver, "CFL_SAFETY", 0.4)
    assert cfl_dt(QUAD, g, -1.0, -1.0) == pytest.approx(0.4 / 256, rel=1e-15)
    assert cfl_dt(QUAD, g, -1.0, -4.0) == pytest.approx(0.4 / 512, rel=1e-15)
    # the larger |p'| of the two extremes sets the step, at either one
    assert cfl_dt(QUAD, g, 9.0, -1.0) == pytest.approx(0.4 / 768, rel=1e-15)
    monkeypatch.setattr(solver, "CFL_SAFETY", 1.0)
    assert cfl_dt(QUAD, PeriodicGrid(16), -1.0, -1.0) == pytest.approx(
        0.0625, rel=1e-15)


def test_cfl_dt_degenerate_fallback(monkeypatch):
    g = PeriodicGrid(64)
    monkeypatch.setattr(solver, "CFL_SAFETY", 0.4)
    assert cfl_dt(QUAD, g, -1e-30, -1e-30) == pytest.approx(0.4 / 64, rel=1e-15)


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


@pytest.mark.parametrize("u0", [1.0, -1e-4], ids=["elliptic", "interface"])
def test_refused_run_keeps_its_start_and_builds_no_workspace(monkeypatch, u0):
    # a refused run leaves through the same exit as an admitted one; an
    # elliptic mean state has no integrating factor, so no workspace
    monkeypatch.setattr(solver, "_Workspace", None)
    state0 = constant_state(PeriodicGrid(64), u0, 0.0)
    traj = run(QUAD, state0, 0.25, SolverConfig(t_max=1.0))
    assert traj.status is RunStatus.admission_refused
    assert traj.t_detect is None
    (t, state), = traj.snapshots
    assert t == 0.25 and state is state0
    assert traj.series.shape == (1, 6) and traj.series[0, 0] == 0.25


def test_run_refuses_an_initial_state_that_overflows_the_monitor():
    # each used to escape as OverflowError or NonFiniteState
    g = PeriodicGrid(64)
    wavy_v = 1e300 * np.sin(2 * np.pi * g.nodes)
    for state in (constant_state(g, -1.0, 1e308),
                  StateField(g, np.full(64, -1.0), wavy_v)):
        with pytest.raises(ValueError, match="overflows"):
            run(QUAD, state, 0.0, SolverConfig(t_max=1.0))


def test_start_reads_the_first_step_off_the_extremes_of_u():
    # run's up-front checks, which the command line makes before a command
    # starts: the time resolution 1e-12 * max(1, |t0|, |t_max|), the first
    # CFL step from the two extremes of u, which is the one from every
    # sample, and admission-refused data has no step
    g = PeriodicGrid(64)
    s0 = random_trig_state(g, seed=0, modes=3, amplitude=0.05, u0=-1.0)
    config = SolverConfig(t_max=0.5)
    c, rows, m0, dt0 = start(QUAD, s0, 0.0, config)
    speed = np.sqrt(np.max(np.abs(QUAD.dp(s0.u))))
    assert dt0 == solver.CFL_SAFETY * g.dx / speed
    assert tuple(run(QUAD, s0, 0.0, config).series[0, 1:]) == m0
    with pytest.raises(ValueError, match="must exceed the time resolution 1e-12"):
        start(QUAD, s0, 0.0, SolverConfig(t_max=1e-12))
    assert start(QUAD, s0, 0.0, SolverConfig(t_max=2e-12))[3] == dt0
    assert start(QUAD, constant_state(g, -1e-4, 0.0), 0.0, config)[3] is None


def test_start_refuses_more_than_max_steps():
    # the step budget bounds every run, not only the command line's: the
    # quartic law's constant run at n=256 to t_max=10 would take about
    # 4.0e6 steps, and verify's constant scenario ran it for minutes
    g = PeriodicGrid(256)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        start(PressureLaw(1e5), constant_state(g, -1.0, 0.0), 0.0,
              SolverConfig(t_max=10.0))


def test_run_requires_future_t_max():
    g = PeriodicGrid(64)
    with pytest.raises(ValueError):
        run(QUAD, constant_state(g, -1.0, 0.0), 5.0, SolverConfig(t_max=5.0))


@pytest.mark.parametrize("preset, t0", [("constant", float("nan")),
                                        ("simple_wave", float("nan")),
                                        ("simple_wave", float("-inf"))])
def test_run_rejects_non_finite_t0(preset, t0):
    # unchecked, NaN completes after 0 steps and -inf steps at t = -inf
    from psyslab import simple_wave_state
    g = PeriodicGrid(64)
    s0 = (constant_state(g, -1.0, 0.0) if preset == "constant"
          else simple_wave_state(QUAD, g, -1.0, 0.3, 1))
    with pytest.raises(ValueError, match="t0 must be finite"):
        run(QUAD, s0, t0, SolverConfig(t_max=1.0))


@pytest.mark.parametrize("t0, t_max, match", [
    (1e15, 1000000000002000.0, "first CFL step"),
    (1e17, 100000000000000064.0, "t_max - t0"),
], ids=["step_rounds_away", "span_below_slack"])
def test_run_rejects_unresolvable_time_span(t0, t_max, match):
    # unchecked, the first ends resolution_lost after 26 steps with every
    # snapshot at t0 (t + dt rounds back to t), the second completed after
    # 0 steps
    from psyslab import simple_wave_state
    s0 = simple_wave_state(QUAD, PeriodicGrid(16), -1.0, 0.3, 1)
    with pytest.raises(ValueError, match=match):
        run(QUAD, s0, t0, SolverConfig(t_max=t_max))


def _on_snapshot_states():
    """(state0, config) of a run ending in each status; the blow-up run
    needs ``solver.GRAD_BLOWUP_FACTOR`` 10."""
    from psyslab import crossing_time_oracle, simple_wave_state
    g = PeriodicGrid(128)
    x = g.nodes
    wave = simple_wave_state(QUAD, g, -1.0, 0.3, 1)
    t_star = crossing_time_oracle(QUAD, -1.0, 0.3, 1)
    return {
        "completed": (random_trig_state(g, 0, 3, 0.05, -1.0),
                      SolverConfig(t_max=0.33)),
        "blow_up_detected": (wave, SolverConfig(t_max=2.0 * t_star)),
        "resolution_lost": (wave, SolverConfig(t_max=2.0 * t_star)),
        "interface_reached": (StateField(g, -0.1 + 0.05 * np.sin(2 * np.pi * x),
                                         0.3 * np.sin(2 * np.pi * x)),
                              SolverConfig(t_max=2.0)),
        "admission_refused": (constant_state(g, -1e-4, 0.0),
                              SolverConfig(t_max=1.0)),
    }


@pytest.mark.parametrize("status", [s.value for s in RunStatus])
def test_on_snapshot_sees_each_stored_snapshot_in_order(monkeypatch, status):
    # each snapshot has one consumer: the consumer sees the snapshots a
    # run without one keeps, in order and bit for bit, and the trajectory
    # keeps none of them
    state0, config = _on_snapshot_states()[status]
    if status == "blow_up_detected":
        monkeypatch.setattr(solver, "GRAD_BLOWUP_FACTOR", 10.0)
    kept = run(QUAD, state0, 0.0, config)
    seen = []
    traj = run(QUAD, state0, 0.0, config,
               lambda t, state: seen.append((t, state)))
    assert traj.status is kept.status is RunStatus(status)
    assert traj.snapshots == []
    assert [t for t, _ in seen] == [t for t, _ in kept.snapshots]
    for (_, got), (_, ref) in zip(seen, kept.snapshots):
        assert got.u.tobytes() == ref.u.tobytes()
        assert got.v.tobytes() == ref.v.tobytes()


@pytest.mark.parametrize("t0, t_max", [(1e15, 1000000000002000.0),
                                       (1e17, 100000000000000064.0),
                                       (float("nan"), 1.0)])
def test_on_snapshot_is_not_called_when_run_raises(t0, t_max):
    from psyslab import simple_wave_state
    s0 = simple_wave_state(QUAD, PeriodicGrid(16), -1.0, 0.3, 1)
    seen = []
    with pytest.raises(ValueError):
        run(QUAD, s0, t0, SolverConfig(t_max=t_max),
            lambda t, state: seen.append(t))
    assert seen == []


def _last_step_start():
    """(s0, t_k): the n=64 wave and the time its run to 0.05 takes its
    last step from."""
    s0 = simple_wave_state(QUAD, PeriodicGrid(64), -1.0, 0.3, 1)
    return s0, float(run(QUAD, s0, 0.0, SolverConfig(t_max=0.05)).series[-2, 0])


@pytest.mark.parametrize("remainder", ["1e-13", "one ulp"])
def test_a_completed_run_ends_at_t_max(remainder):
    # however short the remainder after the last CFL step, the run takes
    # it: it used to stop short of t_max, within 1e-12 of it
    s0, t_k = _last_step_start()
    t_max = t_k + 1e-13 if remainder == "1e-13" else math.nextafter(t_k, 1.0)
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=t_max))
    assert traj.status is RunStatus.completed
    assert traj.t_end == t_max == traj.series[-1, 0]
    assert traj.series[-2, 0] == t_k


@pytest.mark.parametrize("t0, t_max, steps", [
    (-0.004765309920093808, 0.003604906474672216, 1),
    (-0.00420571580830845, 0.0033302507526366703, 2),
], ids=["rounds_past", "rounds_short"])
def test_a_last_step_that_rounds_ends_at_t_max(t0, t_max, steps):
    # one step covers the span, and t0 + (t_max - t0) rounds past t_max in
    # the first case and short of it in the second, which takes one more
    # step of one float spacing
    s0 = simple_wave_state(QUAD, PeriodicGrid(64), -1.0, 0.3, 1)
    assert (t0 + (t_max - t0) > t_max) == (steps == 1)
    traj = run(QUAD, s0, t0, SolverConfig(t_max=t_max))
    assert traj.status is RunStatus.completed and traj.steps == steps
    assert traj.t_end == t_max == traj.series[-1, 0]


def test_run_stops_at_a_step_that_is_not_finite(monkeypatch):
    # the 7th step's samples hold a NaN: the run ends blow_up_detected at
    # the time that step would have reached, and stores nothing from it
    g = PeriodicGrid(64)
    s0 = simple_wave_state(QUAD, g, -1.0, 0.3, 1)
    advance = solver._advance
    calls = []

    def failing(law, ws, c, u, dt):
        c, rows = advance(law, ws, c, u, dt)
        calls.append(dt)
        if len(calls) == 7:
            rows[0, 3] = np.nan
        return c, rows

    monkeypatch.setattr(solver, "_advance", failing)
    config = SolverConfig(t_max=1.0)
    seen = []
    traj = run(QUAD, s0, 0.0, config)
    calls.clear()
    run(QUAD, s0, 0.0, config, lambda t, state: seen.append(t))
    assert traj.status is RunStatus.blow_up_detected
    assert traj.steps == 6 and len(traj.series) == 7
    t, max_u, min_u = traj.series[-1, :3]
    assert traj.t_detect == t + min(cfl_dt(QUAD, g, max_u, min_u),
                                    config.t_max - t)
    stored = [t for t, _ in traj.snapshots]
    assert stored == seen == [0.0, traj.series[5, 0]]


def test_run_conserves_means_while_smooth():
    # both right-hand sides are exact x-derivatives
    g = PeriodicGrid(256)
    s0 = random_trig_state(g, seed=1, modes=3, amplitude=0.05, u0=-1.0)
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
    # max u of this data crosses -HYPERBOLICITY_EPS on its way to 0 near
    # step 13 (t ~ 0.049); the run must stop there, not step on through
    # the ill-posed elliptic regime
    g = PeriodicGrid(256)
    x = g.nodes
    s0 = StateField(g, -0.1 + 0.05 * np.sin(2 * np.pi * x),
                    0.3 * np.sin(2 * np.pi * x))
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=2.0))
    eps = solver.HYPERBOLICITY_EPS
    assert traj.status is RunStatus.interface_reached
    assert 1 <= traj.steps <= 13
    t, max_u = traj.series[:, :2].T
    assert traj.t_detect == t[-1] < 0.05
    assert max_u[-1] > -eps
    assert np.all(max_u[:-1] <= -eps)
    # the state past the threshold is not stored
    assert traj.t_end < traj.t_detect
    assert all(np.max(s.u) <= -eps for _, s in traj.snapshots)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), modes=st.integers(1, 4),
       amplitude=st.floats(0.01, 0.6),
       u_offset=st.floats(-0.3, -0.05, exclude_max=True),
       t_max=st.floats(0.01, 0.3))
def test_run_never_stores_a_state_past_the_interface(seed, modes, amplitude,
                                                     u_offset, t_max):
    g = PeriodicGrid(64)
    s0 = random_trig_state(g, seed, modes, amplitude, u_offset)
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=t_max))
    eps = solver.HYPERBOLICITY_EPS
    assert isinstance(traj.status, RunStatus)
    assert traj.status is not RunStatus.admission_refused  # max u <= -0.05
    assert all(np.max(s.u) <= -eps for _, s in traj.snapshots)
    # only the step that ends the run may read past the threshold
    t, max_u = traj.series[:, :2].T
    assert np.all(max_u[:-1] <= -eps)
    if traj.status is RunStatus.completed:
        assert traj.t_detect is None
        assert traj.t_end == pytest.approx(t_max, abs=1e-10)
    else:
        assert traj.t_detect == t[-1]


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

    def fired(u, initial_scale):
        metrics = _state_metrics(*_spectral(StateField(g, u, np.zeros(128))))
        return _monitor_from_metrics(metrics, initial_scale)

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
    max_u, min_u, max_ux, max_vx, tail = _state_metrics(*_spectral(StateField(g, u, v)))
    assert (max_u, min_u) == (np.max(u), np.min(u))
    assert max_ux == np.max(np.abs(spectral_derivative(g, u)))
    assert max_vx == np.max(np.abs(spectral_derivative(g, v)))
    assert 0.1 < tail < 0.6  # white noise: about a third


def test_state_metrics_read_the_noise_floor_at_call_time(monkeypatch):
    # a constant field plus roundoff-level noise reads tail 0 at the
    # module's floor and a real ratio once a planted floor lies below it
    g = PeriodicGrid(128)
    rng = np.random.default_rng(12)
    u = -4.0 + 1e-15 * rng.standard_normal(128)
    c, rows = _spectral(StateField(g, u, np.zeros(128)))
    assert solver.NOISE_FLOOR == 1e-13
    assert _state_metrics(c, rows)[4] == 0.0
    monkeypatch.setattr(solver, "NOISE_FLOOR", 1e-20)
    assert _state_metrics(c, rows)[4] > 0.0


def test_solver_config_validation():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="t_max"):
            SolverConfig(t_max=bad)


def _reference_run(law, state0, t0, config):
    """The integrating-factor RK4 run written in physical space: the
    linear flow at the mean state moves the characteristic variables
    v +- c_bar u by -+c_bar t (a spectral shift), each stage
    differentiates p(u) - p'(u_bar) u from its samples, the stages
    follow Lawson's formula as written, the filter takes an rfft/irfft
    pair per field, and the metrics re-transform the filtered samples.
    Same CFL step, monitor and snapshot rules as ``run``, read off the
    solver's constants; kept only as the reference the solver must
    reproduce."""
    grid = state0.grid
    n = grid.n
    u_bar = float(np.mean(state0.u))
    c_bar = float(np.sqrt(-law.dp(u_bar)))
    k = 2 * np.pi * np.arange(n // 2 + 1)
    k[-1] = 0.0
    sigma = np.exp(-36.0 * (np.arange(n // 2 + 1) / (n // 2)) ** 36)
    weights = np.full(n // 2 + 1, 2.0)
    weights[[0, -1]] = 1.0

    def metrics(u, v):
        tail = total = floor = 0.0
        for f in (u, v):
            e = weights * np.abs(np.fft.rfft(f)) ** 2
            total += float(np.sum(e[1:]))
            tail += float(np.sum(e[n // 3 + 1:]))
            floor += (1e-13 * n * max(1.0, float(np.max(np.abs(f))))) ** 2
        return (float(np.max(u)), float(np.min(u)),
                float(np.max(np.abs(spectral_derivative(grid, u)))),
                float(np.max(np.abs(spectral_derivative(grid, v)))),
                tail / total if total > floor else 0.0)

    def shift(f, d):
        return np.fft.irfft(np.fft.rfft(f) * np.exp(-1j * k * d), n)

    def linear_flow(y, h):
        # v + c_bar u travels right at c_bar, v - c_bar u left
        u, v = y
        right = shift(v + c_bar * u, c_bar * h)
        left = shift(v - c_bar * u, -c_bar * h)
        return np.array(((right - left) / (2.0 * c_bar), (right + left) / 2.0))

    def nonlinear(y):
        return np.array((np.zeros(n), spectral_derivative(
            grid, law.p(y[0]) - law.dp(u_bar) * y[0])))

    def step(u, v, dt):
        y = np.array((u, v))

        def e_half(z):
            return linear_flow(z, 0.5 * dt)

        def e_full(z):
            return linear_flow(z, dt)

        n1 = nonlinear(y)
        n2 = nonlinear(e_half(y + 0.5 * dt * n1))
        n3 = nonlinear(e_half(y) + 0.5 * dt * n2)
        n4 = nonlinear(e_full(y) + dt * e_half(n3))
        un, vn = e_full(y) + (dt / 6.0) * (e_full(n1) + 2.0 * e_half(n2 + n3) + n4)
        return (np.fft.irfft(sigma * np.fft.rfft(un), n),
                np.fft.irfft(sigma * np.fft.rfft(vn), n))

    u, v = state0.u, state0.v
    m = metrics(u, v)
    snapshots = [(t0, u, v)]
    if m[0] > -solver.HYPERBOLICITY_EPS:
        return RunStatus.admission_refused, None, 0, snapshots
    initial_scale = max(1.0, m[2])
    t, steps, status, t_detect = t0, 0, RunStatus.completed, None
    while config.t_max - t > 1e-12 * max(1.0, abs(config.t_max)):
        speed = float(np.sqrt(np.max(np.abs(law.dp(u)))))
        dt = solver.CFL_SAFETY * grid.dx / speed if speed >= 1e-12 \
            else solver.CFL_SAFETY * grid.dx
        dt = min(dt, config.t_max - t)
        u, v = step(u, v, dt)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            status, t_detect = RunStatus.blow_up_detected, t + dt
            break
        t += dt
        steps += 1
        fired = _monitor_from_metrics(metrics(u, v), initial_scale)
        if fired is not None:
            status, t_detect = fired, t
            if fired is not RunStatus.interface_reached:
                snapshots.append((t, u, v))
            break
        if steps % solver.SNAPSHOT_STRIDE == 0:
            snapshots.append((t, u, v))
    if status is RunStatus.completed and snapshots[-1][0] < t:
        snapshots.append((t, u, v))
    return status, t_detect, steps, snapshots


@pytest.mark.parametrize("data", ["trig0", "trig1", "trig2", "simple_wave"])
def test_run_matches_physical_space_reference(monkeypatch, data):
    from psyslab import simple_wave_state
    g = PeriodicGrid(128)
    if data == "simple_wave":
        s0 = simple_wave_state(QUAD, g, -1.0, 0.3, 1)
        cfg = SolverConfig(t_max=2.2)
    else:
        s0 = random_trig_state(g, seed=int(data[-1]), modes=3, amplitude=0.25,
                               u0=-1.0)
        # half the default step, so that each run compares over 100 steps
        monkeypatch.setattr(solver, "CFL_SAFETY", 0.4)
        cfg = SolverConfig(t_max=50.0)
    traj = run(QUAD, s0, 0.0, cfg)
    status, t_detect, steps, snapshots = _reference_run(QUAD, s0, 0.0, cfg)
    assert traj.status is status is not RunStatus.completed
    assert traj.steps == steps > 100
    assert traj.t_detect == pytest.approx(t_detect, rel=1e-12, abs=0.0)
    assert len(traj.snapshots) == len(snapshots)
    for (t, s), (t_ref, u_ref, v_ref) in zip(traj.snapshots, snapshots):
        assert t == pytest.approx(t_ref, rel=1e-12, abs=0.0)
        assert np.max(np.abs(s.u - u_ref)) < 1e-11
        assert np.max(np.abs(s.v - v_ref)) < 1e-11


def test_run_fft_budget(monkeypatch):
    # each step: irfft(u^) of the third stage (the first reuses the
    # step's samples), one rfft of p(u) at stages 1 and 3, one irfft and
    # one rfft of stages 2 and 4, then one irfft of (u^, v^, ik u^,
    # ik v^): 5 calls and 11 transformed rows; admission adds one rfft
    # of 2 rows and one irfft of 4
    counts = {"calls": 0, "rows": 0}

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            counts["calls"] += 1
            counts["rows"] += int(np.prod(np.shape(a)[:-1]))
            return fn(a, *args, **kwargs)
        return wrapper

    g = PeriodicGrid(64)
    s0 = random_trig_state(g, seed=0, modes=3, amplitude=0.05, u0=-1.0)
    # a consumer's run keeps no snapshots, so the count it must see comes
    # from a run made before the counters go in
    stored = len(run(QUAD, s0, 0.0, SolverConfig(t_max=1.0)).snapshots)
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    # a snapshot consumer adds no transform
    seen = []
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=1.0),
               lambda t, state: seen.append(t))
    assert traj.status is RunStatus.completed and traj.steps >= 50
    assert len(seen) == stored
    assert counts["calls"] <= 5 * traj.steps + 2
    assert counts["rows"] <= 11 * traj.steps + 6


def test_cached_spectral_multipliers_are_read_only():
    # a run's workspace holds these for the whole run: an in-place write
    # into one would corrupt every later run at that n
    for cached in (_derivative_multipliers, _parseval_weights):
        arr = cached(64)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def _allocating_step(law, n, c, u, dt):
    """The integrating-factor RK4 step as plain numpy expressions, each
    allocating its result: the float operations ``_advance`` must
    reproduce bit for bit."""
    ik = 2j * np.pi * np.arange(n // 2 + 1)
    ik[-1] = 0.0
    c2 = -law.dp(c[0, 0].real / n)
    c_bar = np.sqrt(c2)
    sin = np.sin(ik.imag * (0.5 * dt * c_bar))
    cos = np.cos(ik.imag * (0.5 * dt * c_bar))
    rot = np.array((sin * (-1j / c_bar), sin * (-1j * c_bar)))

    def rotate(x):
        return cos * x + rot * x[::-1]

    def nonlinear(u_hat, u):
        return ik * (np.fft.rfft(law.p(u)) + c2 * u_hat)

    n1 = nonlinear(c[0], u)
    a = rotate(c)
    b = np.array((rot[0] * n1, cos * n1))
    s2 = a + 0.5 * dt * b
    n2 = nonlinear(s2[0], np.fft.irfft(s2[0], n))
    n3 = nonlinear(a[0], np.fft.irfft(a[0], n))
    s4 = rotate(np.array((a[0], a[1] + dt * n3)))
    n4 = nonlinear(s4[0], np.fft.irfft(s4[0], n))
    cn = rotate(a + (dt / 6.0) * np.array((b[0], b[1] + 2.0 * (n2 + n3))))
    cn[1] = cn[1] + (dt / 6.0) * n4
    m = np.arange(n // 2 + 1)
    cn *= np.exp(-36.0 * (m / (n // 2)) ** 36)
    return cn, np.fft.irfft(np.concatenate((cn, cn * ik)), n)


def _allocating_tail_ratio(c, rows):
    n = 2 * (c.shape[-1] - 1)
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    e = w * np.abs(c) ** 2
    total = float(e[:, 1:].sum(axis=1).sum())
    tail = float(e[:, n // 3 + 1:].sum(axis=1).sum())
    scales = (max(rows[0].max(), -rows[0].min()), np.abs(rows[1]).max())
    floor = sum((NOISE_FLOOR * n * max(1.0, s)) ** 2 for s in scales)
    return tail / total if total > floor else 0.0


@pytest.mark.parametrize("law", [PressureLaw.quadratic(), PressureLaw(0.3)],
                         ids=["quadratic", "quartic"])
@pytest.mark.parametrize("n", [16, 512, 1024, 4096])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_workspace_step_matches_the_allocating_step_bit_for_bit(law, n, sign):
    # the reference transforms each stage's row on its own, so the
    # step's stacked stage transforms must give each row the bits of a
    # 1-row transform; 512 is the sweep's n, 4096 the command line's cap
    g = PeriodicGrid(n)
    s0 = random_trig_state(g, seed=3, modes=3, amplitude=0.25, u0=-1.0)
    dt = sign * cfl_dt(law, g, s0.u.max(), s0.u.min())
    c, rows = _spectral(s0)
    c_ref, rows_ref = c, rows
    ws = _Workspace(law, c)
    tails = []
    for _ in range(20):
        c, rows = _advance(law, ws, c, rows[0], dt)
        c_ref, rows_ref = _allocating_step(law, n, c_ref, rows_ref[0], dt)
        assert np.array_equal(c, c_ref) and np.array_equal(rows, rows_ref)
        tail = _state_metrics(c, rows, ws.energy)[4]
        assert tail == _allocating_tail_ratio(c_ref, rows_ref)
        tails.append(tail)
    assert max(tails) > 0.0  # the ratio is read, not floored to 0


@pytest.mark.parametrize("law", [PressureLaw.quadratic(), PressureLaw(0.3)],
                         ids=["quadratic", "quartic"])
@pytest.mark.parametrize("n", [16, 512])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_mode_zero_is_exact(law, n, sign):
    # the integrating factor linearises at the mean of u for the whole
    # run, so no step may move mode 0 of (u^, v^) by a bit
    g = PeriodicGrid(n)
    s0 = random_trig_state(g, seed=3, modes=3, amplitude=0.25, u0=-1.0)
    c, rows = _spectral(s0)
    mode0 = c[:, 0].tobytes()
    ws = _Workspace(law, c)
    dt = sign * cfl_dt(law, g, s0.u.max(), s0.u.min())
    for _ in range(50):
        c, rows = _advance(law, ws, c, rows[0], dt)
        assert c[:, 0].tobytes() == mode0
    assert np.ptp(rows[0]) > 0.1  # the steps moved every other mode


@pytest.mark.parametrize("law", [PressureLaw.quadratic(), PressureLaw(0.3)],
                         ids=["quadratic", "quartic"])
@pytest.mark.parametrize("preset", ["simple_wave", "random_trig"])
def test_mode_zero_keeps_its_bits_over_a_whole_run(monkeypatch, law, preset):
    # every step of a run to its stop leaves mode 0 of (u^, v^) as the
    # initial state has it
    g = PeriodicGrid(512)
    s0 = (simple_wave_state(law, g, -1.0, 0.3, 1) if preset == "simple_wave"
          else random_trig_state(g, seed=5, modes=3, amplitude=0.25, u0=-1.0))
    mode0 = []
    advance = solver._advance

    def recording(law, ws, c, u, dt):
        c, rows = advance(law, ws, c, u, dt)
        mode0.append(c[:, 0].tobytes())
        return c, rows

    monkeypatch.setattr(solver, "_advance", recording)
    traj = run(law, s0, 0.0, SolverConfig(t_max=5.0))
    assert traj.status is not RunStatus.completed  # it ran to its stop
    assert len(mode0) >= traj.steps > 100
    assert set(mode0) == {_spectral(s0)[0][:, 0].tobytes()}


@pytest.mark.parametrize("law", [PressureLaw.quadratic(), PressureLaw(0.3)],
                         ids=["quadratic", "quartic"])
@pytest.mark.parametrize("preset", ["simple_wave", "random_trig"])
def test_a_later_start_only_relabels_time(law, preset):
    # a run from t0 = 100 takes the steps of the run from 0 with the same
    # bits; its times differ by the rounding of one addition a step
    g = PeriodicGrid(256)
    s0 = (simple_wave_state(law, g, -1.0, 0.3, 1) if preset == "simple_wave"
          else random_trig_state(g, seed=3, modes=3, amplitude=0.25, u0=-1.0))
    base = run(law, s0, 0.0, SolverConfig(t_max=3.0))
    later = run(law, s0, 100.0, SolverConfig(t_max=103.0))
    assert base.status is later.status is RunStatus.resolution_lost
    assert later.steps == base.steps
    assert later.series[:, 1:].tobytes() == base.series[:, 1:].tobytes()
    assert len(later.snapshots) == len(base.snapshots)
    for (_, a), (_, b) in zip(base.snapshots, later.snapshots):
        assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
    # measured at most 1.3e-13; the bound is a spacing of 103 a step
    bound = base.steps * np.spacing(103.0)
    shift = later.series[:, 0] - 100.0 - base.series[:, 0]
    assert np.max(np.abs(shift)) < bound
    assert abs(later.t_detect - 100.0 - base.t_detect) < bound
    assert all(abs(tb - 100.0 - ta) < bound for (ta, _), (tb, _)
               in zip(base.snapshots, later.snapshots))


@pytest.mark.parametrize("law", [PressureLaw.quadratic(), PressureLaw(0.3)],
                         ids=["quadratic", "quartic"])
@pytest.mark.parametrize("n", [64, 1024])
def test_the_largest_admitted_step_is_stable(monkeypatch, law, n):
    # CFL_SAFETY is at most 1: there the simple wave must still run to
    # the stop it reaches at half that step
    from psyslab import crossing_time_oracle, simple_wave_state
    t_star = crossing_time_oracle(law, -1.0, 0.3, 1)
    s0 = simple_wave_state(law, PeriodicGrid(n), -1.0, 0.3, 1)

    def run_at(cfl):
        monkeypatch.setattr(solver, "CFL_SAFETY", cfl)
        return run(law, s0, 0.0, SolverConfig(t_max=2.0 * t_star))

    top, half = run_at(1.0), run_at(0.5)
    assert top.status is half.status is RunStatus.resolution_lost
    assert abs(top.t_detect - half.t_detect) < 0.01 * half.t_detect


def test_step_refuses_an_elliptic_mean_state():
    g = PeriodicGrid(16)
    with pytest.raises(ValueError, match="integrating factor"):
        step_rk4(QUAD, constant_state(g, 0.5, 0.0), 1e-3)


class _NestingLaw:
    """The quadratic law, whose p calls ``nest`` once: on its 10th call,
    the second of step 5 (p is called twice a step), made while that
    step's n1 and n3 are live."""

    def __init__(self, nest):
        self.calls, self.nest = 0, nest

    def p(self, u):
        self.calls += 1
        if self.calls == 10:
            self.nest()
        return QUAD.p(u)

    def dp(self, u):
        return QUAD.dp(u)


@pytest.mark.parametrize("inside", ["on_snapshot", "law.p"])
def test_a_run_started_inside_another_run_shares_no_buffer(inside):
    # on_snapshot starts the inner run between two of the outer run's
    # steps, law.p in the middle of one, while its slopes are live
    g = PeriodicGrid(64)
    config = SolverConfig(t_max=0.5)
    starts = [random_trig_state(g, seed=s, modes=3, amplitude=0.25, u0=-1.0)
              for s in (4, 5)]

    def recorder(kept):
        return lambda t, state: kept.append((t, state.u.tobytes(),
                                             state.v.tobytes()))

    alone = [[], []]
    alone_series = [run(QUAD, s0, 0.0, config, recorder(kept)).series
                    for s0, kept in zip(starts, alone)]
    nested, inner = [[], []], []

    def nest():
        inner.append(run(QUAD, starts[1], 0.0, config,
                         recorder(nested[1])).series)

    def outer_snapshot(t, state):
        recorder(nested[0])(t, state)
        if inside == "on_snapshot" and len(nested[0]) == 3:
            nest()

    law = _NestingLaw(nest) if inside == "law.p" else QUAD
    outer_series = run(law, starts[0], 0.0, config, outer_snapshot).series
    assert len(inner) == 1 and len(nested[0]) > 3
    assert outer_series.tobytes() == alone_series[0].tobytes()
    assert inner[0].tobytes() == alone_series[1].tobytes()
    assert nested == alone
