import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psyslab
from psyslab import (ClassLabel, Direction, EllipticStart, Family,
                     PeriodicGrid, PressureLaw, SolverConfig, SpaceTimeField,
                     StateField, WindowTooShort, classify, constant_state,
                     dual_growth_spotcheck, gradient_beta, invariant_drift,
                     predict_blowup, run, simple_wave_state, trace,
                     trace_batch)
from psyslab.characteristics import (CONTINUATION, CURVE_COLUMNS,
                                     GROWTH_FACTOR, CharacteristicCurve,
                                     _median_spacing, spotcheck_points)
from psyslab.solver import RunStatus, Trajectory

QUAD = PressureLaw.quadratic()


def completed(snaps, hyperbolicity_eps=1e-3):
    """A completed Trajectory holding these (t, StateField) snapshots; its
    series is one row at t0, with no monitor readings."""
    config = SolverConfig(t_max=snaps[-1][0], hyperbolicity_eps=hyperbolicity_eps)
    series = np.array([[snaps[0][0]] + [np.nan] * 5])
    return Trajectory(QUAD, snaps, RunStatus.completed, None, series, config)


def synthetic_trajectory(u_of_t, v_value, times, n=64):
    """Trajectory wrapper around a prescribed x-independent field; need
    not solve the system (curve-level checks only)."""
    g = PeriodicGrid(n)
    return completed([(float(t), StateField(g, np.full(n, u_of_t(t)),
                                            np.full(n, v_value)))
                      for t in times])


def static_trajectory(u_samples, v_samples, times, n, hyperbolicity_eps=1e-3):
    g = PeriodicGrid(n)
    s = StateField(g, u_samples, v_samples)
    return completed([(float(t), s) for t in times], hyperbolicity_eps)


@pytest.fixture(scope="module")
def constant_traj():
    g = PeriodicGrid(256)
    return run(QUAD, constant_state(g, -1.0, 0.0), 0.0, SolverConfig(t_max=3.0))


def test_constant_state_family1_line(constant_traj):
    c = trace(constant_traj, 0.25, Family.first)
    assert c.t_hit is None  # it ran the whole window
    assert abs(c.t[-1] - 3.0) < 1e-9
    assert abs(c.x[-1] - 3.25) < 1e-9         # speed exactly 1, unwrapped
    assert abs(c.K_accum[-1] + 0.75) < 1e-8   # k = -1/4 along the curve
    assert np.all(np.abs(c.beta) < 1e-12)
    assert np.all(np.diff(c.x) > 0.0)         # family-1 lift non-decreasing


def test_constant_state_family2_line(constant_traj):
    c = trace(constant_traj, 0.25, Family.second)
    assert abs(c.x[-1] + 2.75) < 1e-9
    assert np.all(np.diff(c.x) < 0.0)


def test_curve_columns_are_the_curve_arrays():
    # the curve CSV header names each sample column once, in field order
    assert CURVE_COLUMNS == tuple(
        f.name for f in dataclasses.fields(CharacteristicCurve)
        if f.type == "np.ndarray")


def test_constant_state_drift_zero(constant_traj):
    c = trace(constant_traj, 0.1, Family.first)
    assert invariant_drift(c) < 1e-12


@pytest.mark.parametrize("direction", list(Direction))
def test_invariant_drift_stops_at_t_end(direction):
    # r1 creeps by 1e-6 per unit time, then jumps by 1 after t = 1.5
    # (forward) or before t = 0.5 (backward); only the jump lies beyond
    # t_end along the direction
    t = np.linspace(0.0, 2.0, 9)
    jump = t > 1.5 if direction is Direction.forward else t < 0.5
    r1 = 1e-6 * t + jump
    if direction is Direction.backward:
        t, r1 = t[::-1], r1[::-1]
    zeros = np.zeros_like(t)
    c = CharacteristicCurve(Family.first, direction, t, zeros, zeros - 1.0, r1,
                            zeros, zeros, zeros)
    t_end = 1.5 if direction is Direction.forward else 0.5
    assert invariant_drift(c, t_end) == pytest.approx(1.5e-6, rel=1e-9)
    assert invariant_drift(c) == pytest.approx(1.0, abs=1e-5)
    assert invariant_drift(c, c.t_start) == 0.0


def test_K_accum_non_increasing(constant_traj):
    c = trace(constant_traj, 0.6, Family.first)
    assert np.all(np.diff(c.K_accum) <= 0.0)


def with_beta0(curve, b0):
    """The curve with its beta column set to b0, so that beta0 = b0."""
    return dataclasses.replace(curve, beta=np.full_like(curve.beta, b0))


def test_predict_blowup_constant_curve(constant_traj):
    c = trace(constant_traj, 0.25, Family.first)
    # solve 1 + 2 * (-0.25) t = 0
    assert predict_blowup(with_beta0(c, 2.0)) == pytest.approx(2.0, abs=1e-8)
    assert predict_blowup(with_beta0(c, 0.0)) is None
    assert predict_blowup(with_beta0(c, -1.0)) is None  # negative beta decays
    # closed form t0 + 1/(beta0 |k|) for roots inside the window [0, 3]
    for b0 in (1.5, 4.0, 10.0):
        assert (predict_blowup(with_beta0(c, b0))
                == pytest.approx(4.0 / b0, abs=1e-8))
    # root at t=8, beyond the window
    assert predict_blowup(with_beta0(c, 0.5)) is None


def test_predict_blowup_continuation_bound(constant_traj):
    # K = -t/4 continues past the window [0, 3] for CONTINUATION * 3
    # (0.75): a root at 3.6 is found, one at 3.9 is not
    c = trace(constant_traj, 0.25, Family.first)
    allowance = CONTINUATION * 3.0
    t_in, t_out = 3.0 + 0.8 * allowance, 3.0 + 1.2 * allowance
    assert (predict_blowup(with_beta0(c, 4.0 / t_in))
            == pytest.approx(t_in, abs=1e-8))
    assert predict_blowup(with_beta0(c, 4.0 / t_out)) is None


def test_classify_constant_is_A(constant_traj):
    c = trace(constant_traj, 0.25, Family.first)
    assert classify(c) is ClassLabel.A_plus
    cb = trace(constant_traj, 0.25, Family.first, Direction.backward)
    assert classify(cb) is ClassLabel.A_minus


def test_classify_undetermined_when_growth_turns_back():
    # -u ends 15x its start, above the growth factor, but falls over the
    # final quarter of the window: neither A nor B
    t = np.linspace(0.0, 1.0, 11)
    minus_u = np.array([1.0, 3, 5, 8, 11, 14, 17, 20, 19, 17, 15])
    assert minus_u[-1] > GROWTH_FACTOR * minus_u[0]
    zeros = np.zeros_like(t)
    curve = CharacteristicCurve(Family.first, Direction.forward, t, t,
                                -minus_u, zeros, zeros, zeros, zeros)
    assert classify(curve) is ClassLabel.undetermined


def test_backward_trace_starts_at_window_end(constant_traj):
    c = trace(constant_traj, 0.5, Family.first, Direction.backward)
    assert c.t[0] == pytest.approx(3.0, abs=1e-9)
    assert np.all(np.diff(c.t) < 0.0)
    assert abs(c.t[-1]) < 1e-9


@pytest.mark.parametrize("eps, t_hit", [(1e-3, 1.0), (0.05, 0.5)])
def test_boundary_hit_in_mixed_field(eps, t_hit):
    # static mixed-type field: u crosses 0; the curve slides toward the
    # interface with speed ~ sqrt(-u) and reaches it in finite time, where
    # u first rises above the run's -hyperbolicity_eps
    g = PeriodicGrid(256)
    u = -0.5 + 0.8 * np.sin(2 * np.pi * g.nodes)
    traj = static_trajectory(u, np.zeros(256), np.arange(0, 41) * 0.25, 256,
                             hyperbolicity_eps=eps)
    c = trace(traj, 0.75, Family.first)
    assert c.t_hit == c.t_end == pytest.approx(t_hit, abs=1e-12)
    assert c.u[-1] > -eps
    assert np.all(c.u[:-1] <= -eps)
    assert classify(c) is ClassLabel.A_plus


def test_elliptic_start_raises():
    g = PeriodicGrid(256)
    u = -0.5 + 0.8 * np.sin(2 * np.pi * g.nodes)
    traj = static_trajectory(u, np.zeros(256), [0.0, 0.5, 1.0, 1.5], 256)
    with pytest.raises(EllipticStart):
        trace(traj, 0.25, Family.first)  # u(0.25) = 0.3 > 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_trace_batch_rejects_non_finite_start(constant_traj, bad):
    # unchecked, a NaN start gives a one-sample curve that classify labels B_plus
    with pytest.raises(ValueError, match="finite"):
        trace_batch(constant_traj, [(0.25, Family.first), (bad, Family.first)])


def test_window_too_short():
    traj = synthetic_trajectory(lambda t: -1.0, 0.0, [0.0])
    with pytest.raises(WindowTooShort):
        trace(traj, 0.5, Family.first)


def test_field_keeps_a_last_snapshot_however_close():
    # the run to 5e-12 past its second-to-last step stores that step's
    # state, and both directions trace through it: the field used to drop
    # a snapshot closer than 1e-9 of the largest spacing to the one before
    s0 = simple_wave_state(QUAD, PeriodicGrid(64), -1.0, 0.3, 1)
    t_k = float(run(QUAD, s0, 0.0, SolverConfig(t_max=0.05)).series[-2, 0])
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=t_k + 5e-12,
                                           snapshot_stride=1))
    assert SpaceTimeField(traj.snapshots, QUAD).times[-1] == traj.t_end
    starts = [(x0, fam) for fam in Family for x0 in spotcheck_points(4)]
    for direction in Direction:
        for curve in trace_batch(traj, starts, direction).values():
            assert np.isfinite(np.column_stack(
                [getattr(curve, col) for col in CURVE_COLUMNS])).all()
            if direction is Direction.backward:
                assert curve.t_start == traj.t_end


def test_field_refuses_times_that_do_not_increase():
    s = constant_state(PeriodicGrid(16), -1.0, 0.0)
    with pytest.raises(ValueError, match=r"t\[1\] = 0.5, t\[2\] = 0.5"):
        SpaceTimeField([(0.0, s), (0.5, s), (0.5, s), (1.0, s)], QUAD)


def test_trajectory_keeps_no_field():
    # each tracer call builds its own field; the solver knows no evaluator
    traj = synthetic_trajectory(lambda t: -(1.0 + t), 0.0, np.linspace(0, 2, 9))
    trace(traj, 0.3, Family.first)
    assert not hasattr(traj, "field")
    assert not hasattr(psyslab.solver, "SpaceTimeField")


def test_tracer_calls_carry_no_state_between_them():
    # forward, backward, forward again on one trajectory: each pass's
    # curves are the bits of the same pass on a fresh run
    def fresh():
        s0 = simple_wave_state(QUAD, PeriodicGrid(128), -1.0, 0.3, 1)
        return run(QUAD, s0, 0.0, SolverConfig(t_max=1.0))

    starts = [(x0, fam) for fam in Family for x0 in (0.1, 0.45, 0.8)]
    passes = (Direction.forward, Direction.backward, Direction.forward)
    traj = fresh()
    for direction in passes:
        reused = trace_batch(traj, starts, direction)
        new = trace_batch(fresh(), starts, direction)
        assert list(reused) == list(new) == starts
        for key, curve in reused.items():
            for name in CURVE_COLUMNS:
                np.testing.assert_array_equal(getattr(curve, name),
                                              getattr(new[key], name),
                                              err_msg=f"{direction} {key} {name}")
            assert curve.t_hit == new[key].t_hit
    assert gradient_beta(traj, 0.45, Family.second) == \
        gradient_beta(fresh(), 0.45, Family.second)


@pytest.mark.parametrize("count", [2, 3, 5, 627, 628])
def test_median_spacing_is_np_median(count):
    # odd and even numbers of spacings, unevenly spaced and unsorted
    times = np.cumsum(np.random.default_rng(count).uniform(1e-3, 1e-2, count))
    assert (_median_spacing(times).hex()
            == float(np.median(np.diff(times))).hex())


def test_trace_batch_loads_no_numpy_ma():
    # np.median imports numpy.ma on its first call in a process
    src = str(Path(psyslab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, psyslab as p\n"
            "g = p.PeriodicGrid(32)\n"
            "traj = p.run(p.PressureLaw.quadratic(), p.constant_state(g, -1.0, 0.0),"
            " 0.0, p.SolverConfig(t_max=0.5))\n"
            "p.trace_batch(traj, [(0.25, p.Family.first), (0.75, p.Family.first)])\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_synthetic_growth_is_B_plus():
    # -u = 1 + t grows without bound; forward curves are class B
    traj = synthetic_trajectory(lambda t: -(1.0 + t), 0.0,
                                np.linspace(0.0, 15.0, 121))
    c = trace(traj, 0.3, Family.first)
    assert classify(c) is ClassLabel.B_plus
    report = dual_growth_spotcheck(traj, 3)
    assert report.violations  # engineered non-solution: detector must fire
    assert any(v["direction"] == "forward" for v in report.violations)


def test_spotcheck_constant_trajectory_clean(constant_traj):
    assert not dual_growth_spotcheck(constant_traj, 4).violations
    starts = [(x0, Family.first) for x0 in spotcheck_points(4)]
    curves = trace_batch(constant_traj, starts).values()
    assert all(classify(c) is ClassLabel.A_plus for c in curves)


def test_near_interface_wave_gives_a_B_label_and_no_violation(monkeypatch):
    # solver data on which a B label is possible: the wave reaches
    # u = -0.05, so a curve's growth bound is 21x, not 2.31x.  Run to
    # 2 t*, it ends resolution_lost just past t*; some backward family-2
    # curves read B_minus, no family-1 curve reads B, so no violation
    import psyslab.characteristics as characteristics
    from psyslab import crossing_time_oracle
    t_star = crossing_time_oracle(QUAD, -0.55, 0.5, 1)
    s0 = simple_wave_state(QUAD, PeriodicGrid(512), -0.55, 0.5, 1)
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=2.0 * t_star))
    labels = []
    label_of = characteristics.classify

    def recording(curve, *args):
        labels.append(label_of(curve, *args))
        return labels[-1]

    monkeypatch.setattr(characteristics, "classify", recording)
    assert dual_growth_spotcheck(traj, 32).violations == []
    assert {ClassLabel.B_plus, ClassLabel.B_minus} & set(labels)


@pytest.fixture(scope="module")
def wave_traj():
    from psyslab import crossing_time_oracle
    t_star = crossing_time_oracle(QUAD, -1.0, 0.3, 1)
    g = PeriodicGrid(512)
    s0 = simple_wave_state(QUAD, g, -1.0, 0.3, 1)
    return run(QUAD, s0, 0.0, SolverConfig(t_max=2.0 * t_star)), t_star


def test_simple_wave_invariant_transport(wave_traj):
    traj, _ = wave_traj
    t, _, _, ux, _, _ = traj.series.T
    t10 = float(t[np.argmax(ux >= 10.0 * ux[0])])
    for fam in Family:
        for j in range(4):
            c = trace(traj, (j + 0.5) / 4, fam)
            assert invariant_drift(c, t10) < 1e-4


def test_simple_wave_r2_constant_along_all_curves(wave_traj):
    # r2 is constant in the whole field, hence along every curve
    traj, _ = wave_traj
    t, _, _, ux, _, _ = traj.series.T
    t10 = float(t[np.argmax(ux >= 10.0 * ux[0])])
    for j in range(4):
        c = trace(traj, (j + 0.5) / 4, Family.first)
        r2s = c.r2[c.t <= t10]
        assert np.max(np.abs(r2s - r2s[0])) < 1e-4


def test_prediction_triangulates_oracle(wave_traj):
    traj, t_star = wave_traj
    preds = []
    for j in range(16):
        c = trace(traj, j / 16, Family.first)
        tp = predict_blowup(c)
        if tp is not None:
            preds.append(tp)
    assert preds
    assert abs(min(preds) - t_star) / t_star < 0.05
    assert abs(traj.t_detect - t_star) / t_star < 0.05


def test_spotcheck_wave_trajectory_clean(wave_traj):
    traj, _ = wave_traj
    assert not dual_growth_spotcheck(traj, 4).violations


def test_gradient_beta_matches_analytic(wave_traj):
    # for the simple wave, r1_x = 2 sqrt(-u) u_x and beta = r1_x (-u)^(1/4)
    traj, _ = wave_traj
    x0 = 0.3
    u = -1.0 + 0.3 * np.sin(2 * np.pi * x0)
    ux = 0.3 * 2 * np.pi * np.cos(2 * np.pi * x0)
    analytic = 2.0 * np.sqrt(-u) * ux * (-u) ** 0.25
    assert gradient_beta(traj, x0, Family.first) == pytest.approx(analytic, rel=1e-6)
    batch = gradient_beta(traj, np.array([0.1, x0]), Family.first)
    assert batch[1] == pytest.approx(gradient_beta(traj, x0, Family.first), rel=1e-14)


@pytest.mark.parametrize("fam", list(Family))
def test_gradient_beta_is_the_first_curve_sample(wave_traj, fam):
    # predict_blowup reads beta0 off the curve: it must be gradient_beta
    traj, _ = wave_traj
    seeds = (np.arange(13) + 0.3) / 13    # off the grid nodes
    betas = [c.beta[0] for c in trace_batch(traj, [(x0, fam) for x0 in seeds]).values()]
    assert gradient_beta(traj, seeds, fam).tolist() == betas


def test_drift_falls_with_snapshot_spacing_at_high_order():
    # on a smooth run the drift measures the field's interpolation in t:
    # halving the snapshot spacing must cut it at least 8x (3rd order)
    g = PeriodicGrid(256)
    s0 = simple_wave_state(QUAD, g, -1.0, 0.3, 1)
    seeds = [(j + 0.5) / 4 for j in range(4)]
    drift = {}
    for stride in (2, 4):
        traj = run(QUAD, s0, 0.0, SolverConfig(t_max=0.5, snapshot_stride=stride))
        curves = trace_batch(traj, [(x0, f) for f in Family for x0 in seeds])
        drift[stride] = max(invariant_drift(c) for c in curves.values())
    assert drift[2] < 1e-7
    assert drift[4] / drift[2] >= 8.0


def mixed_trajectory():
    """Time-dependent mixed-type field on [0, 0.5]: u > 0 near x = 0.25,
    so curves started there are elliptic and some others run into the
    interface; need not solve the system."""
    g = PeriodicGrid(256)
    x = g.nodes
    snaps = []
    for t in np.arange(9) * 0.0625:
        u = -0.5 + 0.8 * np.sin(2 * np.pi * x) + 0.1 * t * np.cos(2 * np.pi * x)
        v = 0.2 * t * np.sin(4 * np.pi * x)
        snaps.append((float(t), StateField(g, u, v)))
    return completed(snaps)


@pytest.mark.parametrize("direction", list(Direction))
def test_batch_matches_single_traces(direction):
    # each batch holds both families, an elliptic start, a boundary hit
    # and a curve that runs the whole window
    traj = mixed_trajectory()
    starts = [(x0, fam) for fam in Family for x0 in (0.25, 0.05, 0.75)]
    batch = trace_batch(traj, starts, direction)
    assert list(batch) == starts
    outcomes = set()
    for (x0, fam), got in batch.items():
        if isinstance(got, EllipticStart):
            with pytest.raises(EllipticStart):
                trace(traj, x0, fam, direction)
            outcomes.add("elliptic")
            continue
        ref = trace(traj, x0, fam, direction)
        assert (got.family, got.direction) == (ref.family, ref.direction)
        assert (got.t_hit is None) == (ref.t_hit is None)
        if ref.t_hit is not None:
            assert got.t_hit == pytest.approx(ref.t_hit, abs=1e-14)
        for name in CURVE_COLUMNS:
            np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                       rtol=1e-14, atol=1e-14, err_msg=name)
        outcomes.add("reached_horizon" if got.t_hit is None
                     else "reached_boundary")
    assert outcomes == {"elliptic", "reached_boundary", "reached_horizon"}


def test_trace_batch_traces_a_repeated_start_once(monkeypatch):
    # a start listed twice has one entry and one column in the batch, so
    # its curve is the bits of the batch without the repeat
    traj = mixed_trajectory()
    starts = [(0.05, Family.first), (0.75, Family.second), (0.05, Family.first)]
    unique = trace_batch(traj, starts[:2])
    widths = []
    evaluate = SpaceTimeField.evaluate

    def counting(self, coeffs, x):
        widths.append(len(x))
        return evaluate(self, coeffs, x)

    monkeypatch.setattr(SpaceTimeField, "evaluate", counting)
    batch = trace_batch(traj, starts)
    assert list(batch) == starts[:2]
    assert widths[0] == 2 and max(widths) == 2
    for key, curve in batch.items():
        for name in CURVE_COLUMNS:
            np.testing.assert_array_equal(getattr(curve, name),
                                          getattr(unique[key], name), err_msg=name)


def test_field_evaluator_matches_direct_sum():
    # white-noise snapshots at uneven times fill every mode, Nyquist too;
    # the reference is the cubic Hermite interpolant in t of per-mode
    # sums in x, with the PDE's slopes u_t = -v_x and v_t = (p(u))_x
    n = 64
    rng = np.random.default_rng(11)
    times = np.cumsum(rng.uniform(0.05, 0.15, 8))
    g = PeriodicGrid(n)
    traj = completed([(float(t), StateField(g, -1.0 + 0.1 * rng.standard_normal(n),
                                            0.1 * rng.standard_normal(n)))
                      for t in times])
    fld = SpaceTimeField(traj.snapshots, traj.law)
    assert np.array_equal(fld.times, times)
    m = np.arange(n // 2 + 1)
    ik = 2j * np.pi * m
    ik[-1] = 0.0

    def coefficients(samples):
        c = np.fft.rfft(samples) / n
        c[1:-1] *= 2.0
        return c

    def direct_sum(coef, x):
        return np.array([sum((coef[j] * np.exp(2j * np.pi * j * xi)).real
                             for j in m) for xi in x])

    for t in rng.uniform(times[0], times[-1], 4):
        x = rng.uniform(-2.0, 3.0, 6)
        i = int(np.searchsorted(times, t)) - 1
        dt = times[i + 1] - times[i]
        s = (t - times[i]) / dt
        basis = ((2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s),
                 (-2 * s**3 + 3 * s**2, s**3 - s**2))
        cu = cv = 0.0
        for (h, h_slope), (_, state) in zip(basis, traj.snapshots[i:i + 2]):
            c_u, c_v = coefficients(state.u), coefficients(state.v)
            c_p = coefficients(0.5 * state.u**2)
            cu = cu + h * c_u + dt * h_slope * (-ik * c_v)
            cv = cv + h * c_v + dt * h_slope * (ik * c_p)
        expect = [direct_sum(c, x) for c in (cu, cv, ik * cu, ik * cv)]
        got = fld.values(t, x)
        for k in range(4):
            scale = max(1.0, float(np.max(np.abs(expect[k]))))
            np.testing.assert_allclose(got[k], expect[k], rtol=0, atol=1e-13 * scale)


def eager_coefficients(snapshots, law, t):
    """The field's rows at t as they were computed when every snapshot's
    rows were built up front: the reference for bit-identity."""
    from psyslab.field import _BLOCK, _derivative_multipliers, trig_coefficients
    times = np.array([s for s, _ in snapshots])
    n = snapshots[0][1].grid.n
    n_modes = n // 2 + 1
    rows = -(-n_modes // _BLOCK)
    coeffs = np.zeros((len(times), 3, rows * _BLOCK), dtype=complex)
    for k, (_, state) in enumerate(snapshots):
        coeffs[k, :, :n_modes] = trig_coefficients(
            np.stack((state.u, state.v, law.p(state.u))))
    coeffs = coeffs.reshape(len(times), 3, rows, _BLOCK)
    dmul = np.zeros(rows * _BLOCK, dtype=complex)
    dmul[:n_modes] = _derivative_multipliers(n)
    dmul = dmul.reshape(rows, _BLOCK)
    i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0),
            len(times) - 2)
    dt = float(times[i + 1] - times[i])
    s = (t - float(times[i])) / dt
    h00, h01 = (1.0 + 2.0 * s) * (1.0 - s) ** 2, s * s * (3.0 - 2.0 * s)
    h10, h11 = dt * s * (1.0 - s) ** 2, dt * s * s * (s - 1.0)
    c0, c1 = coeffs[i], coeffs[i + 1]
    uv = h00 * c0[:2] + h01 * c1[:2]
    slope = (h10 * c0[1:] + h11 * c1[1:]) * dmul
    uv[0] -= slope[0]
    uv[1] += slope[1]
    return np.concatenate((uv, uv * dmul))


def test_field_rows_built_on_demand_match_eager_rows():
    # rows are built when first needed and only a few are kept; in any
    # order of access, the combined rows must be the eager ones bit for bit
    n = 64
    rng = np.random.default_rng(12)
    times = np.cumsum(rng.uniform(0.05, 0.15, 10))
    g = PeriodicGrid(n)
    traj = completed([(float(t), StateField(g, -1.0 + 0.1 * rng.standard_normal(n),
                                            0.1 * rng.standard_normal(n)))
                      for t in times])
    interior = list(rng.uniform(times[0], times[-1], 6))
    boundary = list(times) + [float(np.nextafter(times[3], np.inf))]
    outside = [times[0] - 0.3, times[-1] + 0.2]
    queries = interior + boundary + outside
    fld = SpaceTimeField(traj.snapshots, traj.law)
    for t in queries + queries[::-1] + list(rng.permutation(queries)):
        np.testing.assert_array_equal(fld.coefficients(t),
                                      eager_coefficients(traj.snapshots, QUAD, t))


def test_field_memory_is_a_fraction_of_the_eager_rows():
    # a full-window forward and backward pass on the n=1024 wave holds a
    # few snapshots' rows, not 3 rows x 544 padded modes x 16 B of each
    import tracemalloc
    from psyslab import crossing_time_oracle
    s0 = simple_wave_state(QUAD, PeriodicGrid(1024), -1.0, 0.3, 1)
    t_star = crossing_time_oracle(QUAD, -1.0, 0.3, 1)
    # stride 2 stores about 785 snapshots
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=2.0 * t_star, snapshot_stride=2))
    tracemalloc.start()
    try:
        x0 = np.arange(16) / 16
        forward = trace_batch(traj, [(x, Family.first) for x in x0])
        backward = trace_batch(traj, [(x, Family.second) for x in x0],
                               Direction.backward)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    times = SpaceTimeField(traj.snapshots, traj.law).times
    eager = 3 * 544 * 16 * len(times)
    assert len(times) > 600
    for curves, t_end in ((forward, traj.t_end), (backward, traj.t0)):
        assert all(c.t_end == pytest.approx(t_end, abs=1e-12) for c in curves.values())
    assert peak < eager / 4, (peak, eager)


def test_field_builds_each_snapshot_rows_once_a_pass(monkeypatch):
    # a pass walks the window monotonically, so the kept rows must serve
    # every later fetch of a snapshot: one FFT per snapshot and pass
    from psyslab import crossing_time_oracle, field
    s0 = simple_wave_state(QUAD, PeriodicGrid(256), -1.0, 0.3, 1)
    t_star = crossing_time_oracle(QUAD, -1.0, 0.3, 1)
    traj = run(QUAD, s0, 0.0, SolverConfig(t_max=2.0 * t_star))
    index = {(state.u.tobytes(), state.v.tobytes()): k
             for k, (_, state) in enumerate(traj.snapshots)}
    built = []

    def recording(samples):
        built.append(index[samples[0].tobytes(), samples[1].tobytes()])
        return trig_coefficients(samples)

    trig_coefficients = field.trig_coefficients
    monkeypatch.setattr(field, "trig_coefficients", recording)
    x0 = np.arange(16) / 16
    for family, direction in ((Family.first, Direction.forward),
                              (Family.second, Direction.backward)):
        built.clear()
        trace_batch(traj, [(x, family) for x in x0], direction)
        assert sorted(built) == list(range(len(traj.snapshots)))
