"""Acceptance gate: every criterion at its stated tolerance, one
printed pass/fail line each.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete."""

import time

import numpy as np
import pytest

import psyslab as ps

QUAD = ps.PressureLaw.quadratic()


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def wave_bundle():
    """Criterion-3 run (n=1024) shared by criteria 3, 8, and 9."""
    t0 = time.perf_counter()
    rep = ps.scenario_simple_wave_blowup(QUAD, -1.0, 0.3, 1, n=1024)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_bundle():
    """Criterion-4 sweep (20 seeds, n=512, t_max=50) shared with 9."""
    t0 = time.perf_counter()
    rep = ps.scenario_random_hyperbolic_sweep(QUAD, 20, 50.0, n=512)
    return rep, time.perf_counter() - t0


def test_criterion_1_riemann_round_trip():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        u = rng.uniform(-50.0, -1e-6)
        v = rng.uniform(-10.0, 10.0)
        u2, v2 = ps.state_from_riemann(QUAD, ps.riemann_from_state(QUAD, u, v))
        worst = max(worst, abs(u2 - u), abs(v2 - v))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-9 and elapsed < 1.0,
           f"1000 round trips, worst error {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_riccati_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for profile in ("constant", "ramp"):
        rep = ps.scenario_riccati_crosscheck(QUAD, profile)
        assert rep.verdict == "pass", rep.reason
        worst = max(worst, rep.metrics["worst_relative_gap"])
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-6 and elapsed < 5.0,
           f"both profiles, worst relative gap {worst:.3e}, {elapsed:.2f}s")


def _worst_beta_gap(k_of) -> float:
    """Worst relative gap between beta read off the exact simple wave and
    the Riccati closed form with k = ``k_of(law, u)``.

    With r2 = v + q(u) = 0, beta = r1_x (-p'(u))^(1/4) = 2 (-p'(u))^(3/4)
    u_x, and u is constant on the straight family-1 line x = xi +
    lambda_1(u(xi)) t, so k is too and K = k t (Lax 1964): beta(t) must
    equal beta0 / (1 + beta0 k t).  u_x is a central difference of
    ``simple_wave_exact``, independent of k, at 32 midpoint starts (none
    where cos 2 pi xi = 0, so beta0 != 0) and t/t* in {0.25, 0.5, 0.75,
    0.9}, for a in {0, 0.3, 1}."""
    xi = (np.arange(32) + 0.5) / 32
    h = 2.0 ** -20
    worst = 0.0
    for law in (ps.PressureLaw(a) for a in (0.0, 0.3, 1.0)):
        t_star = ps.crossing_time_oracle(law, -1.0, 0.3, 1)
        u = -1.0 + 0.3 * np.sin(2.0 * np.pi * xi)
        lam = np.sqrt(-law.dp(u))

        def beta(t):
            x = xi + lam * t
            u_up, _ = ps.simple_wave_exact(law, -1.0, 0.3, 1, t, x + h)
            u_down, _ = ps.simple_wave_exact(law, -1.0, 0.3, 1, t, x - h)
            return 2.0 * (-law.dp(u)) ** 0.75 * (u_up - u_down) / (2.0 * h)

        beta0 = beta(0.0)
        for t in (f * t_star for f in (0.25, 0.5, 0.75, 0.9)):
            read = beta(t)
            closed = beta0 / (1.0 + beta0 * k_of(law, u) * t)
            gap = np.max(np.abs(read - closed) / np.abs(read))
            worst = max(worst, float(gap))
    return worst


def test_criterion_2_riccati_k_on_the_exact_wave():
    # criterion 2's scenario checks the closed form against an ODE built
    # on the same k; this reads k off the exact wave instead
    worst = _worst_beta_gap(ps.riccati_k)
    report(2, worst < 1e-6,
           f"beta on the exact simple wave, worst relative gap {worst:.3e}")


def test_criterion_2_fails_a_planted_riccati_k_defect():
    # k off by 1% reads a gap of 9.7e-2, against 5.8e-9 clean
    assert _worst_beta_gap(lambda law, u: 1.01 * ps.riccati_k(law, u)) >= 1e-6


def test_criterion_3_blowup_triangulation(wave_bundle):
    rep, elapsed = wave_bundle
    m = rep.metrics
    gaps = (m["gap_detect_oracle"], m["gap_predicted_oracle"],
            m["gap_detect_predicted"])
    ok = rep.verdict == "pass" and max(gaps) < 0.05 and elapsed < 60.0
    report(3, ok,
           f"t_detect={m['t_detect']:.4f} t_pred={m['t_predicted']:.4f} "
           f"t_oracle={m['t_oracle']:.4f}, pairwise gaps "
           f"{[f'{g:.3%}' for g in gaps]}, {elapsed:.1f}s")


def test_wave_metrics_unchanged_by_repr(wave_bundle):
    # the n=1024 figures every change to the tracer or solver quotes; a
    # change meant to keep outputs byte-identical must keep these bits
    m = wave_bundle[0].metrics
    assert repr(m["t_predicted"]) == "1.0500410367423365"
    assert repr(m["invariant_drift_max"]) == "2.3413330207944227e-07"


def test_criterion_4_no_surviving_runs(sweep_bundle):
    rep, elapsed = sweep_bundle
    m = rep.metrics
    ok = (rep.verdict == "pass" and m["n_completed"] == 0.0
          and m["n_blow_up_detected"] + m["n_resolution_lost"] == 20.0
          and elapsed < 300.0)
    report(4, ok,
           f"20 seeds: {m['n_blow_up_detected']:.0f} blow_up_detected, "
           f"{m['n_resolution_lost']:.0f} resolution_lost, "
           f"{m['n_completed']:.0f} completed, latest detection "
           f"t={m['latest_detection']:.2f}, {elapsed:.1f}s")


def test_criterion_5_constant_rigidity():
    t0 = time.perf_counter()
    rep = ps.scenario_constant(QUAD, -1.0, 0.0, t_max=10.0)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict == "pass" and rep.metrics["deviation"] < 1e-10 \
        and elapsed < 10.0
    report(5, ok, f"deviation {rep.metrics['deviation']:.3e} at t=10, "
           f"{elapsed:.1f}s")


def test_criterion_6_energy_identity():
    t0 = time.perf_counter()
    rep = ps.scenario_energy_identity(QUAD, 50, seed=42)
    grid = ps.PeriodicGrid(256)
    s = ps.StateField(grid, np.ones(256), np.sin(2 * np.pi * grid.nodes))
    analytic_err = abs(ps.energy_ddot_formula(QUAD, s, ps.ConcaveGauge.log1p)
                       + np.pi**2 / 2.0)
    elapsed = time.perf_counter() - t0
    ok = (rep.verdict == "pass"
          and rep.metrics["worst_identity_gap"] < 1e-8
          and rep.metrics["worst_ddot_formula"] <= 1e-10
          and analytic_err < 1e-8 and elapsed < 5.0)
    report(6, ok,
           f"50 fields: worst gap {rep.metrics['worst_identity_gap']:.2e}, "
           f"worst ddot {rep.metrics['worst_ddot_formula']:.2e}, analytic "
           f"case error {analytic_err:.2e}, {elapsed:.2f}s")


def test_criterion_7_ramp_residual():
    t0 = time.perf_counter()
    rep = ps.scenario_ramp_residual(QUAD)
    elapsed = time.perf_counter() - t0
    m = rep.metrics
    ok = (rep.verdict == "pass" and m["max_residual_1"] == 0.0
          and m["max_residual_2"] == 0.0 and m["v_period_shift"] == -1.0
          and elapsed < 1.0)
    report(7, ok, f"residuals ({m['max_residual_1']}, {m['max_residual_2']}), "
           f"v(x+1)-v(x) = {m['v_period_shift']}, {elapsed:.3f}s")


def test_criterion_8_invariant_transport(wave_bundle):
    rep, _ = wave_bundle
    drift = rep.metrics["invariant_drift_max"]
    report(8, drift < 1e-4,
           f"own-invariant drift {drift:.3e} up to the 10x-gradient time "
           f"t={rep.metrics['t_gradient_10x']:.3f} (both families)")


def test_criterion_9_no_dual_growth(wave_bundle, sweep_bundle,
                                    near_interface_spotcheck):
    # on the wave and the sweep no curve can read B; on the near-interface
    # wave some backward family-2 curves do, and no family-1 curve
    wave_rep, _ = wave_bundle
    sweep_rep, _ = sweep_bundle
    violations, labels = near_interface_spotcheck
    near = len(violations)
    n_b = sum(label in (ps.ClassLabel.B_plus, ps.ClassLabel.B_minus)
              for label in labels)
    total = wave_rep.metrics["spotcheck_violations"] + \
        sweep_rep.metrics["spotcheck_violations"] + near
    report(9, total == 0.0 and n_b >= 1,
           f"{total:.0f} same-direction (B,B) pairs across all runs; "
           f"{n_b} B labels on the near-interface wave")


def test_criterion_10_solver_order():
    t0 = time.perf_counter()
    grid = ps.PeriodicGrid(64)
    x = grid.nodes
    s0 = ps.StateField(grid, -1.0 + 0.1 * np.sin(2 * np.pi * x),
                       0.05 * np.cos(2 * np.pi * x))
    T = 0.08

    def advance(state, dt, steps):
        for _ in range(steps):
            state = ps.step_rk4(QUAD, state, dt)
        return state

    ref = advance(s0, T / 1024, 1024)
    errs = []
    for k in (16, 32):
        s = advance(s0, T / k, k)
        errs.append(max(np.max(np.abs(s.u - ref.u)),
                        np.max(np.abs(s.v - ref.v))))
    ratio = errs[0] / errs[1]

    d = ps.spectral_derivative(grid, np.sin(2 * np.pi * x))
    spectral_err = np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x)))
    elapsed = time.perf_counter() - t0
    ok = 14.0 <= ratio <= 18.0 and spectral_err < 1e-10 and elapsed < 5.0
    report(10, ok, f"RK4 halving factor {ratio:.2f} (target 16 +- 2), "
           f"spectral derivative error {spectral_err:.2e}, {elapsed:.2f}s")
