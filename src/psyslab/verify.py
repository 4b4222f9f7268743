"""Scenario harness: reproducible end-to-end corroboration runs.

Each scenario assembles solver, characteristics, and energy diagnostics
into a pass/fail report with its thresholds embedded, so the verdict is
auditable from the report alone.  Scenarios are deterministic given
(law, parameters, seed).

These are numerical corroborations of rigidity statements, not proofs:
a pass means the computation behaved exactly as the theory predicts at
the tested resolution and horizon.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field as dc_field
from typing import Optional

import numpy as np

# trace and gradient_beta are unused here but stay names of this module:
# perfbench/tracing.py wraps the tracer's entry points by module attribute
from .characteristics import (Direction, dual_growth_spotcheck,  # noqa: F401
                              gradient_beta, invariant_drift, predict_blowup,
                              spotcheck_points, spotcheck_report, trace,
                              trace_batch)
from .energy import ConcaveGauge, energy_ddot_direct, energy_ddot_formula
from .errors import DomainError
from .field import PeriodicGrid, StateField
from .pressure import PressureLaw
from .riemann import Family, q_of_u, riccati_evolve, riccati_k
from .solver import RunStatus, SolverConfig, run

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

#: statuses of a run that ended in the gradient catastrophe
TERMINATED = (RunStatus.blow_up_detected, RunStatus.resolution_lost)


@dataclass
class ScenarioReport:
    scenario_id: str
    law: str
    seed: Optional[int]
    metrics: dict = dc_field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    thresholds: dict = dc_field(default_factory=dict)
    artifacts: list = dc_field(default_factory=list)
    reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _judge(report: ScenarioReport, ok: bool, reason: str) -> ScenarioReport:
    """Set the report's verdict: pass when ``ok`` and every metric is
    finite, else fail for ``reason``.  Non-finite metrics are the reason
    instead, and are written as None, JSON having no NaN or inf."""
    bad = {k: v for k, v in report.metrics.items() if not math.isfinite(v)}
    if bad:
        report.metrics.update(dict.fromkeys(bad))
        ok = False
        reason = "non-finite " + ", ".join(f"{k} = {v}" for k, v in bad.items())
    report.verdict = PASS if ok else FAIL
    if not ok:
        report.reason = reason
    return report


# ---------------------------------------------------------------------------
# initial-data presets

def constant_state(grid: PeriodicGrid, u0: float, v0: float) -> StateField:
    """u = u0, v = v0.  Any sign of u0; the solver's admission control
    and the energy domain gate each enforce their own side."""
    return StateField(grid, np.full(grid.n, float(u0)), np.full(grid.n, float(v0)))


def simple_wave_state(law, grid: PeriodicGrid, u0: float, amplitude: float,
                      mode: int, v0: float = 0.0) -> StateField:
    """Strictly hyperbolic data with the second invariant exactly constant.

    u(x) = u0 + amplitude sin(2 pi mode x) (all values < 0) and
    v(x) = v0 - q(u(x)), so r2 = v + q(u) = v0 everywhere.
    The grid must resolve the mode, 0 < |mode| < n/2, and the amplitude
    must move u off u0: it is nonzero and does not round away.
    """
    if not 0 < abs(mode) < grid.n / 2:
        raise ValueError(f"mode = {mode} must satisfy 0 < |mode| < n/2 = "
                         f"{grid.n / 2:g}")
    x = grid.nodes
    u = u0 + amplitude * np.sin(2.0 * np.pi * mode * x)
    if np.ptp(u) == 0.0:
        raise ValueError(f"amplitude = {amplitude!r} leaves u constant at "
                         f"u0 = {u0!r}")
    if np.max(u) >= 0.0:
        raise ValueError("simple wave must stay strictly hyperbolic (u < 0)")
    v = v0 - q_of_u(law, u)
    return StateField(grid, u, v)


def random_trig_state(grid: PeriodicGrid, seed: int, modes: int,
                      amplitude: float, u0: float) -> StateField:
    """Band-limited random data, strictly hyperbolic by construction.

    Both fields are random trigonometric polynomials with wavenumbers
    1..modes, 1 <= modes < n/2, and amplitude > 0; the u perturbation is
    rescaled if needed so that max u <= -0.05.
    """
    if not 1 <= modes < grid.n / 2:
        raise ValueError(f"modes = {modes} must satisfy 1 <= modes < n/2 = "
                         f"{grid.n / 2:g}")
    if u0 >= -0.05:
        raise ValueError("u0 must be < -0.05")
    if not amplitude > 0.0:
        raise ValueError(f"amplitude must be > 0, got {amplitude!r}")
    rng = np.random.default_rng(seed)
    x = grid.nodes

    def poly():
        out = np.zeros(grid.n)
        for m in range(1, modes + 1):
            a, b = rng.standard_normal(2)
            out += a * np.sin(2 * np.pi * m * x) + b * np.cos(2 * np.pi * m * x)
        peak = np.max(np.abs(out))
        return out / peak if peak > 0 else out

    amp_u = min(amplitude, -0.05 - u0)
    u = u0 + amp_u * poly()
    v = amplitude * poly()
    return StateField(grid, u, v)


# ---------------------------------------------------------------------------
# oracles

def crossing_time_oracle(law, u0: float, amplitude: float,
                         mode: int) -> Optional[float]:
    """Crossing time for a simple wave started at t = 0, from the
    steepest point of lambda_1 on the initial data.

    With r2 constant, lambda_1 is transported by itself, so the first
    characteristic crossing is at -1/min_x d(lambda_1)/dx on the initial
    data.  On u = u0 + A sin(theta), theta = k x and k = 2 pi mode, that
    slope is s(theta) = -p''(u) / (2 sqrt(-p'(u))) A k cos(theta).  A
    scan of ``_SCAN_ANGLES`` angles brackets its minimum in the two cells
    around the smallest sample, and a golden-section search refines it
    there.  Returns None when no compression exists.  Raises DomainError
    unless u0 + |amplitude| < 0: d(lambda_1)/dx is unbounded at u = 0;
    and where lambda_1 or its slope overflows.
    """
    if not u0 + abs(amplitude) < 0.0:
        raise DomainError("the wave must stay strictly hyperbolic: "
                          f"u0 + |amplitude| = {u0 + abs(amplitude):g}")
    # lambda_1 grows with -u, so the wave's lowest u holds its largest value
    lam_max = math.sqrt(-law.dp(u0 - abs(amplitude)))
    if not math.isfinite(lam_max):
        raise DomainError("the characteristic speed overflows on the wave")
    k = 2.0 * math.pi * mode

    def slope(theta: float) -> float:
        u = u0 + amplitude * math.sin(theta)
        return (-law.ddp(u) / (2.0 * math.sqrt(-law.dp(u)))
                * amplitude * k * math.cos(theta))

    cell = 2.0 * math.pi / _SCAN_ANGLES
    scan = [slope(cell * j) for j in range(_SCAN_ANGLES)]
    j = min(range(_SCAN_ANGLES), key=scan.__getitem__)
    m = min(scan[j], _golden_section_minimum(slope, cell * (j - 1), cell * (j + 1)))
    # p'' can overflow where lambda_1 does not
    if not (all(map(math.isfinite, scan)) and math.isfinite(m)):
        raise DomainError("the characteristic speed's slope overflows on the wave")
    # flatter than this is no compression: t* would pass 1e9 / max(1, lambda_1)
    if m >= -1e-9 * max(1.0, lam_max):
        return None
    return -1.0 / m


#: angles the crossing-time oracle scans to bracket the steepest point
_SCAN_ANGLES = 64

#: golden-section steps: they shrink the bracket by 0.618**60 ~ 3e-13
_GOLDEN_STEPS = 60

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_minimum(f, a: float, b: float) -> float:
    """The smallest value of f that a golden-section search on [a, b]
    finds; f is taken to have one minimum there."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return min(fc, fd)


def simple_wave_exact(law, u0: float, amplitude: float, mode: int, t: float,
                      x) -> tuple:
    """(u, v) at time t and the points x of the simple wave that
    ``simple_wave_state`` starts (v0 = 0), for 0 <= t < t*.

    r2 = v + q(u) stays 0, so v = -q(u), and u is constant along the
    straight family-1 lines x = xi + lambda_1(u_init(xi)) t.  Before the
    crossing time t* (``crossing_time_oracle``) that map is increasing
    in xi, so each x has one foot xi, found by a vectorised Newton
    iteration kept inside the bracket x - t [max, min] lambda_1.  Raises
    DomainError as the oracle does, and ValueError for t outside [0, t*).
    """
    t_star = crossing_time_oracle(law, u0, amplitude, mode)
    if not (0.0 <= t and (t_star is None or t < t_star)):
        raise ValueError(f"t = {t!r} must lie in [0, t*) with t* = {t_star!r}")
    k = 2.0 * np.pi * mode
    x = np.asarray(x, dtype=float)
    ends = np.sqrt(-law.dp(np.array([u0 - abs(amplitude), u0 + abs(amplitude)])))
    lo, hi = x - t * float(ends.max()), x - t * float(ends.min())
    xi = x.copy()
    for _ in range(100):
        u = u0 + amplitude * np.sin(k * xi)
        lam = np.sqrt(-law.dp(u))
        f = xi + t * lam - x
        lo, hi = np.where(f < 0.0, xi, lo), np.where(f > 0.0, xi, hi)
        # d(lambda_1)/du = -p''(u) / (2 lambda_1)
        df = 1.0 - t * law.ddp(u) / (2.0 * lam) * amplitude * k * np.cos(k * xi)
        step = xi - f / df
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.max(np.abs(step - xi), initial=0.0) <= 1e-15
        xi = step
        if done:
            break
    u = u0 + amplitude * np.sin(k * xi)
    return u, -q_of_u(law, u)


# ---------------------------------------------------------------------------
# scenarios

def scenario_constant(law, u0: float, v0: float, t_max: float,
                      n: int = 256) -> ScenarioReport:
    """Constant hyperbolic data must evolve unchanged to t_max."""
    report = ScenarioReport("constant_rigidity", law.describe(), None,
                            thresholds={"max_deviation": 1e-10})
    grid = PeriodicGrid(n)
    state0 = constant_state(grid, u0, v0)
    traj = run(law, state0, 0.0, SolverConfig(t_max=t_max))
    _, final = traj.snapshots[-1]
    dev = max(float(np.max(np.abs(final.u - state0.u))),
              float(np.max(np.abs(final.v - state0.v))))
    report.metrics = {"t_final": traj.t_end, "deviation": dev,
                      "steps": float(traj.steps)}
    report.metrics["status_completed"] = 1.0 if traj.status is RunStatus.completed else 0.0
    ok = traj.status is RunStatus.completed and dev < report.thresholds["max_deviation"]
    return _judge(report, ok, f"status={traj.status.value}, deviation={dev:g}")


def scenario_simple_wave_blowup(law, u0: float, amplitude: float,
                                mode: int, n: int = 1024,
                                n_curve_seeds: int = 32, drift_seeds: int = 8,
                                spotcheck_seeds: int = 8) -> ScenarioReport:
    """Triangulate the blow-up time three independent ways.

    The solver's detection time and the minimum Riccati-predicted time
    over traced family-1 curves must each agree with the crossing time
    from the steepest point of lambda_1 (``crossing_time_oracle``)
    within ``relative_gap``, and the invariant drift up to the
    10x-gradient time must stay below ``drift_max``.  The run goes to
    twice the oracle time.  The dual-growth spot check on the same run
    must find no violation.
    """
    report = ScenarioReport("simple_wave_blowup", law.describe(), None,
                            thresholds={"relative_gap": 0.05,
                                        "drift_max": 1e-4,
                                        "drift_gradient_factor": 10.0})
    t_oracle = crossing_time_oracle(law, u0, amplitude, mode)
    if t_oracle is None:
        report.verdict = INCONCLUSIVE
        report.reason = ("no compression in the initial data (zero amplitude); "
                         "degenerates to the constant scenario by design")
        return report

    grid = PeriodicGrid(n)
    state0 = simple_wave_state(law, grid, u0, amplitude, mode)
    traj = run(law, state0, 0.0, SolverConfig(t_max=2.0 * t_oracle))
    report.metrics["t_oracle"] = t_oracle
    report.metrics["status_" + traj.status.value] = 1.0
    if traj.status not in TERMINATED:
        return _judge(report, False,
                      f"run ended {traj.status.value} without detection")
    t_detect = traj.t_detect

    # each (start, family) is traced once per direction: one forward batch
    # holds the family-1 prediction curves, both families from the drift
    # seeds and the spot check's forward curves, which share starts
    pred_keys = [(x0, Family.first)
                 for x0 in np.arange(n_curve_seeds) / n_curve_seeds]
    drift_keys = [(x0, fam) for fam in Family
                  for x0 in spotcheck_points(drift_seeds)]
    spot_x0 = spotcheck_points(spotcheck_seeds)
    spot_keys = [(x0, fam) for fam in Family for x0 in spot_x0]
    forward = trace_batch(traj, pred_keys + drift_keys + spot_keys)
    predictions = [t for t in (predict_blowup(forward[k]) for k in pred_keys)
                   if t is not None]
    if not predictions:
        return _judge(report, False, "no traced curve predicted blow-up")
    t_predicted = min(predictions)

    # invariant transport until the gradient grew by 10x
    t, _, _, ux, _, _ = traj.series.T
    th = report.thresholds
    grown = ux >= th["drift_gradient_factor"] * ux[0]
    t_10x = float(t[np.argmax(grown)]) if np.any(grown) else traj.t_end
    drift = max((invariant_drift(forward[k], t_10x) for k in drift_keys),
                default=0.0)

    backward = trace_batch(traj, spot_keys, Direction.backward)
    spot = spotcheck_report(spot_x0, {Direction.forward: forward,
                                      Direction.backward: backward})

    gap_do = abs(t_detect - t_oracle) / t_oracle
    gap_po = abs(t_predicted - t_oracle) / t_oracle
    gap_dp = abs(t_detect - t_predicted) / t_oracle
    report.metrics.update({
        "t_detect": t_detect, "t_predicted": t_predicted,
        "gap_detect_oracle": gap_do, "gap_predicted_oracle": gap_po,
        "gap_detect_predicted": gap_dp,
        "t_gradient_10x": t_10x, "invariant_drift_max": drift,
        "spotcheck_violations": float(len(spot.violations)),
    })
    ok = (max(gap_do, gap_po) < th["relative_gap"] and drift < th["drift_max"]
          and not spot.violations)
    return _judge(report, ok, f"time gaps: detect/oracle {gap_do:.3f}, "
                              f"predicted/oracle {gap_po:.3f}; "
                              f"invariant drift {drift:.3g}; "
                              f"dual-growth violations {len(spot.violations)}")


def scenario_random_hyperbolic_sweep(law, n_seeds: int, t_max: float,
                                     n: int = 512, amplitude: float = 0.25,
                                     u0: float = -1.0,
                                     spotcheck_seeds: int = 4) -> ScenarioReport:
    """No nonconstant strictly hyperbolic run may survive to t_max.

    Each seed draws ``random_trig_state`` data with 3 modes, and every
    run must end in blow_up_detected or resolution_lost; runs whose data
    is numerically constant (relative amplitude below 1e-12) are
    reported inconclusive rather than counted.  A run that
    reaches the interface (interface_reached) fails the scenario: it
    left the strictly hyperbolic setting the statement is about, and so
    does a dual-growth violation on any run's spot check.
    """
    report = ScenarioReport("random_hyperbolic_sweep", law.describe(), 0,
                            thresholds={"t_max": t_max,
                                        "min_relative_amplitude": 1e-12})
    grid = PeriodicGrid(n)
    statuses = {s.value: 0 for s in RunStatus}
    n_inconclusive = 0
    violations = 0
    worst_t = 0.0
    for seed in range(n_seeds):
        state0 = random_trig_state(grid, seed, 3, amplitude, u0)
        rel_amp = max(float(np.ptp(state0.u)), float(np.ptp(state0.v))) / \
            max(1.0, float(np.max(np.abs(state0.u))), float(np.max(np.abs(state0.v))))
        if rel_amp < report.thresholds["min_relative_amplitude"]:
            n_inconclusive += 1
            continue
        traj = run(law, state0, 0.0, SolverConfig(t_max=t_max))
        statuses[traj.status.value] += 1
        if traj.status in TERMINATED:
            worst_t = max(worst_t, traj.t_detect)
        if len(traj.snapshots) > 1:  # else it stopped with nothing to trace
            violations += len(dual_growth_spotcheck(traj, spotcheck_seeds).violations)

    n_terminated = statuses["blow_up_detected"] + statuses["resolution_lost"]
    report.metrics = {
        "n_seeds": float(n_seeds),
        "n_blow_up": float(statuses["blow_up_detected"]),
        "n_resolution_lost": float(statuses["resolution_lost"]),
        "n_completed": float(statuses["completed"]),
        "n_refused": float(statuses["admission_refused"]),
        "n_interface_reached": float(statuses["interface_reached"]),
        "n_inconclusive_data": float(n_inconclusive),
        "latest_detection": worst_t,
        "spotcheck_violations": float(violations),
    }
    if n_terminated == 0 and n_inconclusive == n_seeds:
        report.verdict = INCONCLUSIVE
        report.reason = "all seeds below the amplitude noise floor"
        return report
    ok = statuses["completed"] == 0 and statuses["admission_refused"] == 0 \
        and n_terminated + n_inconclusive == n_seeds and violations == 0
    return _judge(report, ok, f"statuses: {statuses}; "
                              f"dual-growth violations {violations}")


def scenario_ramp_residual(law) -> ScenarioReport:
    """Exact-solution residual check for (u, v) = (t, -x) at five times.

    The pair solves the system identically for every law, since u_x = 0
    (u_t + v_x = 1 - 1 = 0 and v_t - (p(u))_x = 0 - p'(u) * 0 = 0), but
    v is not periodic: v(x+1) - v(x) = -1.  So u-periodicity alone is
    strictly weaker than periodicity of the pair, and this solution is
    outside the rigidity class.  The residuals do not depend on x, and
    must vanish exactly in floating point.  The derivatives are central
    differences with step 2^-10 at x = 0.25, and the period shifts are
    taken there at t = 0: on these dyadic times and points every
    difference is exact.
    """
    report = ScenarioReport("ramp_residual", law.describe(), None,
                            thresholds={"residual": 0.0})
    h, x = 2.0 ** -10, 0.25

    def u(t, x):
        return t

    def v(t, x):
        return -x

    def d_t(f, t):
        return (f(t + h, x) - f(t - h, x)) / (2.0 * h)

    def d_x(f, t):
        return (f(t, x + h) - f(t, x - h)) / (2.0 * h)

    max_r1 = max_r2 = 0.0
    for t in np.linspace(-2.0, 3.0, 5):
        r1 = d_t(u, t) + d_x(v, t)
        r2 = d_t(v, t) - law.dp(t) * d_x(u, t)
        # np.maximum keeps a NaN residual, where max drops it
        max_r1 = float(np.maximum(max_r1, abs(r1)))
        max_r2 = float(np.maximum(max_r2, abs(r2)))
    v_shift = v(0.0, x + 1.0) - v(0.0, x)
    u_shift = u(0.0, x + 1.0) - u(0.0, x)
    report.metrics = {"max_residual_1": max_r1, "max_residual_2": max_r2,
                      "v_period_shift": v_shift, "u_period_shift": u_shift}
    ok = max(max_r1, max_r2) <= report.thresholds["residual"]
    return _judge(report, ok, f"residuals {max_r1:g}, {max_r2:g}")


RICCATI_PROFILES = {
    "constant": (lambda t: -1.0, 2.0),
    "ramp": (lambda t: -(1.0 + t), 2.0),
}


def scenario_riccati_crosscheck(law, profile: str = "constant") -> ScenarioReport:
    """Closed-form Riccati solution vs direct stiff ODE integration.

    Along a synthetic curve with a prescribed u(t), integrate
    beta' = -k(u(t)) beta^2 and compare with beta0 / (1 + beta0 K),
    K from adaptive quadrature, over a beta0 grid that includes 90% of
    the critical value.  Raises DomainError where k(u) on the profile is
    not finite under the law, as ``riccati_k`` does.
    """
    # imported here, not at module level, so that import psyslab loads numpy alone
    from scipy.integrate import quad, solve_ivp
    u_of_t, T = RICCATI_PROFILES[profile]
    report = ScenarioReport(f"riccati_crosscheck_{profile}", law.describe(),
                            None, thresholds={"relative_gap": 1e-6})
    K_total, _ = quad(lambda s: riccati_k(law, u_of_t(s)), 0.0, T,
                      epsabs=1e-13, epsrel=1e-13, limit=200)
    beta_crit = -1.0 / K_total
    betas = [-2.0, -0.5, 0.1, 0.9 * beta_crit]
    worst = 0.0
    for b0 in betas:
        closed = riccati_evolve(b0, K_total)
        sol = solve_ivp(lambda s, y: [-riccati_k(law, u_of_t(s)) * y[0] ** 2],
                        (0.0, T), [b0], method="Radau",
                        rtol=1e-10, atol=1e-12)
        ode_val = float(sol.y[0, -1])
        scale = max(abs(closed), abs(ode_val), 1e-300)
        worst = float(np.maximum(worst, abs(closed - ode_val) / scale))
    report.metrics = {"K_total": float(K_total), "beta_crit": beta_crit,
                      "worst_relative_gap": worst}
    return _judge(report, worst < report.thresholds["relative_gap"],
                  f"worst relative gap {worst:g}")


def random_elliptic_state(grid: PeriodicGrid, rng) -> StateField:
    """Random band-limited field with u in [0.1, ~3] for energy checks."""
    x = grid.nodes
    base = rng.uniform(0.5, 2.0)
    u = np.full(grid.n, base)
    v = np.zeros(grid.n)
    for m in range(1, 7):
        au, bu = 0.3 * rng.standard_normal(2) / m
        av, bv = 0.5 * rng.standard_normal(2) / m
        u += au * np.sin(2 * np.pi * m * x) + bu * np.cos(2 * np.pi * m * x)
        v += av * np.sin(2 * np.pi * m * x) + bv * np.cos(2 * np.pi * m * x)
    lo = float(np.min(u))
    if lo < 0.1:  # rescale the perturbation so min u = 0.1
        u = base + (u - base) * (base - 0.1) / (base - lo)
    return StateField(grid, u, v)


def scenario_energy_identity(law, n_fields: int, seed: int,
                             n: int = 256) -> ScenarioReport:
    """Integration-by-parts identity and concavity on random elliptic data.

    For the ``n_fields`` fields ``random_elliptic_state`` draws from ``seed``
    and both gauges: |ddot_direct - ddot_formula| < 1e-8 and ddot_formula
    <= 1e-10.  A field violating the u >= 0 domain gate fails the scenario.
    """
    report = ScenarioReport("energy_identity", law.describe(), seed,
                            thresholds={"identity_gap": 1e-8,
                                        "concavity": 1e-10})
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(seed)
    fields = [random_elliptic_state(grid, rng) for _ in range(n_fields)]
    worst_gap = 0.0
    worst_formula = -np.inf
    try:
        for state in fields:
            for gauge in ConcaveGauge:
                d_formula = energy_ddot_formula(law, state, gauge)
                d_direct = energy_ddot_direct(law, state, gauge)
                worst_gap = float(np.maximum(worst_gap,
                                             abs(d_direct - d_formula)))
                worst_formula = float(np.maximum(worst_formula, d_formula))
    except DomainError as exc:
        return _judge(report, False, f"domain gate: {exc}")
    report.metrics = {"n_fields": float(len(fields)),
                      "worst_identity_gap": worst_gap,
                      "worst_ddot_formula": worst_formula}
    ok = (worst_gap < report.thresholds["identity_gap"]
          and worst_formula <= report.thresholds["concavity"])
    return _judge(report, ok, f"worst identity gap {worst_gap:g}, worst "
                              f"ddot_formula {worst_formula:g}")


def default_suite(law: PressureLaw, n_sweep_seeds: int, sweep_t_max: float,
                  sweep_n: int, wave_n: int) -> list:
    """The standard scenario battery used by the command-line ``verify``.

    A scenario that raises ValueError (a run's up-front checks refuse
    its data under the law, or its run would take more than
    ``solver.MAX_STEPS`` steps, say) fails with the error as its reason,
    and so does one that raises ArithmeticError (an overflow on Python
    floats, say), with the error's type named; the others still run.
    Each runs with warnings ignored."""
    suite = {
        "constant_rigidity": lambda: scenario_constant(law, -1.0, 0.0, 10.0),
        "simple_wave_blowup": lambda: scenario_simple_wave_blowup(
            law, -1.0, 0.3, 1, n=wave_n, n_curve_seeds=16, drift_seeds=4,
            spotcheck_seeds=4),
        "random_hyperbolic_sweep": lambda: scenario_random_hyperbolic_sweep(
            law, n_sweep_seeds, sweep_t_max, n=sweep_n, spotcheck_seeds=2),
        "ramp_residual": lambda: scenario_ramp_residual(law),
        "riccati_crosscheck_constant":
            lambda: scenario_riccati_crosscheck(law, "constant"),
        "riccati_crosscheck_ramp":
            lambda: scenario_riccati_crosscheck(law, "ramp"),
        "energy_identity": lambda: scenario_energy_identity(law, 20, 42),
    }
    reports = []
    for scenario_id, scenario in suite.items():
        try:
            # a failed scenario's reason says what failed; numpy's and
            # scipy's warnings on the way name only their internals
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reports.append(scenario())
        except (ValueError, ArithmeticError) as exc:
            reason = (str(exc) if isinstance(exc, ValueError)
                      else f"{type(exc).__name__}: {exc}")
            reports.append(ScenarioReport(scenario_id, law.describe(), None,
                                          verdict=FAIL, reason=reason))
    return reports
