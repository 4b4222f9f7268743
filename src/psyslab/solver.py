"""Method-of-lines time integration of u_t = -v_x, v_t = (p(u))_x.

Space is discretized spectrally on the periodic grid; time stepping is
classical RK4 with a CFL step recomputed from the current maximum
characteristic speed.  ``run`` carries the state between steps as its
rfft coefficients (u^, v^): in each RK stage -i k v^ costs no transform
and i k rfft(p(irfft(u^))) costs two.  The exponential high-mode filter
sigma(m) = exp(-36 (m/m_max)^36) is then a multiply of the coefficients
after each step: it is near-identity on resolved modes and suppresses
aliasing from the quadratic nonlinearity.  One stacked inverse transform
per step gives the samples u, v, u_x, v_x whose maxima the monitor
reads; the same maxima show a non-finite step, and the extremes of u
set the next CFL step.  Snapshots are built only when stored.

Evolution is only admitted for strictly hyperbolic data; the
initial-value problem is ill-posed in the elliptic region, so elliptic
or near-interface data is refused up front rather than integrated into
garbage, and a run whose solution reaches the interface mid-run stops
there.  Runs end in one of five recorded statuses:

* ``completed``: t_max reached;
* ``admission_refused``: the initial data is not strictly hyperbolic;
* ``interface_reached``: a step took max u above -hyperbolicity_eps;
* ``blow_up_detected``: max|u_x| passed its threshold, or a step
  produced non-finite values;
* ``resolution_lost``: the spectral tail passed its threshold.

Gradient blow-up, resolution loss and reaching the interface are
results, not exceptions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import NonFiniteState
from .field import (PeriodicGrid, SpaceTimeField, StateField,
                    _derivative_multipliers, _tail_ratio)


class RunStatus(str, enum.Enum):
    completed = "completed"
    blow_up_detected = "blow_up_detected"
    admission_refused = "admission_refused"
    resolution_lost = "resolution_lost"
    interface_reached = "interface_reached"


@dataclass
class SolverConfig:
    """Thresholds and step control for a run.

    ``tail_ratio_max`` is calibrated to the filter: once the energy
    fraction in the top third of modes exceeds 1e-4, the steepening
    front has reached the grid scale and the smooth solution is over.
    On the quadratic wave u = -1 + 0.3 sin 2 pi x, ``t_detect`` misses
    the analytic t* by -0.56% at n=256, +1.27% at 512, +2.25% at 1024,
    +3.44% at 2048 and +6.64% at 4096 (past the 5% gate).  Larger
    values delay or miss detection: the filter caps the tail's growth.
    """

    t_max: float
    cfl_safety: float = 0.4
    grad_blowup_factor: float = 1e4
    tail_ratio_max: float = 1e-4
    hyperbolicity_eps: float = 1e-3
    snapshot_stride: int = 5

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not math.isfinite(self.t_max):
            raise ValueError("t_max must be finite")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must be in (0, 1]")
        for name in ("grad_blowup_factor", "tail_ratio_max", "hyperbolicity_eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        stride = self.snapshot_stride
        if (isinstance(stride, bool) or not isinstance(stride, (int, np.integer))
                or stride < 1):
            raise ValueError("snapshot_stride must be an integer >= 1")


#: the most steps a run may ask for, estimated as t_max - t0 over its
#: first CFL step: 10x the steps of the largest grid's default run
#: (n = 4096, t_max = 10: 102,400 steps)
MAX_STEPS = 2**20

#: the columns of ``Trajectory.series``: t and its ``_state_metrics``
SERIES_COLUMNS = ("t", "max_u", "min_u", "max_abs_ux", "max_abs_vx",
                  "tail_ratio")
_SERIES_ROWS = 64  # rows of a run's series before its first doubling


@dataclass
class Trajectory:
    """Time-ordered snapshots plus per-step series and termination status.

    ``config`` is the SolverConfig the run used; its hyperbolicity_eps is
    also where a traced curve counts as reaching the interface.  A run
    whose snapshots went to an ``on_snapshot`` consumer keeps none; only
    ``t_end`` and ``field`` need kept snapshots.
    """

    law: object
    snapshots: list  # [(t, StateField)], times strictly increasing
    status: RunStatus
    t_detect: Optional[float]
    series: np.ndarray  # (steps + 1, 6): SERIES_COLUMNS at t0 and each step
    config: SolverConfig

    @property
    def steps(self) -> int:
        return len(self.series) - 1

    @property
    def t0(self) -> float:
        return float(self.series[0, 0])

    @property
    def t_end(self) -> float:
        return self.snapshots[-1][0]

    @cached_property
    def field(self) -> SpaceTimeField:
        """The snapshots' space-time evaluator, built on first read and
        kept; raises WindowTooShort with fewer than 2 distinct times.  It
        builds a snapshot's coefficient rows when a tracer first needs
        them and keeps only a few, so it adds O(n) memory to the run."""
        return SpaceTimeField(self.snapshots, self.law)


def _rhs_coefficients(law, n: int, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """rfft rows of (du/dt, dv/dt) = (-v_x, (p(u))_x), given the rfft rows
    c = (u^, v^) and the samples u of u^: one forward transform."""
    ik = _derivative_multipliers(n)
    k = np.empty_like(c)
    k[0] = -ik * c[1]
    k[1] = ik * np.fft.rfft(law.p(u))
    return k


def cfl_dt(law, grid: PeriodicGrid, u: np.ndarray, cfl_safety: float) -> float:
    """CFL step: cfl_safety * dx / max_j |characteristic speed| at the
    samples u.

    The speed magnitude is |p'(u)|^(1/2).  Degenerate states with maximum
    speed below 1e-12 fall back to cfl_safety * dx.
    """
    speed = float(np.sqrt(np.max(np.abs(law.dp(u)))))
    if speed < 1e-12:
        return cfl_safety * grid.dx
    return cfl_safety * grid.dx / speed


@lru_cache(maxsize=8)
def _filter_multipliers(n: int) -> np.ndarray:
    m = np.arange(n // 2 + 1)
    m_max = n // 2
    return np.exp(-36.0 * (m / m_max) ** 36)


def _rows(n: int, c: np.ndarray) -> np.ndarray:
    """Samples (u, v, u_x, v_x) of the rfft rows c = (u^, v^), from one
    stacked inverse transform."""
    return np.fft.irfft(np.concatenate((c, c * _derivative_multipliers(n))), n)


def _spectral(state: StateField):
    """(c, rows) of a state: its rfft rows (u^, v^) and the samples
    (u, v, u_x, v_x), with u and v exactly the state's."""
    c = np.fft.rfft(np.stack((state.u, state.v)))
    rows = _rows(state.grid.n, c)
    rows[0], rows[1] = state.u, state.v
    return c, rows


def _advance(law, n: int, c: np.ndarray, u: np.ndarray, dt: float):
    """One classical RK4 step of the rfft rows c = (u^, v^), whose u
    samples are u, followed by the exponential filter, a multiply.

    Returns (c, rows) of the new state (see ``_rows``): 8 FFT calls, 11
    transformed rows.
    """
    k1 = _rhs_coefficients(law, n, c, u)
    c2 = c + 0.5 * dt * k1
    k2 = _rhs_coefficients(law, n, c2, np.fft.irfft(c2[0], n))
    c3 = c + 0.5 * dt * k2
    k3 = _rhs_coefficients(law, n, c3, np.fft.irfft(c3[0], n))
    c4 = c + dt * k3
    k4 = _rhs_coefficients(law, n, c4, np.fft.irfft(c4[0], n))
    cn = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    cn *= _filter_multipliers(n)
    return cn, _rows(n, cn)


def step_rk4(law, state: StateField, dt: float) -> StateField:
    """One classical RK4 step followed by the exponential filter.

    The filter is identity on mode 0, so constant states are exact
    fixed points.  Negative dt is accepted (time-reversed stepping for
    self-consistency checks).  Raises NonFiniteState when the step
    produces a non-finite sample.
    """
    c, rows = _spectral(state)
    _, rows = _advance(law, state.grid.n, c, rows[0], dt)
    if not np.isfinite(rows).all():
        raise NonFiniteState("time step produced non-finite entries")
    return StateField(state.grid, *rows[:2])


def _state_metrics(c: np.ndarray, rows: np.ndarray) -> tuple:
    """(max_u, min_u, max|u_x|, max|v_x|, tail_ratio of combined spectrum)
    of a state given as its rfft rows c = (u^, v^) and samples
    (u, v, u_x, v_x).

    Raises NonFiniteState when a sample is not finite: NaN and +-inf
    carry into these extremes, so no separate pass looks for them.
    """
    max_u, min_u = float(rows[0].max()), float(rows[0].min())
    max_v, max_ux, max_vx = np.abs(rows[1:]).max(axis=1).tolist()
    if not all(map(math.isfinite, (max_u, min_u, max_v, max_ux, max_vx))):
        raise NonFiniteState("time step produced non-finite entries")
    return (max_u, min_u, max_ux, max_vx,
            _tail_ratio(c, (max(max_u, -min_u), max_v)))


def _monitor_from_metrics(metrics: tuple, initial_scale: float,
                          config: SolverConfig) -> Optional[RunStatus]:
    """The status a run ends in after a step with these ``_state_metrics``,
    or None when it goes on.

    Fires ``interface_reached`` when max u rises above
    -hyperbolicity_eps (the test admission applies to the initial data),
    ``blow_up_detected`` when max|u_x| exceeds grad_blowup_factor times
    the initial gradient scale, and ``resolution_lost`` when the combined
    (u, v) spectral tail ratio exceeds tail_ratio_max.
    """
    max_u, _, max_ux, _, tail = metrics
    if max_u > -config.hyperbolicity_eps:
        return RunStatus.interface_reached
    if max_ux > config.grad_blowup_factor * initial_scale:
        return RunStatus.blow_up_detected
    if tail > config.tail_ratio_max:
        return RunStatus.resolution_lost
    return None


def time_resolution(t0: float, t_max: float) -> float:
    """t_slack = 1e-12 * max(1, |t0|, |t_max|), at least 4500 float
    spacings of the larger end, for a run from t0 to t_max; raises
    ValueError unless t0 is finite and t_max - t0 exceeds it."""
    # written so that NaN fails both checks
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    t_slack = 1e-12 * max(1.0, abs(t0), abs(t_max))
    if not t_max - t0 > t_slack:
        raise ValueError(f"t_max - t0 = {t_max - t0:g} must exceed "
                         f"the time resolution {t_slack:g}")
    return t_slack


def start(law, state0: StateField, t0: float, config: SolverConfig):
    """A run's up-front checks: (c, rows, m0, dt0) of (t0, state0), its
    rfft rows and samples (``_spectral``), ``_state_metrics`` and first
    CFL step, None for data admission refuses.  Two FFT calls.

    Raises ValueError unless t0 is finite and t_max - t0 and, for
    admitted data, the first CFL step exceed ``time_resolution(t0,
    t_max)`` (a shorter step would round away in ``t + dt`` or carry a
    timing error above ~1e-4 of itself), when t_max - t0 is more than
    ``MAX_STEPS`` first CFL steps, or when the state's spectrum or
    monitor readings overflow the float range."""
    t_slack = time_resolution(t0, config.t_max)
    try:
        with np.errstate(over="raise", invalid="raise"):
            c, rows = _spectral(state0)
            m0 = _state_metrics(c, rows)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"the initial state overflows the monitor: {exc}") from None
    if m0[0] > -config.hyperbolicity_eps:
        return c, rows, m0, None
    # p' is increasing, so max_j |p'(u_j)| is reached at max u or min u:
    # the CFL step reads the state's two extremes of u, not its samples
    with np.errstate(over="ignore"):  # an infinite speed gives dt0 = 0
        dt0 = cfl_dt(law, state0.grid, np.array(m0[:2]), config.cfl_safety)
    if not dt0 > t_slack:
        raise ValueError(f"the first CFL step {dt0:g} does not exceed the "
                         f"time resolution {t_slack:g} at t0 = {t0:g}")
    if config.t_max - t0 > MAX_STEPS * dt0:
        raise ValueError(f"t_max - t0 = {config.t_max - t0:g} is more "
                         f"than MAX_STEPS = {MAX_STEPS} first CFL "
                         f"steps of {dt0:g}")
    return c, rows, m0, dt0


def run(law, state0: StateField, t0: float, config: SolverConfig,
        on_snapshot=None) -> Trajectory:
    """Integrate from (t0, state0) until t_max or a monitor fires.

    Data that is not strictly hyperbolic (max u > -hyperbolicity_eps) is
    refused with status ``admission_refused``.  After each step the
    monitor may end the run (see ``_monitor_from_metrics``); the state
    that fired it is stored as the last snapshot, except on
    ``interface_reached``, whose state lies outside the regime the run
    covers.  Its series record is kept either way.

    A step that produces non-finite values (possible only after the
    smooth solution has already degenerated) is recorded as
    ``blow_up_detected`` at that time.  The run stops once t is within
    ``time_resolution(t0, t_max)`` of t_max.  ``start`` makes the
    up-front checks, and raises their ValueError.

    ``on_snapshot(t, state)``, when given, is called with each snapshot
    as it is stored, in order, and is its one consumer: the trajectory
    keeps none.  The initial snapshot is passed only once the up-front
    checks have passed: a run that raises ValueError has passed nothing,
    and an ``admission_refused`` run passes its one snapshot.
    """
    c, rows, m0, dt0 = start(law, state0, t0, config)
    t_slack = time_resolution(t0, config.t_max)
    grid = state0.grid
    n = grid.n
    # doubled when full and trimmed at the end, in place: it has no views
    series = np.empty((_SERIES_ROWS, len(SERIES_COLUMNS)))
    series[0] = t0, *m0
    snapshots = []
    store = on_snapshot or (lambda t, state: snapshots.append((t, state)))
    store(t0, state0)
    if dt0 is None:
        series.resize((1, len(SERIES_COLUMNS)), refcheck=False)
        return Trajectory(law, snapshots, RunStatus.admission_refused,
                          None, series, config)

    initial_scale = max(1.0, m0[2])
    t = t0
    steps = 0
    status = RunStatus.completed
    t_detect = None
    m = m0

    # stop within roundoff of t_max: a ~1e-13 trailing step would create
    # a degenerate snapshot spacing that poisons temporal interpolation
    while config.t_max - t > t_slack:
        dt = min(cfl_dt(law, grid, np.array(m[:2]), config.cfl_safety),
                 config.t_max - t)
        c, rows = _advance(law, n, c, rows[0], dt)
        try:
            m = _state_metrics(c, rows)
        except NonFiniteState:
            status = RunStatus.blow_up_detected
            t_detect = t + dt
            break
        t += dt
        steps += 1
        if steps == len(series):
            series.resize((2 * steps, len(SERIES_COLUMNS)), refcheck=False)
        series[steps] = t, *m
        fired = _monitor_from_metrics(m, initial_scale, config)
        if fired is not None:
            status = fired
            t_detect = t
            if fired is not RunStatus.interface_reached:
                store(t, StateField(grid, *rows[:2]))
            break
        if steps % config.snapshot_stride == 0:
            store(t, StateField(grid, *rows[:2]))

    if status is RunStatus.completed and steps % config.snapshot_stride:
        store(t, StateField(grid, *rows[:2]))
    series.resize((steps + 1, len(SERIES_COLUMNS)), refcheck=False)
    return Trajectory(law, snapshots, status, t_detect, series, config)
