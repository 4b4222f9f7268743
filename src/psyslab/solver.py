"""Method-of-lines time integration of u_t = -v_x, v_t = (p(u))_x.

Space is discretized spectrally on the periodic grid; time stepping is
Lawson's integrating-factor RK4 with a CFL step recomputed from the
current maximum characteristic speed.  The right-hand side is split at
the mean state u_bar, which a run never changes: the linear wave
u^_t = -i k v^, v^_t = -i k c_bar^2 u^ (c_bar^2 = -p'(u_bar)) is solved
exactly, a rotation of each mode that costs no transform, and RK4
integrates the rest, N = (0, i k rfft(p(u) - p'(u_bar) u)), in the
rotating frame.  So the step is no longer limited by RK4's damping of
the resolved waves, and ``CFL_SAFETY`` is 0.8.  ``run``
carries the state between steps as its rfft coefficients (u^, v^).  N
reads only a stage's u^ row, so stages 1 and 3 need no slope and
stages 2 and 4 only n1 and n3: the step evaluates N on two stacked
pairs of stages, each one irfft of the pair's u^ rows and one rfft of
its p(u) rows, less the first stage's irfft, whose samples the step is
given.  The exponential high-mode filter sigma(m) = exp(-36
(m/m_max)^36) is then a multiply of the coefficients after each step:
it is near-identity on resolved modes and suppresses aliasing from the
quadratic nonlinearity.
One stacked inverse transform per step gives the samples u, v, u_x,
v_x whose maxima the monitor reads; the same maxima show a non-finite
step, and the extremes of u set the next CFL step.  Snapshots are built
only when stored.  Each run builds one workspace that every stage,
transform and monitor product writes into, the new rfft rows included,
so a step allocates only the samples it returns.

Evolution is only admitted for strictly hyperbolic data; the
initial-value problem is ill-posed in the elliptic region, so elliptic
or near-interface data is refused up front rather than integrated into
garbage, and a run whose solution reaches the interface mid-run stops
there.  Runs end in one of five recorded statuses:

* ``completed``: t_max reached;
* ``admission_refused``: the initial data is not strictly hyperbolic;
* ``interface_reached``: a step took max u above -HYPERBOLICITY_EPS;
* ``blow_up_detected``: max|u_x| passed GRAD_BLOWUP_FACTOR times its
  initial scale, or a step produced non-finite values;
* ``resolution_lost``: the spectral tail passed TAIL_RATIO_MAX (a tail
  at the level of FFT roundoff, set by NOISE_FLOOR, reads 0).

Gradient blow-up, resolution loss and reaching the interface are
results, not exceptions.  The step control and these thresholds are
the module's constants, which every reader looks up here at call time.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteState
from .field import (PeriodicGrid, StateField, _derivative_multipliers,
                    _parseval_weights)


class RunStatus(str, enum.Enum):
    completed = "completed"
    blow_up_detected = "blow_up_detected"
    admission_refused = "admission_refused"
    resolution_lost = "resolution_lost"
    interface_reached = "interface_reached"


#: the CFL step's fraction of dx over the largest characteristic speed.
#: At most 1: the simple wave runs stably to its stop at 1.0 at every n
#: up to 4096, and at 1.2 it went unstable at n = 4096.  Against 0.4 the
#: stop moves by 0.07% of t* at n = 512, by none at 256 and 1024, and by
#: at most 0.12% on 20 random seeds
CFL_SAFETY = 0.8

#: max|u_x| past this multiple of its initial scale is blow_up_detected
GRAD_BLOWUP_FACTOR = 1e4

#: the combined (u, v) spectral tail ratio past which a run ends
#: resolution_lost, calibrated to the filter: once the energy fraction in
#: the top third of modes exceeds 1e-4, the steepening front has reached
#: the grid scale and the smooth solution is over.  On the quadratic wave
#: u = -1 + 0.3 sin 2 pi x, ``t_detect`` misses the analytic t* by -0.69%
#: at n=256, +1.27% at 512, +2.19% at 1024, +3.49% at 2048 and +6.82% at
#: 4096 (past the 5% gate).  Larger values delay or miss detection: the
#: filter caps the tail's growth
TAIL_RATIO_MAX = 1e-4

#: non-mean spectral energy below (NOISE_FLOOR * n * scale)^2 is treated
#: as FFT roundoff; tail ratios of such fields are reported as 0
NOISE_FLOOR = 1e-13

#: the one interface threshold: admission refuses, the monitor stops and
#: the tracer ends a curve where max u, or a curve's u, rises above
#: -HYPERBOLICITY_EPS
HYPERBOLICITY_EPS = 1e-3

#: a run stores the state of every SNAPSHOT_STRIDE-th step
SNAPSHOT_STRIDE = 5


@dataclass
class SolverConfig:
    """A run's end time; its step control and stop thresholds are the
    module's constants."""

    t_max: float

    def __post_init__(self):
        if not math.isfinite(self.t_max):
            raise ValueError("t_max must be finite")


#: the most steps a run may ask for, estimated as t_max - t0 over its
#: first CFL step: about 20x the steps of the largest grid's default run
#: (n = 4096, t_max = 10: 51,200 steps)
MAX_STEPS = 2**20

#: the columns of ``Trajectory.series``: t and its ``_state_metrics``
SERIES_COLUMNS = ("t", "max_u", "min_u", "max_abs_ux", "max_abs_vx",
                  "tail_ratio")


@dataclass
class Trajectory:
    """Time-ordered snapshots plus per-step series and termination status.

    A run whose snapshots went to an ``on_snapshot`` consumer keeps none;
    only ``t_end`` and the tracer need kept snapshots.
    """

    law: object
    snapshots: list  # [(t, StateField)], times strictly increasing
    status: RunStatus
    t_detect: Optional[float]
    series: np.ndarray  # (steps + 1, 6): SERIES_COLUMNS at t0 and each step

    @property
    def steps(self) -> int:
        return len(self.series) - 1

    @property
    def t0(self) -> float:
        return float(self.series[0, 0])

    @property
    def t_end(self) -> float:
        return self.snapshots[-1][0]


def _nonlinear(law, ws: _Workspace, u_hat: np.ndarray, u: np.ndarray,
               out: np.ndarray) -> None:
    """Write into the (2, m) ``out`` the v^ rows of the nonlinear part
    N = (0, ik F[p(u) - p'(u_bar) u]) of the right-hand side at two
    stages, given their stacked u^ rows and u samples: one forward
    transform of the two rows p(u), into the workspace's p^.  The linear
    part, p'(u_bar) ik u^ = -c_bar^2 ik u^, is taken off in coefficient
    space, so it costs no transform."""
    np.fft.rfft(law.p(u), out=ws.p_hat)
    np.multiply(ws.c2, u_hat, out=out)
    np.add(ws.p_hat, out, out=out)
    np.multiply(ws.ik, out, out=out)


def cfl_dt(law, grid: PeriodicGrid, max_u: float, min_u: float) -> float:
    """CFL step: CFL_SAFETY * dx / max |characteristic speed| over a
    state whose samples of u lie in [min_u, max_u].

    The speed magnitude is |p'(u)|^(1/2), and p' is increasing, so its
    largest magnitude is at max_u or min_u.  Degenerate states with
    maximum speed below 1e-12 fall back to CFL_SAFETY * dx; an infinite
    speed gives 0.
    """
    speed = math.sqrt(max(abs(law.dp(max_u)), abs(law.dp(min_u))))
    if speed < 1e-12:
        return CFL_SAFETY * grid.dx
    return CFL_SAFETY * grid.dx / speed


class _Workspace:
    """What one run's steps write into at grid size n, with m = n/2 + 1
    modes: the nonlinear slopes as two (2, m) pairs (n1, n3) and (n2, n4)
    (v^ rows only: N has no u^ row), the states a = E c and b = E (0, n1),
    a scratch state, and the two stacked stages N reads: their u^ rows,
    u samples and p^; the new state's stacked rows (see ``_rows``) and the
    monitor's energies; and ik, the filter sigma, computed for each run,
    and the integrating factor.

    The integrating factor linearises at u_bar, the mean of the u samples
    of the rfft rows ``c`` it is built from: mode 0 never changes in a
    run, so u_bar holds for all of it, and c_bar^2 = -p'(u_bar).  E, the
    exact flow of the linear part over half a step, is a rotation of each
    mode's (u^, v^) by theta = k c_bar h / 2: u^ <- cos u^ - i sin/c_bar
    v^, v^ <- -i c_bar sin u^ + cos v^, identity on mode 0 and on the
    Nyquist mode (k = 0 there).  ``flow`` holds its entries (cos, -i
    sin/c_bar, -i c_bar sin) with other parts +0.0, so a product with cos
    keeps a real cos's bits; ``half_step`` sets them for a step h.  Each
    ``run`` and ``step_rk4`` builds its own.  Raises ValueError unless
    c_bar^2 > 0: an elliptic mean state's integrating factor is no rotation."""

    __slots__ = ("n", "slopes", "a", "b", "scratch", "u_hat", "u", "p_hat",
                 "stacked", "energy", "ik", "sigma", "c2", "c_bar", "flow")

    def __init__(self, law, c: np.ndarray):
        m = c.shape[-1]
        n = 2 * (m - 1)
        c2 = -float(law.dp(float(c[0, 0].real) / n))
        if not 0.0 < c2 < math.inf:
            raise ValueError(f"-p'(mean u) = {c2!r} must be positive and "
                             "finite for the integrating factor")
        self.n, self.c2, self.c_bar = n, c2, math.sqrt(c2)
        self.slopes = np.empty((2, 2, m), dtype=complex)
        self.a, self.b, self.scratch, self.u_hat, self.p_hat = \
            np.empty((5, 2, m), dtype=complex)
        self.u = np.empty((2, n))
        self.stacked = np.empty((4, m), dtype=complex)
        self.energy = np.empty((2, m))
        self.ik = _derivative_multipliers(n)
        self.sigma = np.exp(-36.0 * (np.arange(m) / (n // 2)) ** 36)
        self.flow = np.zeros((3, m), dtype=complex)

    def half_step(self, h: float) -> None:
        """Set E to the linear flow over h / 2: cos theta, and sin theta
        scaled into -i sin/c_bar and -i c_bar sin, in place in ``flow``."""
        cos, sin = self.flow[0].real, self.flow[1].imag
        theta = np.multiply(self.ik.imag, 0.5 * h * self.c_bar, out=cos)
        np.sin(theta, out=sin)
        np.cos(theta, out=cos)
        np.multiply(sin, -self.c_bar, out=self.flow[2].imag)
        np.multiply(sin, -1.0 / self.c_bar, out=sin)

    def rotate(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = E x for a (2, m) state x; out may be x, and is not the
        scratch state."""
        np.multiply(self.flow[1:], x[::-1], out=self.scratch)
        np.multiply(self.flow[0], x, out=out)
        return np.add(out, self.scratch, out=out)


def _rows(n: int, stacked: np.ndarray) -> np.ndarray:
    """Samples (u, v, u_x, v_x) of the rfft rows (u^, v^) held in the first
    two rows of the (4, m) ``stacked``, from one inverse transform once it
    writes ik u^, ik v^ into the other two; the samples are a new array."""
    np.multiply(stacked[:2], _derivative_multipliers(n), out=stacked[2:])
    return np.fft.irfft(stacked, n)


def _spectral(state: StateField):
    """(c, rows) of a state: its rfft rows (u^, v^), stacked for ``_rows``,
    and the samples (u, v, u_x, v_x), u and v exactly the state's."""
    stacked = np.empty((4, state.grid.n // 2 + 1), dtype=complex)
    np.fft.rfft(np.stack((state.u, state.v)), out=stacked[:2])
    rows = _rows(state.grid.n, stacked)
    rows[0], rows[1] = state.u, state.v
    return stacked[:2], rows


def _advance(law, ws: _Workspace, c: np.ndarray, u: np.ndarray, dt: float):
    """One integrating-factor RK4 step (Lawson's) of the rfft rows c =
    (u^, v^), whose u samples are u, followed by the exponential filter,
    a multiply.

    The linear wave at the mean state is carried exactly by E, the
    workspace's half-step rotation, and classical RK4 integrates the
    nonlinear part N in the rotating frame: with h = dt,
    n1 = N(c), n2 = N(E(c + h/2 n1)), n3 = N(Ec + h/2 n2),
    n4 = N(E^2 c + h E n3) and
    c+ = E^2 c + h/6 (E^2 n1 + 2 E (n2 + n3) + n4), evaluated as
    E(Ec + h/6 (E n1 + 2 (n2 + n3))) + h/6 n4: four rotations by E and
    none by E^2.  N is 0 on mode 0, and E the identity there, so mode 0
    of c keeps its bits.

    N has no u^ row and reads only a stage's u^ row, so n3 = N(Ec) does
    not depend on n2: n1 and n3 come from one stacked transform pair, as
    do n2 (which needs only n1) and n4 (only n3).  Each transformed row
    gets the float operations a 1-row transform would give it.

    Returns (c, rows) of the new state (see ``_rows``): 5 FFT calls, 11
    transformed rows.  Every stage, transform and sum writes into the
    workspace ``ws``, c into its stacked rows (the next step reads it
    before it writes them), so the step allocates only the samples it
    returns (and what ``law.p`` returns, twice).
    """
    n, a, b, u_hat, scratch = ws.n, ws.a, ws.b, ws.u_hat, ws.scratch
    (n1, n3), (n2, n4) = ws.slopes
    ws.half_step(dt)
    ws.rotate(c, a)
    u_hat[0], u_hat[1] = c[0], a[0]
    ws.u[0] = u
    np.fft.irfft(a[0], n, out=ws.u[1])
    _nonlinear(law, ws, u_hat, ws.u, ws.slopes[0])
    np.multiply(ws.flow[1::-1], n1, out=b)
    # the u^ rows of E(c + h/2 n1) = Ec + h/2 b and of E(Ec + h (0, n3))
    np.add(a[0], np.multiply(0.5 * dt, b[0], out=u_hat[0]), out=u_hat[0])
    np.add(a[1], np.multiply(dt, n3, out=scratch[0]), out=scratch[0])
    np.multiply(ws.flow[1], scratch[0], out=scratch[0])
    np.add(np.multiply(ws.flow[0], a[0], out=u_hat[1]), scratch[0], out=u_hat[1])
    _nonlinear(law, ws, u_hat, np.fft.irfft(u_hat, n, out=ws.u), ws.slopes[1])
    np.add(n2, n3, out=n2)
    np.add(b[1], np.multiply(2.0, n2, out=n2), out=b[1])
    np.add(a, np.multiply(dt / 6.0, b, out=b), out=b)
    cn = ws.rotate(b, ws.stacked[:2])
    np.add(cn[1], np.multiply(dt / 6.0, n4, out=n4), out=cn[1])
    cn *= ws.sigma
    return cn, _rows(n, ws.stacked)


def step_rk4(law, state: StateField, dt: float) -> StateField:
    """One integrating-factor RK4 step (Lawson's; see ``_advance``),
    linearised at the state's mean, followed by the exponential filter.

    The filter is identity on mode 0, so constant states are exact
    fixed points.  Negative dt is accepted (time-reversed stepping for
    self-consistency checks).  Raises NonFiniteState when the step
    produces a non-finite sample, and ValueError when the mean state is
    not strictly hyperbolic (-p'(mean u) <= 0).
    """
    c, rows = _spectral(state)
    _, rows = _advance(law, _Workspace(law, c), c, rows[0], dt)
    if not np.isfinite(rows).all():
        raise NonFiniteState("time step produced non-finite entries")
    return StateField(state.grid, *rows[:2])


def _state_metrics(c: np.ndarray, rows: np.ndarray, energy=None) -> tuple:
    """(max_u, min_u, max|u_x|, max|v_x|, tail_ratio) of a state given as
    its rfft rows c = (u^, v^) and samples (u, v, u_x, v_x).

    The tail ratio is the energy fraction in the top third of the
    non-mean modes of both rows (Parseval weights; the energies go into
    ``energy``, a (2, m) float array, when given).  It reads 0 when the
    non-mean energy is at the FFT-roundoff level NOISE_FLOOR sets for
    fields whose largest |sample| are max|u| and max|v|.

    Raises NonFiniteState when a sample is not finite: NaN and +-inf
    carry into these extremes, so no separate pass looks for them.
    """
    max_u, min_u = float(rows[0].max()), float(rows[0].min())
    max_v, max_ux, max_vx = np.abs(rows[1:]).max(axis=1).tolist()
    if not all(map(math.isfinite, (max_u, min_u, max_v, max_ux, max_vx))):
        raise NonFiniteState("time step produced non-finite entries")
    n = 2 * (c.shape[-1] - 1)
    e = np.abs(c, out=energy)
    np.multiply(_parseval_weights(n), np.square(e, out=e), out=e)
    total = float(e[:, 1:].sum(axis=1).sum())
    tail = float(e[:, n // 3 + 1:].sum(axis=1).sum())
    floor = sum((NOISE_FLOOR * n * max(1.0, scale)) ** 2
                for scale in (max(max_u, -min_u), max_v))
    return (max_u, min_u, max_ux, max_vx,
            tail / total if total > floor else 0.0)


def _monitor_from_metrics(metrics: tuple,
                          initial_scale: float) -> Optional[RunStatus]:
    """The status a run ends in after a step with these ``_state_metrics``,
    or None when it goes on.

    Fires ``interface_reached`` when max u rises above
    -HYPERBOLICITY_EPS (the test admission applies to the initial data),
    ``blow_up_detected`` when max|u_x| exceeds GRAD_BLOWUP_FACTOR times
    the initial gradient scale, and ``resolution_lost`` when the combined
    (u, v) spectral tail ratio exceeds TAIL_RATIO_MAX.
    """
    max_u, _, max_ux, _, tail = metrics
    if max_u > -HYPERBOLICITY_EPS:
        return RunStatus.interface_reached
    if max_ux > GRAD_BLOWUP_FACTOR * initial_scale:
        return RunStatus.blow_up_detected
    if tail > TAIL_RATIO_MAX:
        return RunStatus.resolution_lost
    return None


def start(law, state0: StateField, t0: float, config: SolverConfig):
    """A run's up-front checks: (c, rows, m0, dt0), (t0, state0)'s rfft
    rows and samples, ``_state_metrics`` and first CFL step, None for
    data admission refuses.  Two FFT calls.

    The time resolution is 1e-12 * max(1, |t0|, |t_max|), at least 4500
    float spacings of the larger end.  Raises ValueError unless t0 is
    finite and t_max - t0 and, for admitted data, the first CFL step
    exceed it (a shorter step would round away in ``t + dt`` or carry a
    timing error above ~1e-4 of itself), when t_max - t0 is more than
    ``MAX_STEPS`` first CFL steps, or when the state's spectrum or
    monitor readings overflow the float range."""
    t_max = config.t_max
    # written so that NaN fails both checks
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    t_slack = 1e-12 * max(1.0, abs(t0), abs(t_max))
    if not t_max - t0 > t_slack:
        raise ValueError(f"t_max - t0 = {t_max - t0:g} must exceed "
                         f"the time resolution {t_slack:g}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            c, rows = _spectral(state0)
            m0 = _state_metrics(c, rows)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"the initial state overflows the monitor: {exc}") from None
    if m0[0] > -HYPERBOLICITY_EPS:
        return c, rows, m0, None
    dt0 = cfl_dt(law, state0.grid, *m0[:2])
    if not dt0 > t_slack:
        raise ValueError(f"the first CFL step {dt0:g} does not exceed the "
                         f"time resolution {t_slack:g} at t0 = {t0:g}")
    if t_max - t0 > MAX_STEPS * dt0:
        raise ValueError(f"t_max - t0 = {t_max - t0:g} is more "
                         f"than MAX_STEPS = {MAX_STEPS} first CFL "
                         f"steps of {dt0:g}")
    return c, rows, m0, dt0


def run(law, state0: StateField, t0: float, config: SolverConfig,
        on_snapshot=None) -> Trajectory:
    """Integrate from (t0, state0) until t_max or a monitor fires.

    Data that is not strictly hyperbolic (max u > -HYPERBOLICITY_EPS) is
    refused with status ``admission_refused``.  After each step the
    monitor may end the run (see ``_monitor_from_metrics``), and the
    step's series record is kept.  A step's state is stored when the
    step is a ``SNAPSHOT_STRIDE`` multiple, reaches t_max or fires a
    monitor, unless that monitor is ``interface_reached``: that state
    lies outside the regime the run covers.

    A step that produces non-finite values (possible only after the
    smooth solution has already degenerated) is recorded as
    ``blow_up_detected`` at that time.  The last step is t_max - t,
    however short: a ``completed`` run ends at t_max.  ``start`` makes
    the up-front checks, and raises their ValueError.

    ``on_snapshot(t, state)``, when given, is called with each snapshot
    as it is stored, in order, and is its one consumer: the trajectory
    keeps none.  The initial snapshot is passed only once the up-front
    checks have passed: a run that raises ValueError has passed nothing,
    and an ``admission_refused`` run passes its one snapshot.
    """
    c, rows, m0, dt0 = start(law, state0, t0, config)
    grid, t_max = state0.grid, config.t_max
    series = array("d", (t0, *m0))  # a row a step, made one array at the end
    snapshots = []
    store = on_snapshot or (lambda t, state: snapshots.append((t, state)))
    store(t0, state0)
    # refused data takes no step, nor a workspace: its mean may be elliptic
    status = RunStatus.admission_refused
    if dt0 is not None:
        status = RunStatus.completed
        ws = _Workspace(law, c)
    initial_scale = max(1.0, m0[2])
    t = t0
    steps = 0
    t_detect = None
    m = m0

    while status is RunStatus.completed and t < t_max:
        dt = min(cfl_dt(law, grid, *m[:2]), t_max - t)
        c, rows = _advance(law, ws, c, rows[0], dt)
        try:
            m = _state_metrics(c, rows, ws.energy)
        except NonFiniteState:
            status = RunStatus.blow_up_detected
            t_detect = t + dt
            break
        # t + (t_max - t) can round past t_max while t < t_max / 2
        t = min(t + dt, t_max)
        steps += 1
        series.extend((t, *m))
        fired = _monitor_from_metrics(m, initial_scale)
        if fired is not None:
            status, t_detect = fired, t
        if fired is not RunStatus.interface_reached and (
                fired is not None or t == t_max
                or steps % SNAPSHOT_STRIDE == 0):
            store(t, StateField(grid, *rows[:2]))
    series = np.frombuffer(series).reshape(-1, len(SERIES_COLUMNS)).copy()
    return Trajectory(law, snapshots, status, t_detect, series)
