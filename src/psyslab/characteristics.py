"""Characteristic curves traced through a computed trajectory.

A curve of family i solves dx/dt = lambda_i(u(t, x)) through a
``SpaceTimeField`` that each tracer call builds on the trajectory's
snapshots.  Evaluation of u between grid points is trigonometric in x
and cubic Hermite in t, with the time derivatives at each snapshot
taken from the PDE, so the tracer sees the field the solver computed,
to fourth order in the snapshot spacing.  Along the curve we record the
Riemann invariants, the scaled gradient beta, and the accumulated
Riccati integral K(t) = int k(u) ds, from which finite-time gradient
blow-up is predicted via 1 + beta0 * K(t*) = 0.

Curves are traced in batches: one RK4 loop advances every curve of a
batch at the same times, so the snapshot coefficients are combined once
per time for the whole batch.

Curves are classified over the run's window, a finite-time proxy of the
asymptotic A/B dichotomy: B means the curve ran the whole window with -u
growing beyond a factor and still increasing; A means it hit the u = 0
interface or stayed bounded; anything else is reported as undetermined.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import solver
from .errors import EllipticStart
from .field import SpaceTimeField
from .riemann import Family, beta_from_gradient, q_of_u, riccati_k
from .solver import Trajectory

#: RK4 step of a curve, in median snapshot spacings.  Finer steps read
#: worse: on ``verify``'s n=256 wave (CFL_SAFETY 0.8, 16/4/4 curves) the
#: r2 drift is 5.8e-5 at 2, 1.12e-4 at 1 and 8.4e-4 at 0.5: the error is
#: the field's between snapshots.  4 halves the field evaluations, but
#: coarsens ``t_hit`` to its step grid (``test_boundary_hit_in_mixed_field``
#: fails) and lifts the n=1024 wave's drift from 2.3e-7 to 2.0e-5
STEP_FACTOR = 2.0

#: growth of -u over a curve's window beyond which ``classify`` reads B
GROWTH_FACTOR = 10.0

#: how far ``predict_blowup`` continues K past a curve's last sample, as a
#: fraction of the traced span: a run stops at its detected catastrophe,
#: where the Riccati root sits, so roots often fall just past the window
CONTINUATION = 0.25

#: the sample columns of a ``CharacteristicCurve``, in the order of a
#: curve CSV's header
CURVE_COLUMNS = ("t", "x", "u", "r1", "r2", "beta", "K_accum")


class Direction(enum.Enum):
    forward = 1
    backward = -1

    @property
    def sign(self) -> float:
        return float(self.value)


class ClassLabel(str, enum.Enum):
    A_plus = "A_plus"
    A_minus = "A_minus"
    B_plus = "B_plus"
    B_minus = "B_minus"
    undetermined = "undetermined"


@dataclass(eq=False)
class CharacteristicCurve:
    """One traced curve.  Each of its ``CURVE_COLUMNS`` holds one entry
    per sample, in traversal order (times monotone along the direction)."""

    family: Family
    direction: Direction
    t: np.ndarray
    x: np.ndarray  # unwrapped (lifted) positions
    u: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    beta: np.ndarray
    K_accum: np.ndarray
    t_hit: Optional[float] = None  # boundary-hit time, if any

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def own_invariant(self) -> np.ndarray:
        """The curve's own Riemann invariant: r1 for family 1, r2 for 2."""
        return self.r1 if self.family is Family.first else self.r2


def _speed(law, u, sign):
    # clamp: transient stage points may graze the u = 0 interface
    return sign * np.sqrt(np.maximum(-law.dp(u), 0.0))


def _curve(law, fam: Family, direction: Direction, t, cols,
           t_hit) -> CharacteristicCurve:
    """Curve from its sample columns x, u, v, u_x, v_x, K.  The derived
    quantities use u clamped to 0 (the boundary sample may overshoot)."""
    x, u, v, ux, vx, K = (np.array(c, dtype=float) for c in cols)
    uc = np.minimum(u, 0.0)
    qv = q_of_u(law, uc)
    g = np.maximum(-law.dp(uc), 0.0)  # -p'(u) = q'(u)^2
    rx = vx + fam.sign * np.sqrt(g) * ux
    return CharacteristicCurve(fam, direction, np.array(t, dtype=float), x, u,
                               v - qv, v + qv, rx * g ** 0.25, K, t_hit)


def gradient_beta(trajectory: Trajectory, x0, fam: Family):
    """beta at x0 recomputed from the spectral gradients of the first
    snapshot.

    r_x = v_x -+ q'(u) u_x with q'(u) = -sqrt(-p'(u)), then
    beta = r_x (-p'(u))^(1/4).  ``x0`` is a point or an array of
    points; the result has the same shape.
    """
    fld = SpaceTimeField(trajectory.snapshots, trajectory.law)
    u, _v, ux, vx = fld.values(trajectory.t0, np.atleast_1d(x0))
    sq = np.sqrt(np.maximum(-trajectory.law.dp(np.minimum(u, 0.0)), 0.0))
    beta = beta_from_gradient(trajectory.law, u, vx + fam.sign * sq * ux)
    return float(beta[0]) if np.ndim(x0) == 0 else beta


def _median_spacing(times: np.ndarray) -> float:
    """The median of the spacings of ``times``, the same float as
    ``np.median(np.diff(times))``, whose NaN check imports numpy.ma on
    its first call in a process."""
    d = np.sort(np.diff(times))
    k = len(d) // 2
    return float(d[k] if len(d) % 2 else (d[k - 1] + d[k]) / 2)


def trace_batch(trajectory: Trajectory, starts,
                direction: Direction = Direction.forward) -> dict:
    """Trace a batch of characteristics through the trajectory's window.

    ``starts`` holds (x0, Family) pairs; a pair listed twice is traced
    once.  Every curve integrates
    dx/dt = lambda_fam(u(t, x)) with RK4 at a step of ``STEP_FACTOR``
    times the snapshot spacing, from the same start time in the same
    direction.  Forward curves start at the first snapshot, backward
    curves at the last (the only part of the window behind them).  A
    curve stops at the window edge, or as soon as the interpolated u
    rises above -eps, with eps ``solver.HYPERBOLICITY_EPS`` at the call: it
    reached the hyperbolic boundary, records that time as ``t_hit`` and
    leaves the batch.  The boundary sample is recorded with u clamped to
    0 in the derived quantities and K_accum carried from the previous
    sample (k diverges at the interface).

    Returns a dict from each start, in the order it first appears, to
    its CharacteristicCurve, or to an EllipticStart error for a start
    with u >= 0, which does not stop the other curves.  Positions are
    recorded unwrapped; reduce modulo 1 for plotting.
    """
    law = trajectory.law
    fld = SpaceTimeField(trajectory.snapshots, law)
    eps = solver.HYPERBOLICITY_EPS
    keys = list(dict.fromkeys(starts))
    x = np.array([x0 for x0, _ in keys], dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("start points must be finite")
    sign = np.array([fam.sign for _, fam in keys])
    times = fld.times
    # a field holds at least two increasing times, so span > 0
    span = float(times[-1] - times[0])
    t_start = float(times[0] if direction is Direction.forward else times[-1])
    spacing = _median_spacing(times)
    # span >= spacing gives n_steps >= 1, and no product here can overflow
    n_steps = int(np.ceil(span / spacing / STEP_FACTOR))
    h = direction.sign * span / n_steps
    # sample columns (x, u, v, u_x, v_x, K) per step; curve b owns rows
    # 0 .. count[b] - 1 of column b
    hist = np.empty((n_steps + 1, 6, len(x)))
    ts = np.empty(n_steps + 1)
    ts[0] = t_start
    hist[0, 0] = x
    hist[0, 1:5] = fld.values(t_start, x)
    hist[0, 5] = 0.0
    u = hist[0, 1].copy()
    count = np.ones(len(x), dtype=int)
    t_hit = np.full(len(x), np.nan)
    t_hit[(u < 0.0) & (u > -eps)] = t_start
    active = np.flatnonzero(u <= -eps)
    K = np.zeros(len(x))
    k_prev = np.zeros(len(x))
    k_prev[active] = riccati_k(law, u[active])

    t = t_start
    for step in range(1, n_steps + 1):
        if not active.size:
            break
        xa, sa = x[active], sign[active]
        c_mid = fld.coefficients(t + 0.5 * h)[:1]
        c_end = fld.coefficients(t + h)
        k1 = _speed(law, u[active], sa)
        k2 = _speed(law, fld.evaluate(c_mid, xa + 0.5 * h * k1)[0], sa)
        k3 = _speed(law, fld.evaluate(c_mid, xa + 0.5 * h * k2)[0], sa)
        k4 = _speed(law, fld.evaluate(c_end[:1], xa + h * k3)[0], sa)
        xa = xa + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        vals = fld.evaluate(c_end, xa)
        x[active] = xa
        u[active] = vals[0]
        hit = vals[0] > -eps
        inside = active[~hit]
        k_cur = riccati_k(law, vals[0][~hit])
        K[inside] += 0.5 * (k_prev[inside] + k_cur) * h
        k_prev[inside] = k_cur
        ts[step] = t
        row = hist[step]
        row[0, active] = xa
        row[1:5, active] = vals
        row[5, active] = K[active]
        count[active] += 1
        t_hit[active[hit]] = t
        active = inside

    curves = {}
    for b, key in enumerate(keys):
        if hist[0, 1, b] >= 0.0:
            curves[key] = EllipticStart(
                f"u(t={t_start:g}, x={hist[0, 0, b]:g}) = {hist[0, 1, b]:g} >= 0")
            continue
        c = count[b]
        curves[key] = _curve(
            law, key[1], direction, ts[:c], hist[:c, :, b].T,
            None if np.isnan(t_hit[b]) else float(t_hit[b]))
    return curves


def trace(trajectory: Trajectory, x0: float, fam: Family) -> CharacteristicCurve:
    """Trace one characteristic forward: ``trace_batch`` with a single
    curve.  Raises EllipticStart when u >= 0 at the start.
    """
    curve, = trace_batch(trajectory, [(x0, fam)]).values()
    if isinstance(curve, EllipticStart):
        raise curve
    return curve


def invariant_drift(curve: CharacteristicCurve,
                    t_end: Optional[float] = None) -> float:
    """max over samples of |r_fam(t) - r_fam(t_start)| for the curve's
    own family, over the samples up to ``t_end`` along the curve's
    direction (all of them when ``t_end`` is None)."""
    r = curve.own_invariant
    drift = np.abs(r - r[0])
    if t_end is not None:
        drift = drift[(t_end - curve.t) * curve.direction.sign >= 0.0]
    return float(np.max(drift, initial=0.0))


def predict_blowup(curve: CharacteristicCurve) -> Optional[float]:
    """Earliest t* with 1 + beta0 * K(t*) <= 0 along the curve, where
    beta0 = ``curve.beta[0]``.

    K is linearly interpolated between samples, and continued at its
    final slope for ``CONTINUATION`` of the traced span past the last
    sample; returns None when no root lies in that range.  Going forward
    K <= 0, so only beta0 > 0 can blow up; negative beta decays,
    matching the Riccati picture in which boundary-reaching curves force
    r_x <= 0.
    """
    beta0 = curve.beta[0]
    if beta0 == 0.0:
        return None
    t, K = curve.t, curve.K_accum
    K_star = -1.0 / beta0
    # K[0] = 0, so a first blown sample has a predecessor, and the root
    # is bracketed there with K[i] != K[i - 1]
    blown = np.flatnonzero(1.0 + beta0 * K <= 0.0)
    if blown.size:
        i = blown[0]
        theta = (K_star - K[i - 1]) / (K[i] - K[i - 1])
        return float(t[i - 1] + theta * (t[i] - t[i - 1]))
    moved = np.flatnonzero(K != K[-1])
    if moved.size:
        j = moved[-1]
        slope = (K[-1] - K[j]) / (t[-1] - t[j])
        if slope != 0.0:
            t_root = t[-1] + (K_star - K[-1]) / slope
            overshoot = (t_root - t[-1]) * curve.direction.sign
            span = abs(curve.t_end - curve.t_start)
            if 0.0 <= overshoot <= CONTINUATION * span:
                return float(t_root)
    return None


def classify(curve: CharacteristicCurve) -> ClassLabel:
    """Proxy of the A/B dichotomy for this curve over the run's window.

    A curve that did not hit the interface ran the whole window (see
    ``trace_batch``).  B (by direction): -u at the end grew beyond
    ``GROWTH_FACTOR`` (read at each call) times its start value, and -u
    is still non-decreasing over the final quarter of the window.  A:
    hit the u = 0 interface in finite time (``curve.t_hit`` is set), or
    ran the window with -u bounded by the growth factor.  Everything
    else is undetermined.
    """
    plus = curve.direction is Direction.forward
    a_label = ClassLabel.A_plus if plus else ClassLabel.A_minus
    b_label = ClassLabel.B_plus if plus else ClassLabel.B_minus

    if curve.t_hit is not None:
        return a_label
    u = curve.u
    if -u[-1] <= GROWTH_FACTOR * -u[0]:
        return a_label

    span = abs(curve.t_end - curve.t_start)
    tail = -u[np.abs(curve.t - curve.t[0]) >= 0.75 * span]
    tol = 1e-9 * max(1.0, float(np.max(tail)))
    if np.all(np.diff(tail) >= -tol):
        return b_label
    return ClassLabel.undetermined


@dataclass
class SpotcheckReport:
    """Outcome of the dual-growth exclusion check.

    A violation is a same-direction pair of curves, one per family, both
    classified B: no solution of the system should ever produce one.
    """

    violations: list


def spotcheck_points(sample_points: int) -> list:
    """The midpoint start grid (j + 0.5) / sample_points, j < sample_points."""
    return [(j + 0.5) / sample_points for j in range(sample_points)]


def spotcheck_report(seeds: list, traced: dict) -> SpotcheckReport:
    """The dual-growth report of curves already traced from ``seeds``.

    ``traced[direction][(x0, family)]`` is the curve from x0 of each
    seed and family, or an EllipticStart, which counts as undetermined;
    every other curve is labelled by ``classify``.
    A violation records the seeds of each family's B curves.
    """
    violations = []
    for direction in Direction:
        b = ClassLabel.B_plus if direction is Direction.forward else ClassLabel.B_minus
        curves = traced[direction]
        s1, s2 = ([x0 for x0 in seeds
                   if not isinstance(curves[(x0, fam)], EllipticStart)
                   and classify(curves[(x0, fam)]) is b] for fam in Family)
        if s1 and s2:
            violations.append({
                "direction": direction.name, "label": b.value,
                "family1_seeds": s1, "family2_seeds": s2,
            })
    return SpotcheckReport(violations)


def dual_growth_spotcheck(trajectory: Trajectory,
                          sample_points: int) -> SpotcheckReport:
    """Trace both families from ``spotcheck_points(sample_points)`` and
    flag same-direction (B, B) pairs across the families.

    One batch per direction holds both families; see
    ``spotcheck_report``.  Expected outcome on any trajectory of the
    system: zero violations.
    """
    seeds = spotcheck_points(sample_points)
    starts = [(x0, fam) for fam in Family for x0 in seeds]
    return spotcheck_report(seeds, {d: trace_batch(trajectory, starts, d)
                                    for d in Direction})
