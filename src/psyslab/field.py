"""Uniform periodic grid on the unit circle and spectral utilities.

Fields live on x_j = j/n, j = 0..n-1, with period fixed to 1 (other
periods are handled by rescaling x before entry).  Differentiation here
and off-node evaluation through ``SpaceTimeField`` both go through the
trigonometric interpolant, so in x the tracer sees the field the solver
computed; in t, ``SpaceTimeField`` interpolates between snapshots by
cubic Hermite with slopes taken from the PDE.  It builds a snapshot's
coefficient rows when an evaluation first needs them and keeps only a
few, so its memory is O(n) however long the trajectory.  For even n
the Nyquist mode contributes c_{n/2} cos(pi n x); its derivative
coefficient is set to zero, the standard choice that keeps odd
derivatives real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LengthMismatch, WindowTooShort

#: width of the low block in SpaceTimeField's phase split m = _BLOCK * a + b
_BLOCK = 32

#: snapshots whose coefficient rows SpaceTimeField keeps; a monotone walk
#: over the window needs the two ends of at most two intervals at a time
_KEPT_ROWS = 4


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PeriodicGrid:
    """Nodes x_j = j/n on the unit circle; the period is always 1."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 16:
            raise ValueError("grid size must be a power of two, >= 16")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) / self.n


def _as_samples(grid: PeriodicGrid, samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.shape != (grid.n,):
        raise LengthMismatch(
            f"expected {grid.n} samples, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class StateField:
    """Sampled (u, v) on a periodic grid; immutable after construction."""

    grid: PeriodicGrid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        v = np.array(self.v, dtype=float)
        for name, arr in (("u", u), ("v", v)):
            if arr.shape != (self.grid.n,):
                raise LengthMismatch(
                    f"{name} must have length {self.grid.n}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def spectral_derivative(grid: PeriodicGrid, samples) -> np.ndarray:
    """Derivative of the trigonometric interpolant at the nodes.

    Exact for resolved trigonometric polynomials; the Nyquist mode's
    derivative coefficient is zeroed.
    """
    c = np.fft.rfft(_as_samples(grid, samples))
    c *= _derivative_multipliers(grid.n)
    return np.fft.irfft(c, grid.n)


@lru_cache(maxsize=8)
def _derivative_multipliers(n: int) -> np.ndarray:
    """2 pi i m on the rfft modes, 0 on the Nyquist mode."""
    ik = 2j * np.pi * np.arange(n // 2 + 1)
    ik[-1] = 0.0
    ik.flags.writeable = False
    return ik


@lru_cache(maxsize=8)
def _parseval_weights(n: int) -> np.ndarray:
    """Weight 2 on each rfft mode that stands for a +-m pair, 1 on the
    mean and Nyquist modes."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    w.flags.writeable = False
    return w


def trig_coefficients(samples: np.ndarray) -> np.ndarray:
    """Complex weights d with f(x) = Re(d . exp(2j pi m x)), m = 0..n/2,
    one row of weights per row of samples (the last axis is x)."""
    n = samples.shape[-1]
    return np.fft.rfft(samples) * _parseval_weights(n) / n


class SpaceTimeField:
    """Spectral-in-x, cubic-Hermite-in-t evaluator over a list of
    (t, StateField) snapshots whose times strictly increase, however
    closely (ValueError names the first pair that does not).

    Each snapshot interval [t_i, t_i+1] is interpolated in t by the cubic
    Hermite polynomial through the two end states and their time
    derivatives, which the PDE gives exactly: u^_t = -i k v^ and
    v^_t = i k P^, with P^ the coefficients of p(u).  So the interpolant
    is fourth-order in the snapshot spacing and, unlike a window of
    nearest snapshots, smooth across snapshots.

    A snapshot's coefficient rows (u^, v^, P^) are built by one stacked
    FFT when ``coefficients`` first needs them, and only the last
    ``_KEPT_ROWS`` snapshots used keep theirs, in an ``lru_cache`` that
    holds no reference to the field, so the field holds O(n) numbers
    beyond the snapshots themselves.  A tracer pass walks the
    window monotonically and so builds each snapshot once; u_t is a
    multiply of v^ and is not stored.  Each tracer call builds its own
    field: building one transforms no snapshot.  Derivative rows
    are the combined rows times 2 pi i m, Nyquist zeroed.  The layout
    has two levels: mode m = 32 a + b sits at [a, b], so the phases
    exp(2 pi i m x) at a point are products of 32 + n/64 + 1 sines and
    cosines rather than n/2 + 1, and no long cumulative product
    accumulates error with m.  Sums over the layout go through
    ``einsum`` without ``optimize``, which never calls BLAS.  A BLAS
    ``matmul`` uses 6-9x less CPU at the benchmark's shapes, where
    OpenBLAS stays on one thread: 4 rows x 17 blocks x 48 points took
    18-25 us against 110-164 us with ``einsum``, at CPU/wall 1.00 (2
    vCPUs).  But at 4 x 65 x 128 it runs at CPU/wall 2.0, and tracing
    128 curves at n=4096 took 2.1 s of CPU instead of 1.55 s, with
    OpenBLAS threads spinning between the small products (CPU/wall
    1.99).  ``einsum`` holds one thread at every shape.
    """

    def __init__(self, snapshots: list, law):
        if len(snapshots) < 2:
            raise WindowTooShort("tracing needs at least 2 snapshots")
        self.times = np.array([t for t, _ in snapshots])
        # written so that NaN fails the check
        bad = np.flatnonzero(~(np.diff(self.times) > 0.0))
        if len(bad):
            i = bad[0]
            raise ValueError("snapshot times must strictly increase: "
                             f"t[{i}] = {self.times[i]}, "
                             f"t[{i + 1}] = {self.times[i + 1]}")
        states = [state for _, state in snapshots]
        n = states[0].grid.n
        n_modes = n // 2 + 1
        blocks = -(-n_modes // _BLOCK)

        @lru_cache(maxsize=_KEPT_ROWS)
        def snapshot_rows(k: int) -> np.ndarray:
            """Coefficient rows (u^, v^, P^) of snapshot k in the split
            layout, zero-padded to whole blocks."""
            state = states[k]
            rows = np.zeros((3, blocks * _BLOCK), dtype=complex)
            rows[:, :n_modes] = trig_coefficients(
                np.stack((state.u, state.v, law.p(state.u))))
            return rows.reshape(3, blocks, _BLOCK)

        self._snapshot_rows = snapshot_rows
        dmul = np.zeros(blocks * _BLOCK, dtype=complex)  # padding unused
        dmul[:n_modes] = _derivative_multipliers(n)
        self._dmul = dmul.reshape(blocks, _BLOCK)
        self._lo = 2.0 * np.pi * np.arange(_BLOCK)
        self._hi = 2.0 * np.pi * _BLOCK * np.arange(blocks)

    def coefficients(self, t: float) -> np.ndarray:
        """Rows (u, v, u_x, v_x) of the field at time t, in the split
        layout: the cubic Hermite interpolant on the snapshot interval
        that holds t (on the end interval for t outside the window)."""
        times = self.times
        i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0),
                len(times) - 2)
        dt = float(times[i + 1] - times[i])
        s = (t - float(times[i])) / dt
        h00, h01 = (1.0 + 2.0 * s) * (1.0 - s) ** 2, s * s * (3.0 - 2.0 * s)
        h10, h11 = dt * s * (1.0 - s) ** 2, dt * s * s * (s - 1.0)
        c0, c1 = self._snapshot_rows(i), self._snapshot_rows(i + 1)
        uv = h00 * c0[:2] + h01 * c1[:2]
        # dt-weighted slope sources (v^, P^): u^_t = -ik v^, v^_t = ik P^
        slope = (h10 * c0[1:] + h11 * c1[1:]) * self._dmul
        uv[0] -= slope[0]
        uv[1] += slope[1]
        return np.concatenate((uv, uv * self._dmul))

    def evaluate(self, coeffs: np.ndarray, x) -> np.ndarray:
        """Values of coefficient rows at the points x (modulo 1), one row
        of len(x) values per coefficient row."""
        xm = np.asarray(x, dtype=float) % 1.0
        nx = len(xm)
        lo = np.multiply.outer(xm, self._lo)
        hi = np.multiply.outer(self._hi, xm)
        # the complex sum over b in real arithmetic: entries 2b and 2b + 1
        # of the interleaved (re, im) coefficients meet (cos, -sin) for
        # the real parts (columns :nx) and (sin, cos) for the imaginary
        # parts (columns nx:)
        phase = np.empty((2, nx, _BLOCK, 2))
        phase[0, :, :, 0] = phase[1, :, :, 1] = np.cos(lo)
        phase[1, :, :, 0] = np.sin(lo)
        np.negative(phase[1, :, :, 0], out=phase[0, :, :, 1])
        rows, blocks = coeffs.shape[:2]
        part = np.einsum("rk,jk->rj", coeffs.view(float).reshape(rows * blocks, -1),
                         phase.reshape(2 * nx, 2 * _BLOCK))
        # Re(exp(i hi) * part) summed over a
        out = np.einsum("faj,aj->fj", part.reshape(rows, blocks, 2 * nx),
                        np.concatenate((np.cos(hi), -np.sin(hi)), axis=1))
        return out[:, :nx] + out[:, nx:]

    def values(self, t: float, x) -> np.ndarray:
        """(u, v, u_x, v_x) at time t and the points x, shape (4, len(x))."""
        return self.evaluate(self.coefficients(t), x)
