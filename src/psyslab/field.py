"""Uniform periodic grid on the unit circle and spectral utilities.

Fields live on x_j = j/n, j = 0..n-1, with period fixed to 1 (other
periods are handled by rescaling x before entry).  Differentiation here
and off-node evaluation through ``SpaceTimeField`` both go through the
trigonometric interpolant, so tracing characteristics has the same
accuracy as the solver.  For even n the Nyquist mode contributes
c_{n/2} cos(pi n x); its derivative coefficient is set to zero, the
standard choice that keeps odd derivatives real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LengthMismatch, WindowTooShort

#: non-mean spectral energy below (NOISE_FLOOR * n * scale)^2 is treated
#: as FFT roundoff; tail ratios of such fields are reported as 0
NOISE_FLOOR = 1e-13

#: width of the low block in SpaceTimeField's phase split m = _BLOCK * a + b
_BLOCK = 32


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
    return _derivative_from_rfft(grid, np.fft.rfft(_as_samples(grid, samples)))


def _derivative_from_rfft(grid: PeriodicGrid, c: np.ndarray) -> np.ndarray:
    """spectral_derivative from the rfft ``c`` of the samples, which is
    overwritten."""
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
    """Complex weights d with f(x) = Re(d . exp(2j pi m x)), m = 0..n/2."""
    n = len(samples)
    return np.fft.rfft(samples) * _parseval_weights(n) / n


def _tail_ratio(c: np.ndarray, scales) -> float:
    """Energy fraction in the top third of the non-mean modes of the rfft
    rows ``c``, summed over the rows (Parseval weights).

    Reads 0 when the non-mean energy is at the level of pure FFT roundoff
    for fields whose largest |sample| are ``scales`` (one per row).
    """
    n = 2 * (c.shape[-1] - 1)
    e = _parseval_weights(n) * np.abs(c) ** 2
    total = float(e[:, 1:].sum(axis=1).sum())
    tail = float(e[:, n // 3 + 1:].sum(axis=1).sum())
    floor = sum((NOISE_FLOOR * n * max(1.0, scale)) ** 2 for scale in scales)
    return tail / total if total > floor else 0.0


class SpaceTimeField:
    """Spectral-in-x, cubic-in-t evaluator over a list of (t, StateField)
    snapshots with increasing times.

    Building it takes two FFTs per snapshot, so ``Trajectory.field``
    builds one on first read and keeps it for every tracer call.

    Only the (u, v) coefficients are stored; derivative rows are the
    window-combined rows times 2 pi i m, Nyquist zeroed.  The layout has
    two levels: mode m = 32 a + b sits at [a, b], so the phases
    exp(2 pi i m x) at a point are products of 32 + n/64 + 1 sines and
    cosines rather than n/2 + 1, and no long cumulative product
    accumulates error with m.  Sums over the layout go through
    ``einsum`` without ``optimize``, which never calls BLAS: threaded
    BLAS is far slower than the loop on products this small.
    """

    def __init__(self, snapshots: list):
        if len(snapshots) < 2:
            raise WindowTooShort("tracing needs at least 2 snapshots")
        times = np.array([t for t, _ in snapshots])
        # drop near-duplicate times: degenerate spacings blow up the
        # Lagrange weights
        tiny = 1e-9 * float(np.max(np.diff(times), initial=0.0))
        idx = [0]
        for i in range(1, len(times)):
            if times[i] - times[idx[-1]] > tiny:
                idx.append(i)
        if len(idx) < 2:
            raise WindowTooShort("tracing needs at least 2 distinct times")
        self.times = times[idx]
        n = snapshots[0][1].grid.n
        n_modes = n // 2 + 1
        rows = -(-n_modes // _BLOCK)
        coeffs = np.zeros((len(idx), 2, rows * _BLOCK), dtype=complex)
        for k, i in enumerate(idx):
            state = snapshots[i][1]
            coeffs[k, 0, :n_modes] = trig_coefficients(state.u)
            coeffs[k, 1, :n_modes] = trig_coefficients(state.v)
        self._coeffs = coeffs.reshape(len(idx), 2, rows, _BLOCK)
        dmul = np.zeros(rows * _BLOCK, dtype=complex)  # padding unused
        dmul[:n_modes] = _derivative_multipliers(n)
        self._dmul = dmul.reshape(rows, _BLOCK)
        self._lo = 2.0 * np.pi * np.arange(_BLOCK)
        self._hi = 2.0 * np.pi * _BLOCK * np.arange(rows)

    def _window(self, t: float):
        k = min(4, len(self.times))
        i = int(np.searchsorted(self.times, t))
        i0 = min(max(i - 2, 0), len(self.times) - k)
        ts = self.times[i0:i0 + k].tolist()
        w = np.empty(k)
        for a in range(k):
            num = 1.0
            for b in range(k):
                if b != a:
                    num *= (t - ts[b]) / (ts[a] - ts[b])
            w[a] = num
        return i0, k, w

    def coefficients(self, t: float) -> np.ndarray:
        """Rows (u, v, u_x, v_x) of the field at time t, in the split
        layout: the 4 nearest snapshots combined with Lagrange weights."""
        i0, k, w = self._window(t)
        uv = np.einsum("s,sfab->fab", w, self._coeffs[i0:i0 + k])
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
