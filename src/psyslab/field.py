"""Uniform periodic grid on the unit circle and spectral utilities.

Fields live on x_j = j/n, j = 0..n-1, with period fixed to 1 (other
periods are handled by rescaling x before entry).  Differentiation here
and off-node evaluation in the tracer (through ``trig_coefficients``)
both go through the trigonometric interpolant, so tracing
characteristics has the same accuracy as the solver.  For even n the
Nyquist mode contributes c_{n/2} cos(pi n x); its derivative coefficient
is set to zero, the standard choice that keeps odd derivatives real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LengthMismatch

#: non-mean spectral energy below (NOISE_FLOOR * n * scale)^2 is treated
#: as FFT roundoff; tail ratios of such fields are reported as 0
NOISE_FLOOR = 1e-13


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

    @property
    def modes(self) -> np.ndarray:
        """Non-negative integer wavenumbers of the rfft layout."""
        return np.arange(self.n // 2 + 1)


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
