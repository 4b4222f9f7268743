"""Uniform periodic grid on the unit circle and spectral utilities.

Fields live on x_j = j/n, j = 0..n-1, with period fixed to 1 (other
periods are handled by rescaling x before entry).  Differentiation and
interpolation both go through the trigonometric interpolant, so tracing
characteristics has the same accuracy as the solver.  For even n the
Nyquist mode contributes c_{n/2} cos(pi n x); its derivative coefficient
is set to zero, the standard choice that keeps odd derivatives real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch

#: non-mean spectral energy below (NOISE_FLOOR * n * scale)^2 is treated
#: as FFT roundoff; tail ratios of such fields are reported as 0
NOISE_FLOOR = 1e-13


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PeriodicGrid:
    n: int
    period: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 16:
            raise ValueError("grid size must be a power of two, >= 16")
        if self.period != 1.0:
            raise ValueError("period is fixed to 1; rescale x instead")
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
    arr = _as_samples(grid, samples)
    c = np.fft.rfft(arr)
    c *= 2j * np.pi * grid.modes
    c[-1] = 0.0
    return np.fft.irfft(c, grid.n)


def trig_coefficients(samples: np.ndarray) -> np.ndarray:
    """Complex weights d with f(x) = Re(d . exp(2j pi m x)), m = 0..n/2."""
    n = len(samples)
    c = np.fft.rfft(samples)
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return c * w / n


def phase_vector(n: int, x: float) -> np.ndarray:
    """exp(2j pi m x) for m = 0..n/2, with x taken modulo 1."""
    m = np.arange(n // 2 + 1)
    return np.exp(2j * np.pi * m * (x % 1.0))


class TrigInterpolant:
    """Evaluates the trigonometric interpolant of node samples anywhere."""

    __slots__ = ("n", "samples", "coefficients")

    def __init__(self, grid: PeriodicGrid, samples):
        self.samples = _as_samples(grid, samples)
        self.n = grid.n
        self.coefficients = trig_coefficients(self.samples)

    def value(self, x: float) -> float:
        xm = x % 1.0
        j = xm * self.n
        if j == int(j):  # nodes are exact binary floats for power-of-two n
            return float(self.samples[int(j) % self.n])
        return float(np.real(self.coefficients @ phase_vector(self.n, xm)))


def interpolate(grid: PeriodicGrid, samples, x: float) -> float:
    """Trigonometric interpolant of the samples at x (modulo 1); exact
    at the nodes."""
    return TrigInterpolant(grid, samples).value(x)


def hyperbolicity_margin(state: StateField) -> float:
    """max_j u_j; strictly hyperbolic iff the result is negative."""
    return float(np.max(state.u))


def _tail_stats(samples: np.ndarray):
    """(tail, total, floor): non-mean Parseval energies and roundoff floor.

    tail is the energy in the top third of the mode range; floor is the
    energy level of pure FFT roundoff for a field of this magnitude.
    """
    n = len(samples)
    c = np.fft.rfft(samples)
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    e = w * np.abs(c) ** 2
    cut = (2 * (n // 2)) // 3
    total = float(np.sum(e[1:]))
    tail = float(np.sum(e[cut + 1:]))
    scale = max(1.0, float(np.max(np.abs(samples))))
    floor = (NOISE_FLOOR * n * scale) ** 2
    return tail, total, floor


def spectral_tail_ratio(grid: PeriodicGrid, samples) -> float:
    """Energy fraction in the top third of modes (mean mode excluded).

    Fields whose non-mean energy sits at the FFT roundoff floor report
    0: there is nothing to resolve.
    """
    tail, total, floor = _tail_stats(_as_samples(grid, samples))
    if total <= floor:
        return 0.0
    return tail / total
