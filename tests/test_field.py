import numpy as np
import pytest

from psyslab import LengthMismatch, PeriodicGrid, StateField, spectral_derivative
from psyslab.field import trig_coefficients
from psyslab.solver import _spectral, _state_metrics


def interpolant(f, x):
    """The trigonometric interpolant of node samples f at x, as the tracer
    evaluates it: Re(d . exp(2j pi m x)) over the trig_coefficients d."""
    d = trig_coefficients(f)
    return float(np.real(d @ np.exp(2j * np.pi * np.arange(len(d)) * x)))


def max_u(g, u):
    return _state_metrics(*_spectral(StateField(g, u, np.zeros(g.n))))[0]


def tail_ratio(g, u):
    return _state_metrics(*_spectral(StateField(g, u, np.zeros(g.n))))[4]


def test_grid_validation():
    g = PeriodicGrid(64)
    assert g.dx == 1.0 / 64
    assert g.nodes[1] == 1.0 / 64
    for bad in (100, 8, 15, 0):
        with pytest.raises(ValueError):
            PeriodicGrid(bad)


def test_state_field_validation():
    g = PeriodicGrid(16)
    with pytest.raises(LengthMismatch):
        StateField(g, np.zeros(15), np.zeros(16))
    with pytest.raises(ValueError):
        StateField(g, np.full(16, np.nan), np.zeros(16))
    s = StateField(g, np.zeros(16), np.ones(16))
    assert not s.u.flags.writeable


def test_derivative_of_constant_is_zero():
    g = PeriodicGrid(64)
    assert np.all(spectral_derivative(g, np.full(64, 3.7)) == 0.0)


def test_derivative_matches_analytic():
    g = PeriodicGrid(64)
    x = g.nodes
    d = spectral_derivative(g, np.sin(2 * np.pi * x))
    assert np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-10

    f = np.sin(2 * np.pi * x) + 0.5 * np.cos(4 * np.pi * x)
    df = 2 * np.pi * np.cos(2 * np.pi * x) - 2 * np.pi * np.sin(4 * np.pi * x)
    assert np.max(np.abs(spectral_derivative(g, f) - df)) < 1e-10


def test_derivative_length_mismatch():
    with pytest.raises(LengthMismatch):
        spectral_derivative(PeriodicGrid(64), np.zeros(65))


def test_derivative_linearity_and_zero_mean():
    g = PeriodicGrid(128)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(128), rng.standard_normal(128)
    da, db = spectral_derivative(g, a), spectral_derivative(g, b)
    dab = spectral_derivative(g, 2.0 * a - 3.0 * b)
    assert np.max(np.abs(dab - (2.0 * da - 3.0 * db))) < 1e-10
    assert abs(np.mean(da)) < 1e-12  # derivative integrates to zero


def test_parseval_consistency():
    g = PeriodicGrid(128)
    rng = np.random.default_rng(6)
    x = g.nodes
    f = np.zeros(128)
    for m in range(1, 20):  # band-limited: modes well below Nyquist
        am, bm = rng.standard_normal(2)
        f += am * np.sin(2 * np.pi * m * x) + bm * np.cos(2 * np.pi * m * x)
    df = spectral_derivative(g, f)
    c = np.fft.rfft(f)
    w = np.full(65, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    m = np.arange(65)
    energy_modes = np.sum(w * (2 * np.pi * m) ** 2 * np.abs(c) ** 2) / 128**2
    assert abs(np.mean(df**2) - energy_modes) < 1e-10 * max(1.0, energy_modes)


def test_interpolate_analytic_and_constant():
    g = PeriodicGrid(64)
    f = np.sin(2 * np.pi * g.nodes)
    assert abs(interpolant(f, 0.125) - np.sin(np.pi / 4)) < 1e-10
    c = np.full(64, 2.25)
    for x in (0.1, 0.37, 0.999):
        assert abs(interpolant(c, x) - 2.25) < 1e-12


def test_interpolant_matches_analytic_modes_off_node():
    g = PeriodicGrid(32)
    rng = np.random.default_rng(10)
    coeffs = [(m, *rng.standard_normal(2)) for m in range(1, 8)]

    def analytic(x):
        return sum(a * np.sin(2 * np.pi * m * x) + b * np.cos(2 * np.pi * m * x)
                   for m, a, b in coeffs)

    f = analytic(g.nodes)
    assert trig_coefficients(f).shape == (17,)
    for x in np.linspace(0.013, 0.987, 23):
        assert abs(interpolant(f, x) - analytic(x)) < 1e-12


def test_trig_coefficients_of_stacked_rows():
    rows = np.random.default_rng(13).standard_normal((3, 32))
    stacked = trig_coefficients(rows)
    assert stacked.shape == (3, 17)
    for got, row in zip(stacked, rows):
        np.testing.assert_array_equal(got, trig_coefficients(row))


def test_hyperbolicity_margin():
    # the solver admits and monitors on max u: strictly hyperbolic iff < 0
    g = PeriodicGrid(256)
    assert max_u(g, np.full(256, -1.0)) == -1.0
    u = -1.0 + 0.3 * np.sin(2 * np.pi * g.nodes)
    # dense-sampling oracle of the analytic max
    dense = -1.0 + 0.3 * np.sin(2 * np.pi * np.linspace(0, 1, 100_001))
    assert abs(max_u(g, u) - dense.max()) < 1e-3
    assert max_u(g, np.full(256, 0.5)) == 0.5  # elliptic


def test_tail_ratio_band_limited_vs_noise():
    g = PeriodicGrid(128)
    x = g.nodes
    smooth = np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x)
    assert tail_ratio(g, smooth) < 1e-20
    rng = np.random.default_rng(12)
    noise = rng.standard_normal(128)
    assert tail_ratio(g, noise) > 0.1  # flat spectrum: ~1/3
    # numerically constant fields have nothing to resolve
    assert tail_ratio(g, np.full(128, -4.0)) == 0.0
    assert tail_ratio(g, -4.0 + 1e-15 * rng.standard_normal(128)) == 0.0
