import numpy as np
import pytest
from scipy.special import jn_zeros, jv

from weylkit.bessel import bessel_j, bessel_zeros, zeros_below
from weylkit.errors import ConfigError


def test_values_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(2.5, 0.0) == 0.0


def test_first_zero_of_j0():
    assert abs(bessel_j(0, 2.404826)) < 1e-5


@pytest.mark.parametrize("nu", [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 7, 20, 55.5, 120, 333, 500])
def test_accuracy_against_scipy(nu):
    rng = np.random.default_rng(42)
    x = np.concatenate(
        [
            np.linspace(0.0, 25.0, 120),
            np.geomspace(0.05, 1000.0, 150),
            rng.uniform(0.0, 1000.0, 120),
            [0.5 * nu, 0.9 * nu, float(nu), 1.1 * nu, 2.0 * nu + 1.0],
        ]
    )
    assert np.max(np.abs(bessel_j(nu, x) - jv(nu, x))) < 1e-10


def test_scalar_and_array_forms():
    v = bessel_j(1, 3.0)
    assert isinstance(v, float)
    arr = bessel_j(1, np.array([3.0, 4.0]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(v, abs=1e-15)


def test_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        bessel_j(-1, 1.0)
    with pytest.raises(ConfigError):
        bessel_j(0.3, 1.0)
    with pytest.raises(ConfigError):
        bessel_j(0, -1.0)
    with pytest.raises(ConfigError):
        bessel_zeros(0, 0)


def test_first_zeros_of_j0():
    z = bessel_zeros(0, 2)
    assert z[0] == pytest.approx(2.4048256, abs=1e-6)
    assert z[1] == pytest.approx(5.5200781, abs=1e-6)


@pytest.mark.parametrize("nu", [0, 1, 2, 5, 40])
def test_zeros_against_scipy(nu):
    z = bessel_zeros(nu, 30)
    ref = jn_zeros(nu, 30)
    assert np.max(np.abs(z - ref)) < 1e-10


def test_zeros_of_half_integer_orders():
    # J_{1/2} vanishes exactly at multiples of pi
    z = bessel_zeros(0.5, 10)
    assert np.max(np.abs(z - np.pi * np.arange(1, 11))) < 1e-10


def test_interlacing():
    for nu in (0, 1, 3.5, 10):
        z = bessel_zeros(nu, 12)
        znext = bessel_zeros(nu + 1, 11)
        assert np.all(znext > z[:11])
        assert np.all(znext < z[1:12])


def test_zeros_below_consistency():
    full = bessel_zeros(3, 25)
    cut = zeros_below(3, full[17])
    assert len(cut) == 17
    assert np.allclose(cut, full[:17], atol=1e-12)
    assert zeros_below(5, 4.0).size == 0  # first zero of J_5 exceeds 5
