import importlib
import math
import time

import mpmath
import numpy as np
import pytest

from weylkit import halfspace
from weylkit.constants import (
    MAX_DIM,
    TWO_PI,
    Constants,
    constants,
    gamma_half,
    phase_space_integral,
)
from weylkit.errors import ConfigError

mpmath.mp.dps = 80


def _mp_constants(d):
    omega = mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1)
    c_d = omega / (2 * mpmath.pi) ** d
    return omega, c_d, 2 * c_d / (d + 2)


def test_constants_correctly_rounded_for_every_dimension():
    """omega_d, C_d and L_d are float() of their 80-digit values, so no
    float64 is closer, for every accepted d; L_d is a normal float64 there."""
    assert MAX_DIM == 224
    for d in range(1, MAX_DIM + 1):
        c = constants(d)
        assert (c.omega_d, c.C_d, c.L_d) == tuple(float(v) for v in _mp_constants(d)), d
    assert constants(MAX_DIM).L_d >= np.finfo(float).tiny
    assert float(_mp_constants(MAX_DIM + 1)[2]) < np.finfo(float).tiny


def test_gamma_half_against_mpmath():
    for m in range(1, MAX_DIM + 5):
        assert float(gamma_half(m)) == float(mpmath.gamma(mpmath.mpf(m) / 2)), m


def test_bessel_norm_correctly_rounded():
    """Both half-space constants are their exact products rounded once, so
    no float64 is closer to the 80-digit values: psi1 / i0 for the
    quadrature route and psi1 Gamma(d/2 + 2) for the Bessel route, with
    psi1 = 2 omega_d / (d + 2) and i0 = int_0^1 (1 - s^2)^((d+1)/2) ds."""
    with mpmath.workdps(80):
        for d in range(2, MAX_DIM + 1):
            half = mpmath.mpf(d) / 2
            psi1 = 2 * _mp_constants(d)[0] / (d + 2)
            i0 = mpmath.sqrt(mpmath.pi) * mpmath.gamma(half + 1.5) / (2 * mpmath.gamma(half + 2))
            want = (float(psi1 / i0), float(psi1 * mpmath.gamma(half + 2)))
            assert halfspace._norms(d) == want, d
        # i0's closed form against quadrature
        for d in (2, 3, 10):
            i0 = mpmath.quad(lambda s: (1 - s * s) ** (mpmath.mpf(d + 1) / 2), [0, 1])
            assert float(2 * _mp_constants(d)[0] / (d + 2) / i0) == halfspace._norms(d)[0], d


@pytest.mark.parametrize("d", [MAX_DIM + 1, 226, 283, 100000, 10**12])
def test_rejects_dimension_above_max_before_any_arithmetic(d):
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=f"dimension {d} is too large"):
        constants(d)
    with pytest.raises(ConfigError, match=f"dimension {d} is too large"):
        phase_space_integral(d, 1)
    assert time.perf_counter() - start < 1.0


def test_exact_arithmetic_once_per_dimension():
    exact = importlib.import_module("weylkit.constants")._exact_constants
    exact.cache_clear()
    first = constants(7)
    for _ in range(600):
        assert constants(7) is first
    assert exact.cache_info().misses == 1
    # the argument check runs before the cache, where 2.0 == 2 would hit
    constants(2)
    for bad in (2.0, 0, -1, "2", None):
        with pytest.raises(ConfigError):
            constants(bad)


def test_d2_closed_forms():
    c = constants(2)
    assert c.omega_d == math.pi
    assert c.C_d == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert c.L_d == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-14)


def test_d1_closed_forms():
    c = constants(1)
    assert c.omega_d == pytest.approx(2.0, rel=1e-14)
    assert c.C_d == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert c.L_d == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)


def test_ratio_is_two_over_d_plus_two():
    for d in range(1, 12):
        c = constants(d)
        assert c.L_d / c.C_d == pytest.approx(2.0 / (d + 2.0), rel=1e-13)


def test_rejects_dimension_zero():
    with pytest.raises(ConfigError):
        constants(0)
    with pytest.raises(ConfigError):
        phase_space_integral(0, 1)
    with pytest.raises(ConfigError):
        phase_space_integral(2, 3)


def test_phase_space_integral_known_values():
    # indicator integrates to the unit-ball volume
    assert phase_space_integral(2, 0) == pytest.approx(math.pi, abs=1e-12)
    # 2 pi * int_0^1 (1 - r^2) r dr = pi / 2
    assert phase_space_integral(2, 1) == pytest.approx(math.pi / 2.0, abs=1e-12)
    # d = 3: (2 pi)^3 L_3 with L_3 = (2/5) C_3 = 1/(15 pi^2)
    assert phase_space_integral(3, 1) == pytest.approx(8.0 * math.pi / 15.0, abs=1e-10)


def test_phase_space_integral_brute_force_2d():
    # independent cartesian-grid check of the radial reduction
    g = np.linspace(-1.0, 1.0, 2001)
    xx, yy = np.meshgrid(g, g)
    f = np.clip(1.0 - xx * xx - yy * yy, 0.0, None)
    brute = np.trapezoid(np.trapezoid(f, g, axis=0), g)
    assert phase_space_integral(2, 1) == pytest.approx(brute, abs=5e-6)


def test_oracle_agreement_d_1_to_10():
    for d in range(1, 11):
        c = constants(d)
        assert abs(c.C_d - phase_space_integral(d, 0) / TWO_PI**d) < 1e-10 * c.C_d
        assert abs(c.L_d - phase_space_integral(d, 1) / TWO_PI**d) < 1e-10 * c.L_d


def test_monotone_after_single_maximum():
    cs = [constants(d).C_d for d in range(1, 21)]
    ls = [constants(d).L_d for d in range(1, 21)]
    for seq in (cs, ls):
        peak = int(np.argmax(seq))
        tail = seq[peak:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert all(v > 0 for v in seq)


def test_l_below_c():
    for d in range(1, 21):
        c = constants(d)
        assert c.L_d < c.C_d


def test_frozen_dataclass():
    c = constants(3)
    assert isinstance(c, Constants)
    with pytest.raises(AttributeError):
        c.C_d = 1.0
