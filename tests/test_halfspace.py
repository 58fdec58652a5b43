import csv
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from weylkit import halfspace
from weylkit.bessel import bessel_j
from weylkit.constants import TWO_PI, constants, phase_space_integral
from weylkit.errors import ConfigError, ConvergenceError, NumericsError
from weylkit.halfspace import (
    absolute_moment,
    boundary_coefficient,
    boundary_partial_sums,
    cosine_integral,
    density_profile,
    profile_to_csv,
    tail_bound_check,
)


def test_small_t_limit_matches_phase_space_integral():
    for d in (2, 3, 4):
        target = phase_space_integral(d, 1)
        assert cosine_integral(d, 1e-8) == pytest.approx(target, rel=1e-9)


def test_dual_evaluation_grid():
    # the call itself raises if quadrature and Bessel form disagree > 1e-8
    for d in (2, 3, 4):
        for t in (0.1, 1.0, 5.0, 10.0, 50.0):
            cosine_integral(d, t)


def test_oscillation_and_decay():
    ts = np.linspace(0.05, 20.0, 400)
    vals = np.array([cosine_integral(2, t) for t in ts])
    signs = np.sign(vals)
    changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    assert changes >= 5
    # magnitude at t = 10 is well below the t -> 0 value
    assert abs(cosine_integral(2, 10.0)) < 0.02 * phase_space_integral(2, 1)


def test_invalid_arguments():
    with pytest.raises(ConfigError):
        cosine_integral(1, 1.0)
    with pytest.raises(ConfigError):
        cosine_integral(2, 0.0)
    with pytest.raises(ConfigError):
        density_profile(2, -1.0)
    with pytest.raises(ConfigError):
        density_profile(1, 3.0)
    for t_max in (0.0, -3.0):
        with pytest.raises(ConfigError, match=f"t_max must be positive, got {t_max}"):
            tail_bound_check(2, t_max)


def test_profile_wall_and_bulk():
    assert density_profile(2, 0.0) == 0.0
    l2 = constants(2).L_d
    assert abs(density_profile(2, 100.0) - l2) < 1e-3
    assert abs(density_profile(3, 100.0) - constants(3).L_d) < 1e-3


def test_halfspace_density_object():
    # The bulk density is constants(d).L_d and the half-space profile is
    # density_profile(d, t); d = 1 has no profile.
    bulk = constants(2).L_d
    assert bulk == pytest.approx(2 / 4 * constants(2).C_d, rel=1e-15)
    assert density_profile(2, 0.0) == 0.0
    assert 0.0 < density_profile(2, 3.0) < 2 * bulk
    with pytest.raises(ConfigError):
        density_profile(1, 3.0)


def test_profile_bounds():
    l2 = constants(2).L_d
    for t in np.concatenate([np.linspace(0.01, 10, 60), [25.0, 60.0]]):
        rho = density_profile(2, float(t))
        assert -1e-12 <= rho <= 1.3 * l2


def test_boundary_coefficient_values():
    assert boundary_coefficient(2, 200.0) == pytest.approx(
        1.0 / (6.0 * math.pi), abs=1e-4
    )
    assert boundary_coefficient(3, 200.0) == pytest.approx(
        0.25 * constants(2).L_d, abs=1e-4
    )
    # the identity target is 1/(32 pi) in d = 3
    assert 0.25 * constants(2).L_d == pytest.approx(1.0 / (32.0 * math.pi), rel=1e-13)


def test_boundary_coefficient_converges_in_horizon():
    vals = [boundary_coefficient(2, t) for t in (50.0, 100.0, 200.0)]
    target = 0.25 * constants(1).L_d
    errs = [abs(v - target) for v in vals]
    assert errs[-1] < 1e-6
    assert max(errs) < 1e-4


def test_boundary_partial_sums_bracket():
    ts, partial = boundary_partial_sums(2, 40.0)
    target = 0.25 * constants(1).L_d
    signs = np.sign(partial - target)
    assert np.all(signs[:-1] * signs[1:] < 0)  # alternating around the limit


def test_boundary_coefficient_horizon_too_small():
    with pytest.raises(ConvergenceError):
        boundary_coefficient(2, 4.0)
    with pytest.raises(ConfigError):
        boundary_coefficient(2, -1.0)


def test_profile_integral_reproduces_boundary_coefficient():
    # int_0^T (L_d - rho) dt equals the truncated boundary-coefficient
    # integral; compare the accelerated value against the identity target
    d = 2
    target = 0.25 * constants(1).L_d
    assert boundary_coefficient(d, 120.0) == pytest.approx(target, abs=1e-6)


def test_tail_bound_finite_and_stable():
    for d in (2, 3):
        a = tail_bound_check(d, 100.0)
        b = tail_bound_check(d, 400.0)
        assert math.isfinite(a) and a > 0
        assert abs(a - b) < 1e-3
    # faster decay in d = 3 gives smaller stabilization error
    d2 = abs(tail_bound_check(2, 100.0) - tail_bound_check(2, 400.0))
    d3 = abs(tail_bound_check(3, 100.0) - tail_bound_check(3, 400.0))
    assert d3 < d2


def test_integrand_vanishes_at_origin():
    # t * correction is O(t) near 0: no singularity in the moment integral
    small = absolute_moment(2, 0.9)
    assert small < 0.5 * phase_space_integral(2, 1) / TWO_PI**2


def test_profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    profile_to_csv(2, [0.0, 1.0, 5.0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,rho,bulk"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == 0.0


# ---------------------------------------------------------------------------
# batched profile against the per-point reference


def _reference_cosine_integral(d, t):
    """The per-point dual evaluation that the batched one replaced."""
    t = float(t)
    c_quad, c_bessel = halfspace._norms(d)
    expo = (d + 1) / 2.0
    val, _err = quad(
        lambda s: math.cos(2.0 * s * t) * (1.0 - s * s) ** expo,
        0.0,
        1.0,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=max(100, int(t)),
    )
    via_quad = c_quad * val
    nu = d / 2.0 + 1.0
    tt = np.asarray(t, dtype=float)
    via_bessel = float(c_bessel * bessel_j(nu, 2.0 * tt) / tt**nu)
    assert abs(via_quad - via_bessel) <= halfspace.DUAL_EVAL_TOL
    return via_bessel


def _reference_profile_to_csv(d, t_values, path):
    """The csv.writer loop over scalar density_profile calls."""
    bulk = constants(d).L_d
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "rho", "bulk"])
        for t in t_values:
            t = float(t)
            rho = 0.0 if t == 0.0 else bulk - _reference_cosine_integral(d, t) / TWO_PI**d
            w.writerow([repr(t), repr(rho), repr(bulk)])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("T", [30.0, 50.0])
def test_profile_csv_matches_per_point_reference(tmp_path, d, T):
    ts = np.linspace(0.0, T, 201)
    profile_to_csv(d, ts, tmp_path / "new.csv")
    _reference_profile_to_csv(d, ts, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batched_cosine_integral_is_bitwise_scalar(d):
    ts = np.concatenate([np.geomspace(1e-6, 300.0, 60), [0.5, 7.25, 0.5]])
    batch = cosine_integral(d, ts)
    assert isinstance(cosine_integral(d, 2.0), float)
    scalars = np.array([cosine_integral(d, float(t)) for t in ts])
    assert batch.shape == ts.shape
    assert np.array_equal(batch.view(np.int64), scalars.view(np.int64))
    grid = cosine_integral(d, ts[:60].reshape(6, 10))
    assert np.array_equal(grid.ravel().view(np.int64), scalars[:60].view(np.int64))
    rho = density_profile(d, np.concatenate([[0.0], ts]))
    assert rho[0] == 0.0
    assert np.array_equal(rho[1:], [density_profile(d, float(t)) for t in ts])


def test_batched_errors_name_the_first_bad_t(monkeypatch):
    with pytest.raises(ConfigError, match=r"t must be positive, got -2\.0$"):
        cosine_integral(2, np.array([1.0, -2.0, 0.0]))
    with pytest.raises(ConfigError, match=r"t must be nonnegative, got -1\.5$"):
        density_profile(2, np.array([0.0, 1.0, -1.5, -3.0]))
    real = halfspace._cosine_bessel
    # shift the Bessel route from t = 2 on, so the first disagreement is there
    monkeypatch.setattr(
        halfspace, "_cosine_bessel", lambda d, t: real(d, t) + np.where(t >= 2.0, 1e-6, 0.0)
    )
    with pytest.raises(NumericsError, match=r"at d=2, t=3\.0: quadrature "):
        cosine_integral(2, np.array([1.0, 3.0, 2.0]))



def _mpmath_cosine_integral(d: int, t: float):
    """c'_d J_nu(2t) / t^nu, nu = d/2 + 1, at 50 digits."""
    mpmath.mp.dps = 50
    nu = mpmath.mpf(d) / 2 + 1
    psi1 = mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1) * 2 / (d + 2)
    return psi1 * mpmath.gamma(nu + 1) * mpmath.besselj(nu, 2 * mpmath.mpf(t)) / mpmath.mpf(t) ** nu


@pytest.mark.parametrize("d,t", [(224, 1000.0), (224, 540.0), (200, 2000.0)])
def test_cosine_integral_past_the_float_range_of_t_power(d, t):
    # t^(d/2+1) overflows at each of these t, yet the correction is a normal float
    assert (d / 2 + 1) * math.log10(t) > 308.3
    want = _mpmath_cosine_integral(d, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cosine_integral(d, t)
    assert got != 0.0
    assert abs(got - float(want)) <= 1e-9 * abs(float(want))


def test_profile_at_d224_has_no_overflow_warning(tmp_path):
    """The argv whose t^113 overflowed: no warning under -W error, and rho is
    still L_d bit for bit at t = 500 and 1000."""
    src = Path(halfspace.__file__).resolve().parents[1]
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "weylkit.cli", "halfspace", "--d", "224",
         "--check", "profile", "--T", "1000", "--count", "3", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes() == (
        b"t,rho,bulk\r\n0.0,0.0,3.467034311839876e-308\r\n"
        b"500.0,3.467034311839876e-308,3.467034311839876e-308\r\n"
        b"1000.0,3.467034311839876e-308,3.467034311839876e-308\r\n")


# ---------------------------------------------------------------------------
# the dual route: a numpy Fourier rule at the edges of its envelope


def _mpmath_reduced_integral(d: int, t: float):
    """int_0^1 (1 - s^2)^p cos(2 t s) ds = sqrt(pi) Gamma(p + 1) J_{p+1/2}(w) / (2 (w/2)^(p+1/2)),
    w = 2t, p = (d + 1)/2, at 40 digits."""
    with mpmath.workdps(40):
        p = mpmath.mpf(d + 1) / 2
        w = 2 * mpmath.mpf(t)
        return (mpmath.sqrt(mpmath.pi) * mpmath.gamma(p + 1) * mpmath.besselj(p + 0.5, w)
                / (2 * (w / 2) ** (p + 0.5)))


def _i0(d: int) -> float:
    """The t = 0 value, sqrt(pi) Gamma(p + 1) / (2 Gamma(p + 3/2))."""
    p = mpmath.mpf(d + 1) / 2
    return float(mpmath.sqrt(mpmath.pi) * mpmath.gamma(p + 1) / (2 * mpmath.gamma(p + 1.5)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 10, 224])
def test_fourier_route_against_mpmath(d):
    ts = np.array([1e-6, 1.0, 50.0, 1e3, 1e7])
    got = halfspace._cosine_fourier(d, ts)
    want = np.array([float(_mpmath_reduced_integral(d, t)) for t in ts])
    assert np.all(np.abs(got - want) <= 3e-15 * _i0(d)), np.abs(got - want) / _i0(d)


def test_fourier_route_cost_is_flat_in_t(monkeypatch):
    """The rule evaluates the weight at the same nodes whatever t, from at
    most 30 panels; a t then costs at most one Gauss-Legendre rule per panel."""
    counted = []
    real = halfspace._weight
    monkeypatch.setattr(halfspace, "_weight", lambda d, s: counted.append(np.size(s)) or real(d, s))
    for d in (2, 224):
        nodes = []
        for t in (1e-6, 1.0, 50.0, 1e3, 1e7):
            halfspace._fourier_panels.cache_clear()
            counted.clear()
            halfspace._cosine_fourier(d, np.array([t]))
            nodes.append(sum(counted))
        panels = halfspace._fourier_panels(d)[0].size
        assert panels <= 30
        assert nodes == [nodes[0]] * 5
        # per panel its Chebyshev points, its GL nodes and at most one tail test
        assert nodes[0] <= panels * (halfspace._FOURIER_DEG + halfspace._FOURIER_GL + 2) + 1
    halfspace._fourier_panels.cache_clear()


def test_dual_check_is_relative_to_psi1(monkeypatch):
    """From moderate d on, K(d, t) <= psi1 is far below 1: at d = 40 psi1 is
    1.7e-10, so a Bessel route off by 1e-6 psi1 must still be refused."""
    d = 40
    ts = np.array([0.1, 1.0, 5.0, 10.0, 50.0])
    psi1 = phase_space_integral(d, 1)
    assert psi1 < 2e-10
    cosine_integral(d, ts)
    real = halfspace._cosine_bessel
    monkeypatch.setattr(halfspace, "_cosine_bessel",
                        lambda d, t: real(d, t) + np.where(t >= 5.0, 1e-6 * psi1, 0.0))
    with pytest.raises(NumericsError, match=r"routes disagree at d=40, t=5\.0: quadrature "
                                            r".* vs Bessel "):
        cosine_integral(d, ts)
