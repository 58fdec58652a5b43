"""Half-space local spectral density and its boundary-layer integrals.

The local density of the Dirichlet half-space at scaled distance
t = x_d / h from the wall is

    rho(t) = (2 pi)^-d * int 2 sin^2(xi_d t) (|xi|^2 - 1)_- dxi
           = L_d - (2 pi)^-d * K(d, t)

where K(d, t) = int cos(2 xi_d t) (|xi|^2 - 1)_- dxi is the cosine
correction. K reduces to the 1-D integral

    K(d, t) = c_d int_0^1 cos(2 s t) (1 - s^2)^{(d+1)/2} ds

and has the closed form  c'_d J_{d/2+1}(2t) / t^{d/2+1}.  Both
normalization constants are pinned by matching the t -> 0 limit of each
route to the phase-space integral of (|p|^2-1)_-, so neither depends on
external special-function identities. `cosine_integral` always evaluates
both routes and fails loudly if they disagree.

Integrating the correction over t from 0 to infinity produces the
boundary coefficient (1/4) L_{d-1}; `boundary_coefficient` verifies this
by summing segment integrals between consecutive Bessel zeros with
convergence acceleration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .bessel import bessel_j, zeros_below
from .constants import TWO_PI, constants, gamma_half, phase_space_integral
from .errors import ConfigError, ConvergenceError, InvariantViolation, NumericsError, ResourceError
from .output import csv_text, write

DUAL_EVAL_TOL = 1e-8
# longest Bessel zero scan, 2 t_max; boundary_coefficient(2, t_max) peaks at
# about 0.4 GB RSS there (84 MB at t_max = 500)
HORIZON_BUDGET = 2**17

# Gauss-Legendre rule reused for all between-zeros segment integrals
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _check_dim(d: int) -> int:
    if not isinstance(d, int) or d < 2:
        raise ConfigError(f"half-space model needs integer dimension >= 2, got {d!r}")
    return d


@lru_cache(maxsize=None)
def _norms(d: int) -> tuple[float, float]:
    """(quadrature-route constant, Bessel-route constant) for dimension d."""
    psi1 = phase_space_integral(d, 1)
    i0, _ = quad(lambda s: (1.0 - s * s) ** ((d + 1) / 2.0), 0.0, 1.0, epsabs=1e-14)
    c_quad = psi1 / i0
    # J_nu(2t)/t^nu -> 1/Gamma(nu+1) as t -> 0, nu = d/2 + 1
    return c_quad, float(Fraction(psi1) * gamma_half(d + 4))


def _cosine_bessel(d: int, t) -> np.ndarray:
    """Closed-form route for the cosine correction, vectorized over t > 0.

    c J_nu(2t) / t^nu, taken in logarithms where t^nu overflows.
    """
    nu = d / 2.0 + 1.0
    t = np.asarray(t, dtype=float)
    c, j = _norms(d)[1], bessel_j(nu, 2.0 * t)
    with np.errstate(over="ignore"):
        power = t**nu
    out = c * j / power
    far = power == math.inf
    with np.errstate(divide="ignore"):  # log 0 = -inf at a zero of J
        logs = math.log(c) + np.log(np.abs(j[far])) - nu * np.log(t[far])
    out[far] = np.sign(j[far]) * np.exp(logs)
    return out


def cosine_integral(d: int, t):
    """int cos(2 xi_d t)(|xi|^2 - 1)_- dxi over R^d, dual-evaluated.

    `t` is a scalar (returns a float) or an array (returns an array of its
    shape). The Bessel closed form runs once over all t; the reduced 1-D
    integral runs for every t by QUADPACK's QAWO rule for Fourier
    integrals (`quad` with weight='cos'), whose cost barely grows with t
    and which uses no Bessel function. Raises
    NumericsError at the first t, in input order, where the two routes
    differ by more than DUAL_EVAL_TOL, otherwise returns the Bessel-form
    values.
    """
    d = _check_dim(d)
    ts = np.asarray(t, dtype=float)
    if (ts <= 0).any():
        raise ConfigError(f"t must be positive, got {float(ts[ts <= 0][0])}")
    flat = ts.ravel()
    c_quad, _ = _norms(d)
    expo = (d + 1) / 2.0
    via_bessel = _cosine_bessel(d, flat)
    for ti, vb in zip(flat.tolist(), via_bessel.tolist()):
        val, _err = quad(
            lambda s: (1.0 - s * s) ** expo,
            0.0,
            1.0,
            weight="cos",
            wvar=2.0 * ti,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        via_quad = c_quad * val
        if abs(via_quad - vb) > DUAL_EVAL_TOL:
            raise NumericsError(
                f"cosine integral routes disagree at d={d}, t={ti}: "
                f"quadrature {via_quad!r} vs Bessel {vb!r}")
    return float(via_bessel[0]) if ts.ndim == 0 else via_bessel.reshape(ts.shape)


def density_profile(d: int, t):
    """rho(t): 0 at the wall, tending to the bulk value L_d as t grows.

    `t` is a scalar (returns a float) or an array (returns an array of its
    shape); the t > 0 go through one dual-evaluated `cosine_integral` call.
    """
    d = _check_dim(d)
    ts = np.asarray(t, dtype=float)
    if (ts < 0).any():
        raise ConfigError(f"t must be nonnegative, got {float(ts[ts < 0][0])}")
    rho = np.zeros(ts.shape)  # the 2 sin^2 weight vanishes identically at the wall
    off_wall = ts != 0.0
    rho[off_wall] = constants(d).L_d - cosine_integral(d, ts[off_wall]) / TWO_PI**d
    return float(rho) if ts.ndim == 0 else rho


def _segment_bounds(d: int, t_max: float) -> np.ndarray:
    """[0, z_1, z_2, ...]: zeros of the correction's Bessel factor <= t_max."""
    if not 2.0 * t_max <= HORIZON_BUDGET:
        raise ResourceError(
            f"horizon t_max={t_max!r} scans Bessel zeros up to 2 t_max = {2.0 * t_max!r}, "
            f"over the budget {HORIZON_BUDGET}")
    nu = d / 2.0 + 1.0
    zs = zeros_below(nu, 2.0 * t_max) / 2.0
    return np.concatenate([[0.0], zs])


def _segment_integrals(d: int, bounds: np.ndarray, *, weight_t: bool) -> np.ndarray:
    """GL integral of (2 pi)^-d K(d, t) (optionally times t) per segment."""
    a = bounds[:-1]
    b = bounds[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    ts = mid + half * _GL_NODES[None, :]
    vals = _cosine_bessel(d, ts.ravel()).reshape(ts.shape) / TWO_PI**d
    if weight_t:
        vals = vals * ts
    return (vals * _GL_WEIGHTS[None, :]).sum(axis=1) * half[:, 0]


def boundary_partial_sums(d: int, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Partial integrals of the normalized correction at each Bessel zero.

    Consecutive partial sums bracket the limiting value (1/4) L_{d-1} with
    alternating sign.
    """
    d = _check_dim(d)
    bounds = _segment_bounds(d, t_max)
    segs = _segment_integrals(d, bounds, weight_t=False)
    return bounds[1:], np.cumsum(segs)


def boundary_coefficient(d: int, t_max: float, *, tol: float = 1e-4) -> float:
    """(2 pi)^-d int_0^inf K(d, t) dt estimated from segments within t_max.

    Oscillation-aware: integrates between consecutive zeros of the Bessel
    factor, then accelerates the alternating sequence of partial sums by
    repeated averaging. Converges to (1/4) L_{d-1}. Raises
    ConvergenceError when the acceleration's error estimate exceeds `tol`
    (horizon too small).
    """
    d = _check_dim(d)
    if t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    _, partial = boundary_partial_sums(d, t_max)
    if partial.size < 6:
        raise ConvergenceError(
            f"only {partial.size} oscillation segments below t_max={t_max}; "
            "horizon too small to accelerate")
    tail = partial[-min(60, partial.size) :]
    prev_final = tail[-1]
    est_err = math.inf
    row = tail
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
        est_err = abs(row[-1] - prev_final)
        prev_final = row[-1]
    if est_err > tol:
        raise ConvergenceError(
            f"boundary coefficient only converged to {est_err:.3g} > tol {tol:g} "
            f"within t_max={t_max}")
    return float(prev_final)


def absolute_moment(d: int, t_max: float) -> float:
    """int_0^t_max t |(2 pi)^-d K(d, t)| dt by between-zeros quadrature."""
    d = _check_dim(d)
    bounds = _segment_bounds(d, t_max)
    segs = _segment_integrals(d, bounds, weight_t=True)
    return float(np.sum(np.abs(segs)))


def tail_bound_check(d: int, t_max: float = 400.0) -> float:
    """Extrapolated value of int_0^inf t |correction(t)| dt.

    Evaluates the truncated integral at horizons t_max/4, t_max/2, t_max,
    removes the known power-law tail (the normalized correction decays
    like t^{-(d+3)/2}, so the truncation error scales as T^{-(d-1)/2}),
    and checks that the truncated values are Cauchy; a non-decreasing
    sequence of increments raises InvariantViolation.
    """
    d = _check_dim(d)
    if t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    bounds = _segment_bounds(d, t_max)
    segs = np.abs(_segment_integrals(d, bounds, weight_t=True))
    cum = np.cumsum(segs)
    ends = bounds[1:]
    horizons = []
    for target in (t_max / 4.0, t_max / 2.0, t_max):
        k = int(np.searchsorted(ends, target, side="right")) - 1
        if k < 1:
            raise ConvergenceError(f"horizon {target} holds no full oscillation segment")
        horizons.append((float(ends[k]), float(cum[k])))
    (t1, i1), (t2, i2), (t3, i3) = horizons
    if (i3 - i2) >= (i2 - i1):
        raise InvariantViolation(
            f"t-weighted correction integral is not Cauchy in the horizon at d={d}: "
            f"increments {i2 - i1!r} then {i3 - i2!r}"
        )
    p = (d - 1) / 2.0
    c = (i3 - i2) / (t2**-p - t3**-p)
    return float(i3 + c * t3**-p)


def profile_to_csv(d: int, t_values, path) -> None:
    """Density profile as CSV rows t,rho,bulk."""
    d = _check_dim(d)
    ts = np.array([float(t) for t in t_values])
    rho = density_profile(d, ts)
    write(csv_text(["t", "rho", "bulk"], [ts, rho, np.full(ts.shape, constants(d).L_d)]), path)
