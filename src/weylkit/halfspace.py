"""Half-space local spectral density and its boundary-layer integrals.

The local density of the Dirichlet half-space at scaled distance
t = x_d / h from the wall is

    rho(t) = (2 pi)^-d * int 2 sin^2(xi_d t) (|xi|^2 - 1)_- dxi
           = L_d - (2 pi)^-d * K(d, t)

where K(d, t) = int cos(2 xi_d t) (|xi|^2 - 1)_- dxi is the cosine
correction. K reduces to the 1-D integral

    K(d, t) = c_d int_0^1 cos(2 s t) (1 - s^2)^{(d+1)/2} ds

and has the closed form  c'_d J_{d/2+1}(2t) / t^{d/2+1}.  Both
normalization constants are pinned by the t -> 0 limit of each route,
K(d, 0) = psi_1 = int (|p|^2 - 1)_- dp = 2 omega_d / (d + 2): c_d is psi_1
over i_0 = int_0^1 (1 - s^2)^{(d+1)/2} ds, and c'_d is psi_1 Gamma(d/2 + 2).
Both are exact Fractions rounded once. `cosine_integral` always evaluates
both routes, the reduced integral by a Filon-Clenshaw-Curtis rule that
uses no Bessel function, and fails loudly if they disagree.

Integrating the correction over t from 0 to infinity produces the
boundary coefficient (1/4) L_{d-1}; `boundary_coefficient` verifies this
by summing segment integrals between consecutive Bessel zeros with
convergence acceleration.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bessel import bessel_j, zeros_below
from .constants import TWO_PI, constants, gamma_half, phase_space_fraction
from .errors import ConfigError, ConvergenceError, InvariantViolation, NumericsError, ResourceError
from .output import csv_text, write

DUAL_EVAL_TOL = 1e-8  # in units of min(1, psi_1), psi_1 = K(d, 0) = max |K(d, t)|
# longest Bessel zero scan, 2 t_max; boundary_coefficient(2, t_max) peaks at
# about 0.4 GB RSS there (84 MB at t_max = 500)
HORIZON_BUDGET = 2**17

# Gauss-Legendre rule reused for all between-zeros segment integrals
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# Fourier rule of the dual route: per panel, a Chebyshev fit of this degree
# or Gauss-Legendre with this many nodes; a panel of half-width w takes the
# moments once its local frequency 2 t w exceeds the switch, from where
# their forward recurrence up to the degree loses under 1e-15 (measured)
_FOURIER_DEG = 24
_FOURIER_GL = 32
_FOURIER_SWITCH = 16.0
_FOURIER_TAIL = 1e-18  # bound on the dropped int_b^1 of the weight
_FOURIER_CHUNK = 1024  # t values per batch; bounds the rule's memory


def _check_dim(d: int) -> int:
    if not isinstance(d, int) or d < 2:
        raise ConfigError(f"half-space model needs integer dimension >= 2, got {d!r}")
    return d


@lru_cache(maxsize=None)
def _norms(d: int) -> tuple[float, float]:
    """(quadrature-route constant psi_1 / i_0, Bessel-route constant
    psi_1 Gamma(d/2 + 2)) for dimension d, each an exact Fraction rounded
    once; i_0 = sqrt(pi) Gamma((d+3)/2) / (2 Gamma(d/2 + 2))."""
    psi1 = phase_space_fraction(d)  # checks d
    i0 = gamma_half(1) * gamma_half(d + 3) / (2 * gamma_half(d + 4))
    # J_nu(2t)/t^nu -> 1/Gamma(nu+1) as t -> 0, nu = d/2 + 1
    return float(psi1 / i0), float(psi1 * gamma_half(d + 4))


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


def _weight(d: int, s: np.ndarray) -> np.ndarray:
    """(1 - s^2)^{(d+1)/2}, the weight of the reduced integral."""
    return (1.0 - s * s) ** ((d + 1) / 2.0)


@lru_cache(maxsize=None)
def _fourier_panels(d: int) -> tuple[np.ndarray, ...]:
    """The panels of [0, 1] for the reduced integral, with what each needs.

    Equal panels of width 1/(2m), m = ceil(sqrt(p/3)), cover [0, 1/2]
    (the weight's width is about 1/sqrt(p), p = (d+1)/2), then each panel
    is half as wide as the one before, toward the singular end s = 1,
    until the rest [b, 1] holds at most (1 - b) w(b) <= _FOURIER_TAIL. For
    odd d the weight is a polynomial, and the equal panels cover [0, 1].
    Returns the panels' centers and half-widths, the Chebyshev
    coefficients of the weight on each, and the Gauss-Legendre nodes with
    their weights times the weight's values.
    """
    m = math.ceil(math.sqrt((d + 1) / 6.0))
    edges = [k / (2.0 * m) for k in range(m * (1 + d % 2) + 1)]
    while (1.0 - edges[-1]) * _weight(d, edges[-1]) > _FOURIER_TAIL:
        edges.append(1.0 - 0.5 * (1.0 - edges[-1]))
    edges = np.array(edges)
    center, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    n = _FOURIER_DEG + 1
    theta = math.pi * (np.arange(n) + 0.5) / n
    basis = np.cos(np.outer(np.arange(n), theta)) * (2.0 / n)
    basis[0] *= 0.5
    coef = _weight(d, center[:, None] + half[:, None] * np.cos(theta)) @ basis.T
    x, w = np.polynomial.legendre.leggauss(_FOURIER_GL)
    nodes = center[:, None] + half[:, None] * x
    return center, half, coef, nodes, half[:, None] * w * _weight(d, nodes)


def _chebyshev_fourier(coef: np.ndarray, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: (sum over even k of a_k int_{-1}^1 T_k(x) cos(kappa x) dx,
    sum over odd k of a_k int_{-1}^1 T_k(x) sin(kappa x) dx), from the
    forward recurrence of the moments (Piessens & Branders 1975), which is
    stable while k stays below about kappa. The cosine moments of odd k
    and the sine moments of even k vanish."""
    sin, cos = np.sin(kappa), np.cos(kappa)
    m = [2.0 * sin / kappa]  # m_k: the cosine moment for even k, the sine moment for odd k
    m.append((m[0] - 2.0 * cos) / kappa)
    m.append((2.0 * sin - 4.0 * m[1]) / kappa)
    for k in range(2, _FOURIER_DEG):
        if k % 2:
            inner = -(2.0 * sin / (k * k - 1) + m[k])
        else:
            inner = 2.0 * cos / (k * k - 1) + m[k]
        m.append(2.0 * (k + 1) / kappa * inner + (k + 1) / (k - 1) * m[k - 1])
    m = np.array(m)
    return (coef[:, 0::2] * m[0::2].T).sum(axis=1), (coef[:, 1::2] * m[1::2].T).sum(axis=1)


def _cosine_fourier(d: int, t: np.ndarray) -> np.ndarray:
    """int_0^1 (1 - s^2)^{(d+1)/2} cos(2 t s) ds for a 1-D array t >= 0.

    Filon-Clenshaw-Curtis on the panels of `_fourier_panels`: a panel is
    summed by Gauss-Legendre while its local frequency 2 t w (w its
    half-width) is at most _FOURIER_SWITCH, and otherwise by the cosine
    and sine moments of its Chebyshev fit. Either way a panel costs at
    most _FOURIER_GL terms, whatever t, and the weight's nodes are fixed
    per d. Within 3e-15 i_0 of the closed form for 2 <= d <= 224 and
    1e-6 <= t <= 1e7 (measured against mpmath).
    """
    center, half, coef, nodes, wts = _fourier_panels(d)
    out = np.empty(t.size)
    for lo in range(0, t.size, _FOURIER_CHUNK):
        omega = 2.0 * t[lo: lo + _FOURIER_CHUNK]
        kappa = omega[:, None] * half
        low = kappa <= _FOURIER_SWITCH
        acc = np.zeros(omega.size)
        it, ip = np.nonzero(low)
        acc += np.bincount(it, (wts[ip] * np.cos(omega[it, None] * nodes[ip])).sum(axis=1),
                           minlength=omega.size)
        it, ip = np.nonzero(~low)
        if it.size:
            even, odd = _chebyshev_fourier(coef[ip], kappa[it, ip])
            phase = omega[it] * center[ip]
            acc += np.bincount(it, half[ip] * (np.cos(phase) * even - np.sin(phase) * odd),
                               minlength=omega.size)
        out[lo: lo + omega.size] = acc
    return out


def cosine_integral(d: int, t):
    """int cos(2 xi_d t)(|xi|^2 - 1)_- dxi over R^d, dual-evaluated.

    `t` is a scalar (returns a float) or an array (returns an array of its
    shape). The Bessel closed form and the reduced 1-D integral each run
    once over all t. The latter is `_cosine_fourier`, a Filon-Clenshaw-
    Curtis rule that uses no Bessel function: within 3e-15 i_0 for
    2 <= d <= 224 and 1e-6 <= t <= 1e7, at most 32 terms per panel and t
    (at most 25 panels, for d = 2), so its cost is flat in t. Raises
    NumericsError at the first t, in input order, where the two routes
    differ by more than DUAL_EVAL_TOL min(1, psi_1), otherwise returns the
    Bessel-form values. psi_1 = K(d, 0) is the largest |K(d, t)|, so from
    moderate d on, where psi_1 is small, the check stays relative to it.
    """
    d = _check_dim(d)
    ts = np.asarray(t, dtype=float)
    if (ts <= 0).any():
        raise ConfigError(f"t must be positive, got {float(ts[ts <= 0][0])}")
    flat = ts.ravel()
    c_quad, _ = _norms(d)
    via_bessel = _cosine_bessel(d, flat)
    via_quad = c_quad * _cosine_fourier(d, flat)
    tol = DUAL_EVAL_TOL * min(1.0, float(phase_space_fraction(d)))
    bad = np.flatnonzero(~(np.abs(via_quad - via_bessel) <= tol))
    if bad.size:
        i = bad[0]
        raise NumericsError(
            f"cosine integral routes disagree at d={d}, t={flat[i].item()}: "
            f"quadrature {via_quad[i].item()!r} vs Bessel {via_bessel[i].item()!r}")
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
