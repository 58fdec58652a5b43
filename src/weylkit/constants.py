"""Dimension-dependent semiclassical constants.

For dimension d the toolkit uses three constants:

    omega_d = pi^{d/2} / Gamma(d/2 + 1)        volume of the unit ball
    C_d     = omega_d / (2 pi)^d               counting-function constant
    L_d     = 2/(d+2) * C_d                    first Riesz-mean constant

Each is a rational times a power of pi (DLMF 5.4.1, 5.4.6), evaluated in
exact `Fraction` arithmetic and rounded once: correctly rounded for every
accepted d, 1 <= d <= MAX_DIM = 224 (from d = 225 on L_d is subnormal).

C_d and L_d are the normalized phase-space integrals of (|p|^2 - 1)_-^0
and (|p|^2 - 1)_- over R^d; `phase_space_integral` evaluates those
integrals by radial quadrature and serves as the independent oracle for
the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigError

TWO_PI = 2.0 * math.pi
MAX_DIM = 224  # largest d whose C_d and L_d are normal float64 numbers

# pi and sqrt(pi) to 70 significant digits: each constant below is then within
# 1e-66 (relative) of its true value, for d <= MAX_DIM, before its one rounding
_PI = Fraction("3.141592653589793238462643383279502884197169399375105820974944592307816")
_SQRT_PI = Fraction("1.772453850905516027298167483341145182797549456122387128213807789852911")


def gamma_half(m: int) -> Fraction:
    """Gamma(m/2) for an integer m >= 1: (m/2 - 1)! for even m, and
    (2n)!/(4^n n!) sqrt(pi) for odd m = 2n + 1."""
    if m % 2 == 0:
        return Fraction(math.factorial(m // 2 - 1))
    n = m // 2
    return Fraction(math.factorial(2 * n), 4**n * math.factorial(n)) * _SQRT_PI


@dataclass(frozen=True)
class Constants:
    """The triple (omega_d, C_d, L_d) for a fixed dimension d."""

    omega_d: float
    C_d: float
    L_d: float


def constants(d: int) -> Constants:
    """Closed-form semiclassical constants for 1 <= d <= MAX_DIM, each
    correctly rounded."""
    if not isinstance(d, int) or d < 1:
        raise ConfigError(f"dimension must be an integer >= 1, got {d!r}")
    if d > MAX_DIM:
        raise ConfigError(f"dimension {d} is too large: L_d is subnormal in float64 "
                          f"for d > {MAX_DIM}")
    return _exact_constants(d)


def _omega(d: int) -> Fraction:
    # an odd d's sqrt(pi) cancels exactly against the one in Gamma(d/2 + 1)
    return _PI ** (d // 2) * (_SQRT_PI if d % 2 else 1) / gamma_half(d + 2)


@lru_cache(maxsize=None)
def _exact_constants(d: int) -> Constants:
    omega = _omega(d)
    c_d = omega / (2 * _PI) ** d
    return Constants(omega_d=float(omega), C_d=float(c_d), L_d=float(2 * c_d / (d + 2)))


def phase_space_fraction(d: int) -> Fraction:
    """The power-1 phase-space integral 2 omega_d / (d + 2) = (2 pi)^d L_d
    as an exact Fraction, for 1 <= d <= MAX_DIM (pi to 70 digits)."""
    constants(d)  # checks d before any exact arithmetic
    return 2 * _omega(d) / (d + 2)


def phase_space_integral(d: int, power: int) -> float:
    """Integral of (|p|^2 - 1)_-^power over R^d, by radial quadrature.

    Reduces to the 1-D integral with surface factor d*omega_d*r^{d-1}:

        d * omega_d * int_0^1 (1 - r^2)^power r^{d-1} dr

    Returns (2 pi)^d C_d for power 0 and (2 pi)^d L_d for power 1; this
    route is independent of the 2/(d+2) closed form and is the oracle
    used to cross-check `constants`.
    """
    from scipy.integrate import quad

    surface = d * constants(d).omega_d  # checks d
    if power not in (0, 1):
        raise ConfigError(f"power must be 0 or 1, got {power!r}")
    val, _err = quad(
        lambda r: (1.0 - r * r) ** power * r ** (d - 1),
        0.0,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return surface * val
