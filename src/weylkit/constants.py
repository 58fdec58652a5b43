"""Dimension-dependent semiclassical constants.

For dimension d the toolkit uses three constants:

    omega_d = pi^{d/2} / Gamma(d/2 + 1)        volume of the unit ball
    C_d     = omega_d / (2 pi)^d               counting-function constant
    L_d     = 2/(d+2) * C_d                    first Riesz-mean constant

C_d and L_d are the normalized phase-space integrals of (|p|^2 - 1)_-^0
and (|p|^2 - 1)_- over R^d; `phase_space_integral` evaluates those
integrals by radial quadrature and serves as the independent oracle for
the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

# Lanczos approximation, g = 7, 9 coefficients. Relative accuracy ~1e-15
# for the positive real arguments used here (d/2 + k with d <= ~40).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function via the Lanczos series (reflection for x < 0.5)."""
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(TWO_PI) * t ** (x + 0.5) * math.exp(-t) * acc


@dataclass(frozen=True)
class Constants:
    """The triple (omega_d, C_d, L_d) for a fixed dimension d."""

    d: int
    omega_d: float
    C_d: float
    L_d: float


def unit_ball_volume(d: int) -> float:
    try:
        return math.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0)
    except OverflowError:
        raise ConfigError(f"dimension {d} is too large: Gamma(d/2 + 1) overflows") from None


def constants(d: int) -> Constants:
    """Closed-form semiclassical constants for dimension d >= 1."""
    if not isinstance(d, int) or d < 1:
        raise ConfigError(f"dimension must be an integer >= 1, got {d!r}")
    omega = unit_ball_volume(d)
    c_d = omega / TWO_PI**d
    l_d = 2.0 / (d + 2.0) * c_d
    return Constants(d=d, omega_d=omega, C_d=c_d, L_d=l_d)


def phase_space_integral(d: int, power: int) -> float:
    """Integral of (|p|^2 - 1)_-^power over R^d, by radial quadrature.

    Reduces to the 1-D integral with surface factor d*omega_d*r^{d-1}:

        d * omega_d * int_0^1 (1 - r^2)^power r^{d-1} dr

    Returns (2 pi)^d C_d for power 0 and (2 pi)^d L_d for power 1; this
    route is independent of the 2/(d+2) closed form and is the oracle
    used to cross-check `constants`.
    """
    if not isinstance(d, int) or d < 1:
        raise ConfigError(f"dimension must be an integer >= 1, got {d!r}")
    if power not in (0, 1):
        raise ConfigError(f"power must be 0 or 1, got {power!r}")
    surface = d * unit_ball_volume(d)
    val, _err = quad(
        lambda r: (1.0 - r * r) ** power * r ** (d - 1),
        0.0,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return surface * val
