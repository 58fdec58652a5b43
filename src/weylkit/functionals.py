"""Counting function, first Riesz mean, two-term predictions, and fits.

For a spectrum {lambda_k} and semiclassical parameter h the two basic
functionals are

    N(h)        = #{lambda_k < h^-2}
    riesz(h)    = sum over lambda_k < h^-2 of (1 - h^2 lambda_k)

and the one/two-term predictions are

    weyl1(h) = L_d |Omega| h^-d
    weyl2(h) = weyl1(h) - (1/4) L_{d-1} |surface| h^-(d-1)

All queries guard h^-2 against the spectrum cutoff: asking beyond the
range where the spectrum is complete raises rather than truncating.

riesz(h) is the correctly rounded value of the exact rational
N - fl(h^2) * sum(lambda_k), which is the exact sum of the terms
1 - fl(h^2) lambda_k. One walk down a descending h grid grows a single
exact expansion of the eigenvalue prefix sum (Shewchuk, Discrete Comput.
Geom. 18, 1997) and multiplies it by h^2 exactly (Dekker, Numer. Math.
18, 1971), so a sweep of H values over N eigenvalues costs O(N + H L),
with L the expansion length, a handful of components.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import constants
from .errors import CompletenessError, ConfigError, FitError, InvariantViolation, NumericsError
from .output import csv_text, json_text
from .spectra import Spectrum

SKIP_LARGEST = 3  # pre-asymptotic largest h left out of the remainder fit
RESIDUAL_FLOOR = 1e-9  # |residual2| below this multiple of weyl1 is roundoff
SUM_BLOCK = 2**15  # terms per exact block sum; a block and its scratch stay in cache
# 2^M >= SUM_BLOCK + 2: no partial sum of one extracted level can round
_LEVEL_SCALE = 2.0**16
_SPLITTER = 2.0**27 + 1.0  # Veltkamp's constant: splits a double into two 26-bit halves
# the positive eigenvalues of a Riesz prefix, scaled below 1, stay at or above
# this, so that every product of `_riesz_means` is inside `_two_product`'s range
_MIN_SCALED = 2.0**-916


def _check_h(h: float) -> None:
    if not math.isfinite(h):
        raise ConfigError(f"h must be finite, got {h}")
    if h <= 0:
        raise ConfigError(f"h must be positive, got {h}")
    if h * h == 0 or 1.0 / (h * h) == math.inf:
        raise ConfigError(f"h={h!r} is too small: 1/h^2 is not finite")
    if h * h == math.inf:  # 1/h^2 would be 0, and no eigenvalue, not even 0, below it
        raise ConfigError(f"h={h!r} is too large: h^2 is not finite")


def _below(spectrum: Spectrum, h: float) -> np.ndarray:
    """The eigenvalues strictly below h^-2, after the completeness check."""
    _check_h(h)
    thr = 1.0 / (h * h)
    if thr > spectrum.cutoff * (1.0 + 1e-12):
        raise CompletenessError(
            f"h={h} needs eigenvalues up to {thr:.6g}, but the spectrum is only "
            f"complete below {spectrum.cutoff:.6g}"
        )
    return spectrum.eigenvalues[: np.searchsorted(spectrum.eigenvalues, thr, side="left")]


def _levels(blocks):
    """Exact sums of the extraction levels of every term of `blocks`.

    `blocks` is an iterable of float64 arrays whose terms are finite and
    below 2^1000 in magnitude; the arrays are overwritten. Each run of
    SUM_BLOCK terms p is summed exactly by error-free extraction
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008, ExtractVector):
    with sigma = 2^M * 2^e >= 2^M max|p|, q = (sigma + p) - sigma is a
    multiple of 2^-53 sigma with |q| <= 2^-M sigma, p - q is exact, and
    every partial sum of q is a multiple of 2^-53 sigma no larger than
    sigma, so np.sum(q) is exact in any order. Extraction repeats on the
    remainder p - q until it is zero; the level sums add up to the terms'
    sum exactly.
    """
    scratch = np.empty(SUM_BLOCK)
    for block in blocks:
        for start in range(0, block.size, SUM_BLOCK):
            p = block[start:start + SUM_BLOCK]
            q = scratch[:p.size]
            while (top := max(p.max(), -p.min())) > 0:
                sigma = math.ldexp(_LEVEL_SCALE, math.frexp(top)[1])
                np.add(p, sigma, out=q)
                q -= sigma
                p -= q
                yield float(q.sum())


def exact_sum(blocks) -> float:
    """Correctly rounded sum of every term of `blocks`, bitwise `math.fsum`'s.

    The terms are those `_levels` takes (finite, below 2^1000, overwritten);
    `math.fsum` rounds the exact level sums once, as it rounds the terms.
    """
    return math.fsum(_levels(blocks))


def _grow(partials: list[float], x: float) -> None:
    """Add x to the expansion `partials` exactly.

    Shewchuk's grow-expansion, the loop of `math.fsum`: each step is a
    two-sum of magnitude-ordered operands, which is exact, so the sum of
    the components grows by x exactly; the components stay nonoverlapping
    and increasing in magnitude, and a zero is dropped, so every component
    is nonzero. A sum that overflows leaves a non-finite component.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x] if x else []


def _two_product(a: float, b: float) -> tuple[float, float]:
    """p = fl(a b) and e with p + e == a b exactly.

    Dekker's product on Veltkamp's split (Dekker, Numer. Math. 18, 1971;
    Python 3.11 has no math.fma). Precondition, which the caller keeps:
    a and b are finite and, with frexp exponents fa and fb (|a| < 2^fa),
    either one is zero or fa, fb <= 996 (the split, _SPLITTER * a, does
    not overflow), fa + fb <= 1023 (|a b| < 2^1023: no partial product
    overflows) and fa + fb >= -968 (every partial product is a multiple
    of ulp(a) ulp(b) >= 2^(fa + fb - 106) >= 2^-1074, so the error e does
    not underflow).
    """
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _riesz_means(spectrum: Spectrum, h_grid) -> list[tuple[int, float]]:
    """(N, riesz) at every h of a descending grid, from one prefix expansion.

    Every h is checked first (`_below`). The eigenvalues are scaled by
    2^-K, where 2^K is above the largest threshold 1/fl(h^2), so the
    prefix sum stays far from overflow; the scaling is exact because each
    positive scaled eigenvalue is at least _MIN_SCALED, which is checked.
    Going down the grid, each new segment of the prefix is summed exactly
    by extraction (`_levels`) and grown into one expansion of
    2^-K sum(lambda) (`_grow`). At each h every component v gives
    a v = p + e exactly with a = fl(h^2) 2^K (`_two_product`), and
    `math.fsum` rounds N - sum(p + e) once.

    Why every product keeps `_two_product`'s precondition, given the one
    check on _MIN_SCALED: the expansion is empty until the prefix holds a
    positive eigenvalue; its components are finite, since the prefix sum
    stays below N, nonzero (`_grow`) and multiples of ulp(_MIN_SCALED) =
    2^-968 below 2N, so -967 <= fb <= 64.
    1/fl(h_min^2) rounds to a threshold below 2^K, so a > 1/2 at every h,
    and a positive eigenvalue lambda < 1/fl(h^2) of the prefix gives
    a < (1 + 2^-50) / (2^-K lambda) < 2^917, so 0 <= fa <= 917.
    """
    counts = [len(_below(spectrum, h)) for h in h_grid]
    if not counts:
        return []
    lam = spectrum.eigenvalues
    k = math.frexp(1.0 / (h_grid[-1] * h_grid[-1]))[1]
    first = np.searchsorted(lam, 0.0, side="right")  # the first positive eigenvalue
    if first < counts[-1] and math.ldexp(lam[first], -k) < _MIN_SCALED:
        raise NumericsError(
            f"eigenvalue {float(lam[first])!r} is below 2^-916 of the largest threshold "
            f"2^{k}: the Riesz sum is outside its exact range"
        )
    scale = math.ldexp(1.0, -k)
    partials: list[float] = []
    done = 0
    means = []
    for h, n in zip(h_grid, counts):
        segment = (lam[i:min(i + SUM_BLOCK, n)] * scale for i in range(done, n, SUM_BLOCK))
        for level in _levels(segment):
            _grow(partials, level)
        done = n
        terms = [float(n)]
        if partials:  # empty until the prefix holds a positive eigenvalue
            a = math.ldexp(h * h, k)
            for v in partials:
                terms += (-x for x in _two_product(a, v))
        means.append((n, math.fsum(terms)))
    return means


def counting_function(spectrum: Spectrum, h: float) -> int:
    """Exact count of eigenvalues strictly below h^-2."""
    return len(_below(spectrum, h))


def riesz_mean(spectrum: Spectrum, h: float) -> float:
    """Sum of (1 - h^2 lambda) over lambda < h^-2, correctly rounded.

    The value is the correctly rounded exact rational N - fl(h^2) sum(lambda)
    over the N eigenvalues below h^-2, the one-h case of `sweep`
    (`_riesz_means`: Shewchuk's expansion and Dekker's product).
    """
    [(_, value)] = _riesz_means(spectrum, [h])
    return value


def weyl_prediction(domain, h: float, terms: int = 2) -> float:
    """One- or two-term semiclassical prediction for the Riesz mean."""
    _check_h(h)
    if terms not in (1, 2):
        raise ConfigError(f"terms must be 1 or 2, got {terms}")
    d = domain.dim
    first = constants(d).L_d * domain.volume * h**-d
    if terms == 1:
        return first
    return first - 0.25 * constants(d - 1).L_d * domain.surface * h ** (-(d - 1))


def berezin_check(spectrum: Spectrum, domain, h_list) -> list[tuple[float, float]]:
    """Margins L_d |Omega| h^-d - riesz(h); all must be nonnegative.

    A negative margin falsifies either the spectrum or the constants and
    raises InvariantViolation naming the offending h values.
    """
    margins = []
    for h in h_list:
        m = weyl_prediction(domain, h, terms=1) - riesz_mean(spectrum, h)
        margins.append((float(h), float(m)))
    bad = [h for h, m in margins if m < 0]
    if bad:
        raise InvariantViolation(f"Berezin bound violated at h = {bad}")
    return margins


@dataclass(frozen=True)
class SweepRecord:
    h: float
    n_below: int
    riesz: float
    weyl1: float
    weyl2: float
    residual1: float
    residual2: float


@dataclass(frozen=True)
class SweepResult:
    domain: object
    records: list[SweepRecord]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def sweep(domain, spectrum: Spectrum, h_grid) -> SweepResult:
    """One record per h (grid must be sorted strictly descending).

    Every riesz is `riesz_mean`'s value, correctly rounded; the grid is
    walked once and each eigenvalue of the prefix is summed once, so the
    cost is O(N + H L) for N eigenvalues, H values of h and an expansion
    of L components (`_riesz_means`).
    """
    h_grid = [float(h) for h in h_grid]
    if any(b >= a for a, b in zip(h_grid, h_grid[1:])):
        raise ConfigError("h grid must be sorted strictly descending")
    records = []
    for h, (n, rz) in zip(h_grid, _riesz_means(spectrum, h_grid)):
        w1 = weyl_prediction(domain, h, terms=1)
        w2 = weyl_prediction(domain, h, terms=2)
        records.append(SweepRecord(h, n, rz, w1, w2, rz - w1, rz - w2))
    return SweepResult(domain, records)


@dataclass(frozen=True)
class FitReport:
    fitted_second_coefficient: float
    predicted_second_coefficient: float
    fitted_remainder_exponent: float
    h_range: tuple[float, float]
    residual_norm: float


def fit_second_term(sweep_result: SweepResult, domain) -> FitReport:
    """Extract the boundary coefficient and the remainder decay exponent.

    The coefficient is the weighted least-squares slope of residual1
    against -h^{-(d-1)} with weights h^{d-1}, which equalizes the relative
    scale of the sample points; an exact input residual1 = c h^{-(d-1)}
    therefore fits to exactly -c. The remainder exponent is the log-log
    slope of |residual2| against h over the records whose residual2 is
    above RESIDUAL_FLOOR * weyl1, skipping the SKIP_LARGEST largest
    (pre-asymptotic) h values.
    """
    recs = sweep_result.records
    if len(recs) < 5:
        raise FitError(f"need >= 5 sweep records, got {len(recs)}")
    hs = sweep_result.column("h")
    if hs.max() / hs.min() < 10.0:
        raise FitError(
            f"h range [{hs.min():.4g}, {hs.max():.4g}] spans less than one decade"
        )
    d = domain.dim
    res1 = sweep_result.column("residual1")
    w = hs ** (d - 1)
    x = -hs ** (-(d - 1))
    coeff = float(np.sum(w * w * x * res1) / np.sum(w * w * x * x))
    fit_dev = w * (res1 - coeff * x)
    residual_norm = float(np.sqrt(np.mean(fit_dev**2)))

    res2 = sweep_result.column("residual2")
    weyl1 = sweep_result.column("weyl1")
    usable = np.abs(res2) > RESIDUAL_FLOOR * np.abs(weyl1)
    usable[:SKIP_LARGEST] = False
    if usable.sum() < 2:
        raise FitError(
            f"only {int(usable.sum())} records usable for the remainder-exponent fit "
            f"(floor {RESIDUAL_FLOOR:g}, {SKIP_LARGEST} largest h excluded)"
        )
    slope = float(
        np.polyfit(np.log(hs[usable]), np.log(np.abs(res2[usable])), 1)[0]
    )
    predicted = 0.25 * constants(d - 1).L_d * domain.surface
    return FitReport(
        fitted_second_coefficient=coeff,
        predicted_second_coefficient=predicted,
        fitted_remainder_exponent=slope,
        h_range=(float(hs.min()), float(hs.max())),
        residual_norm=residual_norm,
    )


def riesz_from_counting(spectrum: Spectrum, h: float) -> float:
    """Riesz mean recomputed as h^2 * integral of the counting function.

    Independent route used to verify riesz_mean: the integral of the step
    function mu -> #{lambda < mu} over (0, h^-2) is summed over the sorted
    partition. Each cell width and each product with its count round once,
    fsum and the final product once more, and 1/fl(h^2) rounds, so the
    value is within 2^-50 (|riesz| + N) of riesz_mean's. Only where a
    product or the sum would pass the float range (N h^-2 near 2^1024) are
    the counts scaled by a power of two 2^-k and the result by 2^k, which
    moves no rounding above the subnormal range; every value that fits is
    computed unscaled.
    """
    lam = _below(spectrum, h)
    hh = h * h
    breaks = np.concatenate([[0.0], lam, [1.0 / hh]])
    counts = np.arange(len(breaks) - 1)  # value of the step function per cell
    widths = np.diff(breaks)
    with np.errstate(over="ignore"):
        terms = counts * widths
    if np.isfinite(terms).all():
        try:
            return hh * math.fsum(terms)
        except OverflowError:
            pass
    # each partial sum is below N h^-2 < 2^(eN + eH); scale it below 2^1022
    k = math.frexp(float(counts[-1]))[1] + math.frexp(breaks[-1])[1] - 1022
    return math.ldexp(hh * math.fsum(np.ldexp(counts, -k) * widths), k)


def sweep_to_csv(result: SweepResult) -> str:
    names = ("h", "n_below", "riesz", "weyl1", "weyl2", "residual1", "residual2")
    return csv_text(["h", "N", *names[2:]], [result.column(n) for n in names])


def fit_to_json(report: FitReport) -> str:
    return json_text(asdict(report))
