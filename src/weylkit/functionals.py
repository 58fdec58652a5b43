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
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import constants
from .errors import CompletenessError, ConfigError, FitError, InvariantViolation
from .spectra import Spectrum

SKIP_LARGEST = 3  # pre-asymptotic largest h left out of the remainder fit
RESIDUAL_FLOOR = 1e-9  # |residual2| below this multiple of weyl1 is roundoff
SUM_BLOCK = 2**15  # terms per exact block sum; a block and its scratch stay in cache
# 2^M >= SUM_BLOCK + 2: no partial sum of one extracted level can round
_LEVEL_SCALE = 2.0**16


def _check_h(h: float) -> None:
    if not math.isfinite(h):
        raise ConfigError(f"h must be finite, got {h}")
    if h <= 0:
        raise ConfigError(f"h must be positive, got {h}")


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


def exact_sum(blocks) -> float:
    """Correctly rounded sum of every term of `blocks`, bitwise `math.fsum`'s.

    `blocks` is an iterable of float64 arrays whose terms are finite and
    below 2^1000 in magnitude; the arrays are overwritten. Each run of
    SUM_BLOCK terms p is summed exactly by error-free extraction
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008, ExtractVector):
    with sigma = 2^M * 2^e >= 2^M max|p|, q = (sigma + p) - sigma is a
    multiple of 2^-53 sigma with |q| <= 2^-M sigma, p - q is exact, and
    every partial sum of q is a multiple of 2^-53 sigma no larger than
    sigma, so np.sum(q) is exact in any order. Extraction repeats on the
    remainder p - q until it is zero, and `math.fsum` rounds the exact
    level sums once, as it rounds the terms.
    """
    levels = []
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
                levels.append(float(q.sum()))
    return math.fsum(levels)


def _riesz(lam: np.ndarray, h: float) -> float:
    hh = h * h
    return exact_sum(1.0 - hh * lam[i:i + SUM_BLOCK] for i in range(0, lam.size, SUM_BLOCK))


def counting_function(spectrum: Spectrum, h: float) -> int:
    """Exact count of eigenvalues strictly below h^-2."""
    return len(_below(spectrum, h))


def riesz_mean(spectrum: Spectrum, h: float) -> float:
    """Sum of (1 - h^2 lambda) over lambda < h^-2, correctly rounded.

    The terms are built in blocks of SUM_BLOCK and summed exactly
    (`exact_sum`), so the value is bitwise `math.fsum` of all of them.
    """
    return _riesz(_below(spectrum, h), h)


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

    @property
    def h(self) -> np.ndarray:
        return np.array([r.h for r in self.records])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def sweep(domain, spectrum: Spectrum, h_grid) -> SweepResult:
    """One record per h (grid must be sorted strictly descending)."""
    h_grid = [float(h) for h in h_grid]
    if any(b >= a for a, b in zip(h_grid, h_grid[1:])):
        raise ConfigError("h grid must be sorted strictly descending")
    records = []
    for h in h_grid:
        lam = _below(spectrum, h)
        n, rz = len(lam), _riesz(lam, h)
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
    hs = sweep_result.h
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
    function mu -> #{lambda < mu} over (0, h^-2) is evaluated exactly on
    the sorted partition.
    """
    lam = _below(spectrum, h)
    breaks = np.concatenate([[0.0], lam, [1.0 / (h * h)]])
    counts = np.arange(len(breaks) - 1)  # value of the step function per cell
    return h * h * math.fsum(counts * np.diff(breaks))


def sweep_to_csv(result: SweepResult, path=None) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["h", "N", "riesz", "weyl1", "weyl2", "residual1", "residual2"])
    for r in result.records:
        w.writerow(
            [repr(r.h), r.n_below, repr(r.riesz), repr(r.weyl1), repr(r.weyl2),
             repr(r.residual1), repr(r.residual2)]
        )
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def fit_to_json(report: FitReport, path=None) -> str:
    payload = {
        "fitted_second_coefficient": report.fitted_second_coefficient,
        "predicted_second_coefficient": report.predicted_second_coefficient,
        "fitted_remainder_exponent": report.fitted_remainder_exponent,
        "h_range": list(report.h_range),
        "residual_norm": report.residual_norm,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
