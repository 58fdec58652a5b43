import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.constants import constants
from weylkit.domains import Box, Disk, square
from weylkit.errors import CompletenessError, ConfigError, FitError, InvariantViolation
from weylkit.functionals import (
    SUM_BLOCK,
    FitReport,
    SweepRecord,
    SweepResult,
    berezin_check,
    counting_function,
    exact_sum,
    fit_second_term,
    fit_to_json,
    riesz_from_counting,
    riesz_mean,
    sweep,
    sweep_to_csv,
    weyl_prediction,
)
from weylkit.output import write
from weylkit.spectra import Spectrum, box_spectrum, disk_spectrum, spectrum_for

H50 = 1.0 / math.sqrt(50.0)


@pytest.fixture(scope="module")
def square_50():
    return box_spectrum((1.0, 1.0), 50.5)


def test_counting_unit_square(square_50):
    # lattice enumeration of pi^2 (m^2 + n^2) < 50: (1,1), (1,2), (2,1)
    assert counting_function(square_50, H50) == 3


def test_counting_below_first_eigenvalue(square_50):
    assert counting_function(square_50, 1.0 / math.sqrt(19.0)) == 0


def test_counting_unit_disk():
    s = disk_spectrum(1.0, 6.5)
    assert counting_function(s, 1.0 / math.sqrt(6.0)) == 1


def test_counting_strictness():
    s = Spectrum(np.array([4.0, 9.0]), 100.0, "exact-box")
    assert counting_function(s, 0.5) == 0  # threshold 4.0 excludes lambda = 4
    assert counting_function(s, 0.499) == 1
    # a tie contributes zero weight to the Riesz mean either way
    assert riesz_mean(s, 0.5) == 0.0


def test_riesz_three_term_enumeration(square_50):
    expected = (
        (1 - 2 * math.pi**2 / 50) + 2 * (1 - 5 * math.pi**2 / 50)
    )
    assert riesz_mean(square_50, H50) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.6313, abs=5e-5)


def test_riesz_empty(square_50):
    assert riesz_mean(square_50, 1.0 / math.sqrt(19.0)) == 0.0


def test_riesz_scale_covariance(square_50):
    s = 3.7
    scaled = Spectrum(square_50.eigenvalues * s, square_50.cutoff * s, "exact-box")
    h = 0.17
    assert riesz_mean(scaled, h / math.sqrt(s)) == pytest.approx(
        riesz_mean(square_50, h), rel=1e-13
    )


def test_completeness_error(square_50):
    with pytest.raises(CompletenessError):
        counting_function(square_50, 0.1)
    with pytest.raises(CompletenessError):
        riesz_mean(square_50, 1.0 / math.sqrt(51.0))
    with pytest.raises(ConfigError):
        counting_function(square_50, -1.0)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_non_finite_h_rejected(square_50, h):
    # nan <= 0 is False: h = nan used to count all 3 eigenvalues
    for query in (counting_function, riesz_mean, riesz_from_counting):
        with pytest.raises(ConfigError, match="finite"):
            query(square_50, h)
    with pytest.raises(ConfigError, match="finite"):
        weyl_prediction(square(1.0), h)
    with pytest.raises(ConfigError, match="finite"):
        sweep(square(1.0), square_50, [h])


def test_weyl_prediction_square():
    dom = square(1.0)
    one = weyl_prediction(dom, 0.01, terms=1)
    two = weyl_prediction(dom, 0.01, terms=2)
    assert one == pytest.approx(1e4 / (8 * math.pi), rel=1e-13)
    # boundary term: (1/4) L_1 |boundary| / h = (1/4)(2/(3 pi)) * 4 * 100
    assert one - two == pytest.approx(200.0 / (3 * math.pi), rel=1e-13)


def test_weyl_prediction_disk():
    dom = Disk(1.0)
    one = weyl_prediction(dom, 0.01, terms=1)
    two = weyl_prediction(dom, 0.01, terms=2)
    assert one == pytest.approx(math.pi * 1e4 / (8 * math.pi), rel=1e-13)  # 1250
    assert one - two == pytest.approx(100.0 / 3.0, rel=1e-13)


def test_weyl_identity_any_h():
    dom = square(2.0)
    for h in (0.3, 0.05, 0.007):
        gap = weyl_prediction(dom, h, 1) - weyl_prediction(dom, h, 2)
        assert gap == pytest.approx(
            0.25 * constants(1).L_d * dom.surface / h, rel=1e-13
        )
    with pytest.raises(ConfigError):
        weyl_prediction(dom, 0.1, terms=3)


def test_berezin_margin_value(square_50):
    dom = square(1.0)
    [(h, margin)] = berezin_check(square_50, dom, [H50])
    riesz = riesz_mean(square_50, H50)
    assert margin == pytest.approx(50.0 / (8 * math.pi) - riesz, rel=1e-13)
    assert margin > 0


def test_berezin_trivial_margin(square_50):
    h = 1.0 / math.sqrt(19.0)
    [(_, margin)] = berezin_check(square_50, square(1.0), [h])
    assert margin == pytest.approx(19.0 / (8 * math.pi), rel=1e-13)


def test_berezin_violation_detected():
    fake = Spectrum(np.array([0.01, 0.02, 0.03]), 100.0, "exact-box")
    with pytest.raises(InvariantViolation):
        berezin_check(fake, square(1.0), [0.5])


def test_monotone_in_h():
    s = box_spectrum((1.0, 1.0), 3000.0)
    hs = np.geomspace(0.3, 0.02, 25)
    ns = [counting_function(s, h) for h in hs]
    rz = [riesz_mean(s, h) for h in hs]
    assert all(a <= b for a, b in zip(ns, ns[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(rz, rz[1:]))


def test_riesz_equals_counting_integral():
    s = box_spectrum((1.0, 2.0), 900.0)
    for h in (0.3, 0.1, 0.0405):
        assert riesz_mean(s, h) == pytest.approx(riesz_from_counting(s, h), rel=1e-12)


def test_sweep_records(square_50):
    dom = square(1.0)
    res = sweep(dom, square_50, [0.4, H50])
    assert len(res.records) == 2
    r = res.records[1]
    assert r.n_below == 3
    assert r.residual1 == pytest.approx(r.riesz - r.weyl1, rel=1e-15)
    assert r.residual2 == pytest.approx(r.riesz - r.weyl2, rel=1e-15)
    assert sweep(dom, square_50, []).records == []
    with pytest.raises(ConfigError):
        sweep(dom, square_50, [0.2, 0.3])  # not descending


def test_fit_synthetic_exact_model():
    dom = square(1.0)
    hs = np.geomspace(0.5, 0.01, 9)
    c = 0.7312
    records = [
        SweepRecord(
            h=float(h),
            n_below=0,
            riesz=0.0,
            weyl1=1.0,
            weyl2=0.0,
            residual1=c / h,
            residual2=1.0,
        )
        for h in hs
    ]
    rep = fit_second_term(SweepResult(dom, records), dom)
    assert rep.fitted_second_coefficient == pytest.approx(-c, rel=1e-12)
    assert rep.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert rep.predicted_second_coefficient == pytest.approx(
        0.25 * constants(1).L_d * 4.0, rel=1e-13
    )


def test_fit_requires_enough_records():
    dom = square(1.0)
    hs = np.geomspace(0.5, 0.01, 4)
    records = [
        SweepRecord(float(h), 0, 0.0, 1.0, 0.0, 1.0 / h, 1.0) for h in hs
    ]
    with pytest.raises(FitError):
        fit_second_term(SweepResult(dom, records), dom)
    hs = np.geomspace(0.5, 0.2, 8)  # less than a decade
    records = [
        SweepRecord(float(h), 0, 0.0, 1.0, 0.0, 1.0 / h, 1.0) for h in hs
    ]
    with pytest.raises(FitError):
        fit_second_term(SweepResult(dom, records), dom)


def test_fit_floor_excludes_converged_records():
    dom = square(1.0)
    hs = np.geomspace(0.5, 0.01, 9)
    records = [
        SweepRecord(float(h), 0, 0.0, 1.0, 0.0, 0.3 / h, 0.0) for h in hs
    ]
    with pytest.raises(FitError):
        fit_second_term(SweepResult(dom, records), dom)


def test_small_square_sweep_fit():
    dom = square(1.0)
    spec = box_spectrum((1.0, 1.0), 1.01 / 0.01**2)
    hs = np.geomspace(0.1, 0.01, 12)
    rep = fit_second_term(sweep(dom, spec, hs), dom)
    target = 2.0 / (3.0 * math.pi)
    assert rep.fitted_second_coefficient == pytest.approx(target, rel=0.08)
    assert rep.h_range == (pytest.approx(0.01), pytest.approx(0.1))


def test_two_term_residual_vanishes_rescaled():
    # residual2 * h^{d-1} tends to 0 along the sweep
    dom = square(1.0)
    spec = box_spectrum((1.0, 1.0), 1.01 / 0.01**2)
    hs = np.geomspace(0.1, 0.01, 10)
    res = sweep(dom, spec, hs)
    scaled = np.abs(res.column("residual2") * hs)
    assert scaled[-1] < 0.2 * scaled[0]
    assert scaled[-1] < 5e-3


def test_csv_and_json_outputs(tmp_path, square_50):
    dom = square(1.0)
    res = sweep(dom, square_50, [0.4, H50])
    path = tmp_path / "sweep.csv"
    text = sweep_to_csv(res)
    write(text, path)
    assert path.read_bytes() == text.encode()
    lines = path.read_text().splitlines()
    assert lines[0] == "h,N,riesz,weyl1,weyl2,residual1,residual2"
    assert len(lines) == 3

    rep = FitReport(1.0, 2.0, -0.5, (0.01, 0.1), 0.001)
    out = tmp_path / "fit.json"
    text = fit_to_json(rep)
    write(text, out)
    data = json.loads(out.read_text())
    assert json.loads(text) == data
    assert set(data) == {
        "fitted_second_coefficient",
        "predicted_second_coefficient",
        "fitted_remainder_exponent",
        "h_range",
        "residual_norm",
    }
    assert data["h_range"] == [0.01, 0.1]



def _reference_sweep_to_csv(result):
    """The csv.writer row loop that sweep_to_csv replaced."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["h", "N", "riesz", "weyl1", "weyl2", "residual1", "residual2"])
    for r in result.records:
        w.writerow([repr(r.h), r.n_below, repr(r.riesz), repr(r.weyl1), repr(r.weyl2),
                    repr(r.residual1), repr(r.residual2)])
    return buf.getvalue()


def _reference_fit_to_json(report):
    """The hand-built payload that fit_to_json replaced."""
    payload = {
        "fitted_second_coefficient": report.fitted_second_coefficient,
        "predicted_second_coefficient": report.predicted_second_coefficient,
        "fitted_remainder_exponent": report.fitted_remainder_exponent,
        "h_range": list(report.h_range),
        "residual_norm": report.residual_norm,
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("case", ["empty", "square", "disk", "negative"])
def test_sweep_to_csv_matches_row_writer(case):
    if case == "empty":
        result = SweepResult(square(1.0), [])
    elif case == "negative":  # residuals of both signs, -0.0 and repeated values
        result = SweepResult(square(1.0), [
            SweepRecord(0.5, 0, 0.0, 1.0, -0.0, -1.0, 0.0),
            SweepRecord(0.25, 3, 0.5, 1.0, 0.5, -0.5, -0.0),
            SweepRecord(0.125, 3, 0.5, 2.5, 1.5, -2.0, -1.0),
        ])
    else:
        dom = square(1.0) if case == "square" else Disk(1.0)
        hs = np.geomspace(0.3, 0.02, 40)
        result = sweep(dom, spectrum_for(dom, 1.01 / hs[-1] ** 2), hs)
        assert (result.column("residual1") < 0).all()  # Berezin: riesz < weyl1
    text = sweep_to_csv(result)
    assert text == _reference_sweep_to_csv(result)
    assert text.count("\r\n") == len(result.records) + 1


def test_fit_to_json_matches_payload():
    for rep in (FitReport(1.0, 2.0, -0.5, (0.01, 0.1), 0.001),
                FitReport(-0.0, 0.2122065907891936, 0.049, (1e-300, 1e300), 5e-324)):
        assert fit_to_json(rep) == _reference_fit_to_json(rep)

def _terms(kind: str, n: int, seed: int) -> np.ndarray:
    """n float64 terms of one kind, from a seeded generator."""
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "riesz":  # 1 - h^2 lambda over sorted lambda < h^-2
        lam = np.sort(rng.uniform(0.0, 1.0, n)) * 2.5e4
        h = 1.0 / math.sqrt(2.5e4)
        return 1.0 - h * h * lam
    if kind == "ladder":  # every binade from 2^-53 to 1
        return rng.uniform(1.0, 2.0, n) * 2.0 ** -rng.integers(1, 54, n)
    if kind == "ties":  # ones, then a last term of half an ulp (or 3 halves) of the rest
        p = np.ones(n)
        if n:
            p[-1] = math.ulp(float(n - 1)) / 2 * rng.choice([1.0, 3.0])
        return p
    # heavy cancellation: +x and -x over 40 binades, shuffled, around a few tiny terms
    x = rng.uniform(0.0, 1.0, n // 2) * 2.0 ** -rng.integers(0, 40, n // 2)
    rest = rng.uniform(-1.0, 1.0, n - 2 * (n // 2)) * 2.0**-70
    return rng.permutation(np.concatenate([x, -x, rest]))


KINDS = ["zeros", "riesz", "ladder", "ties", "cancel"]


def _check_exact_sum(kind, n, seed):
    terms = _terms(kind, n, seed)
    assert exact_sum([terms.copy()]).hex() == math.fsum(terms).hex()
    # split at other places than the block boundaries
    cut = n // 3
    assert exact_sum([terms[:cut].copy(), terms[cut:].copy()]).hex() == math.fsum(terms).hex()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(0, 3 * SUM_BLOCK),
       seed=st.integers(0, 2**32 - 1))
def test_exact_sum_is_fsum(kind, n, seed):
    """The blocked exact sum is bitwise `math.fsum`, the reference."""
    _check_exact_sum(kind, n, seed)


@pytest.mark.parametrize("n", [0, SUM_BLOCK - 1, SUM_BLOCK, 2 * SUM_BLOCK + 1])
@pytest.mark.parametrize("kind", KINDS)
def test_exact_sum_is_fsum_at_block_edges(kind, n):
    _check_exact_sum(kind, n, 7)


@pytest.mark.parametrize("terms, total", [
    ([1.0, 2.0**-53], 1.0),  # a tie rounds to the even neighbour
    ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
    ([1.0, 2.0**-53, 2.0**-80], 1.0 + 2.0**-52),  # just above the tie
    ([1.0, 2.0**-60, -1.0], 2.0**-60),
])
def test_exact_sum_rounds_once(terms, total):
    assert exact_sum([np.array(terms)]).hex() == total.hex()


@pytest.mark.parametrize("domain, cutoff", [
    (Box((1.0, 1.2, 0.9)), 2.9e4),  # about 1e5 eigenvalues
    (Disk(1.0), 4.0e3),
])
def test_sweep_riesz_is_fsum(domain, cutoff):
    """Every record's Riesz mean and count are those of the one-pass fsum."""
    spec = spectrum_for(domain, cutoff)
    hs = np.geomspace(0.3, 1.0 / math.sqrt(cutoff / 1.01), 50)
    for r in sweep(domain, spec, hs).records:
        lam = spec.eigenvalues[spec.eigenvalues < 1.0 / (r.h * r.h)]
        assert r.n_below == len(lam)
        assert r.riesz.hex() == math.fsum(1.0 - r.h * r.h * lam).hex()
        assert riesz_mean(spec, r.h) == r.riesz
