import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylkit.constants import constants
from weylkit.domains import Box, Disk, square
from weylkit.errors import (
    CompletenessError,
    ConfigError,
    FitError,
    InvariantViolation,
    NumericsError,
)
from weylkit.functionals import (
    SUM_BLOCK,
    _extract,
    _grow,
    _riesz_means,
    _two_product,
    FitReport,
    SweepRecord,
    SweepResult,
    berezin_check,
    counting_function,
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


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 1.35e154, 1e200])
def test_non_finite_h_rejected(square_50, h):
    # nan <= 0 is False: h = nan used to count all 3 eigenvalues; an h whose
    # h^2 overflows made the threshold 1/h^2 = 0 and riesz_from_counting nan
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


@st.composite
def _berezin_cases(draw):
    """A 2-D or 3-D box (sides 0.5-2) or a disk (radius 0.5-2), a cutoff up
    to 2000 (500 in 3-D) and h values whose 1/h^2 is below it."""
    side = st.floats(0.5, 2.0)
    kind = draw(st.sampled_from(["box2", "box3", "disk"]))
    if kind == "disk":
        domain = Disk(draw(side))
    else:
        domain = Box(tuple(draw(side) for _ in range(2 if kind == "box2" else 3)))
    cutoff = draw(st.floats(1.0, 500.0 if kind == "box3" else 2000.0))
    hs = draw(st.lists(st.floats(1.0001 / math.sqrt(cutoff), 5.0), min_size=1, max_size=8))
    return domain, cutoff, hs


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_berezin_cases())
def test_berezin_li_yau_holds_on_drawn_domains(case):
    """Berezin-Li-Yau: riesz(h) <= L_d |Omega| h^-d on every box and disk."""
    domain, cutoff, hs = case
    margins = berezin_check(spectrum_for(domain, cutoff), domain, hs)
    assert [h for h, _ in margins] == hs
    assert all(m >= 0 for _, m in margins)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_riesz_mean_matches_counting_route(data):
    """riesz_mean and riesz_from_counting agree within the stated
    2^-50 (|riesz| + N) on random sorted spectra of any scale, with zeros,
    ties and thresholds on an eigenvalue, at random h. A spectrum with a
    positive eigenvalue below 2^-916 of the threshold may instead raise the
    documented NumericsError, and an h whose h^2 overflows a ConfigError."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    size = data.draw(st.integers(0, 300), label="size")
    scale = 10.0 ** data.draw(st.integers(-290, 290), label="exponent")
    values = rng.uniform(0.0, 1.0, size) * scale
    values[: data.draw(st.integers(0, 3), label="zeros")] = 0.0
    if data.draw(st.booleans(), label="tiny"):  # past the exact range of the sum
        values = np.append(values, scale * 1e-290)
    lam = np.sort(np.repeat(values, rng.integers(1, 4, values.size)))  # ties
    if lam.size and data.draw(st.booleans(), label="at_eigenvalue"):
        threshold = lam[rng.integers(lam.size)]
    else:
        threshold = rng.uniform(0.01, 1.2) * scale
    assume(threshold > 0)
    h = 1.0 / math.sqrt(threshold)
    spec = Spectrum(lam, 2.0 * max(1.0 / (h * h), lam.max(initial=0.0)), "exact-box")
    try:
        riesz = riesz_mean(spec, h)
    except NumericsError as exc:
        assert "outside its exact range" in str(exc)
        return
    except ConfigError as exc:  # a threshold below about 5.6e-309
        assert "h^2 is not finite" in str(exc)
        return
    n = counting_function(spec, h)
    assert abs(riesz_from_counting(spec, h) - riesz) <= 2.0**-50 * (abs(riesz) + n)


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
    rep = fit_second_term(SweepResult(dom, records))
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
        fit_second_term(SweepResult(dom, records))
    hs = np.geomspace(0.5, 0.2, 8)  # less than a decade
    records = [
        SweepRecord(float(h), 0, 0.0, 1.0, 0.0, 1.0 / h, 1.0) for h in hs
    ]
    with pytest.raises(FitError):
        fit_second_term(SweepResult(dom, records))


def test_fit_floor_excludes_converged_records():
    dom = square(1.0)
    hs = np.geomspace(0.5, 0.01, 9)
    records = [
        SweepRecord(float(h), 0, 0.0, 1.0, 0.0, 0.3 / h, 0.0) for h in hs
    ]
    with pytest.raises(FitError):
        fit_second_term(SweepResult(dom, records))


def test_small_square_sweep_fit():
    dom = square(1.0)
    spec = box_spectrum((1.0, 1.0), 1.01 / 0.01**2)
    hs = np.geomspace(0.1, 0.01, 12)
    rep = fit_second_term(sweep(dom, spec, hs))
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


def _exact_sum(blocks) -> float:
    """math.fsum of the exact level sums of `_extract`, SUM_BLOCK terms at a
    time: the correctly rounded sum of every term of `blocks`, if `_extract`'s
    levels add up to the terms exactly. The arrays are overwritten."""
    scratch = np.empty(SUM_BLOCK)
    return math.fsum(float(q.sum()) for block in blocks
                     for start in range(0, block.size, SUM_BLOCK)
                     for q in _extract(block[start:start + SUM_BLOCK], scratch))


def _check_exact_sum(kind, n, seed):
    terms = _terms(kind, n, seed)
    assert _exact_sum([terms.copy()]).hex() == math.fsum(terms).hex()
    # split at other places than the block boundaries
    cut = n // 3
    assert _exact_sum([terms[:cut].copy(), terms[cut:].copy()]).hex() == math.fsum(terms).hex()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(0, 3 * SUM_BLOCK),
       seed=st.integers(0, 2**32 - 1))
def test_exact_sum_is_fsum(kind, n, seed):
    """`_extract`'s levels, summed exactly, give bitwise `math.fsum`, the reference."""
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
    assert _exact_sum([np.array(terms)]).hex() == total.hex()


def _exact_riesz(lam: np.ndarray, hs) -> list[tuple[int, float]]:
    """(N, riesz) at every h of a descending grid, from exact rationals.

    The prefix sum S of the eigenvalues below 1/fl(h^2) is kept as an
    integer over a power of two (every float is one), and riesz is
    float(N - fl(h^2) S), which Fraction rounds correctly.
    """
    out, total, done = [], Fraction(0), 0
    for h in hs:
        hh = h * h
        n = int(np.searchsorted(lam, 1.0 / hh, side="left"))
        ratios = [float(x).as_integer_ratio() for x in lam[done:n]]
        den = max((d for _, d in ratios), default=1)
        total += Fraction(sum(m * (den // d) for m, d in ratios), den)
        done = n
        out.append((n, float(Fraction(n) - Fraction(hh) * total)))
    return out


@pytest.mark.parametrize("domain, cutoff", [
    (Box((1.0, 1.2, 0.9)), 2.9e4),  # about 86k eigenvalues
    (Disk(1.0), 4.0e3),
])
def test_sweep_riesz_is_fsum(domain, cutoff):
    """Every record's riesz is the correctly rounded exact N - fl(h^2) S.

    The reference used to be math.fsum of the rounded terms 1 - fl(h^2 lambda),
    which is off the exact value at 26 of these 200 h on the box (by up to
    8 ulps where riesz is small) and at 25 on the disk (1 ulp); the sweep
    now rounds the exact rational once.
    """
    spec = spectrum_for(domain, cutoff)
    hs = np.geomspace(0.3, 1.0 / math.sqrt(cutoff / 1.01), 200)
    records = sweep(domain, spec, hs).records
    for r, (n, exact) in zip(records, _exact_riesz(spec.eigenvalues, hs)):
        assert r.n_below == n
        assert r.riesz.hex() == exact.hex()
        assert riesz_mean(spec, r.h) == r.riesz


@st.composite
def _spectrum_and_grid(draw):
    """A sorted spectrum with ties and zeros, and a descending h grid whose
    thresholds sit at random ranks, on eigenvalues, below the first one and
    inside or across SUM_BLOCK blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([0, 1, 5, 300, SUM_BLOCK - 3, SUM_BLOCK + 40, 2 * SUM_BLOCK + 17]))
    top = draw(st.sampled_from([1.0, 3.7e3, 2.0**60, 1e305]))
    values = rng.uniform(0.0, top, size)
    values[: draw(st.integers(0, 3))] = 0.0
    lam = np.sort(np.repeat(values, rng.integers(1, 4, size)))  # ties
    count = draw(st.integers(1, 12))
    if lam.size:  # thresholds at random ranks, some exactly on an eigenvalue
        ranks = np.sort(rng.integers(0, lam.size, count))
        with np.errstate(divide="ignore"):  # a zero eigenvalue's h is inf, dropped below
            hs = 1.0 / np.sqrt(lam[ranks] * rng.choice([1.0, 1.0 + 1e-9], count))
    else:
        hs = rng.uniform(0.01, 10.0, count)
    hs = np.unique(hs[np.isfinite(hs)])[::-1]
    if draw(st.booleans()):  # an eigenvalue exactly at the smallest h's threshold
        lam = np.sort(np.append(lam, 1.0 / (hs[-1] * hs[-1]))) if hs.size else lam
    cutoff = 2.0 * (1.0 / hs[-1] ** 2 if hs.size else 1.0)
    return Spectrum(lam, min(cutoff, 1.7e308), "exact-box"), [float(h) for h in hs]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_spectrum_and_grid())
def test_sweep_riesz_is_exact(case):
    """sweep is bitwise the exact oracle, and the counting-function route
    agrees within its stated error, also where its sum N h^-2 passes the
    float range."""
    spec, hs = case
    records = sweep(square(1.0), spec, hs).records
    for r, (n, exact) in zip(records, _exact_riesz(spec.eigenvalues, hs), strict=True):
        assert (r.n_below, r.riesz.hex()) == (n, exact.hex())
        other = riesz_from_counting(spec, r.h)
        assert abs(other - r.riesz) <= 2.0**-50 * (abs(r.riesz) + n)


def _spectrum_with_counts(counts, hs, seed):
    """A spectrum with exactly counts[i] eigenvalues below 1/fl(hs[i]^2):
    each step between two thresholds is filled with random values (ties
    included) from the lower threshold up to below the higher one."""
    rng = np.random.default_rng(seed)
    thresholds = [1.0 / (h * h) for h in hs]
    parts, done, low = [], 0, 0.0
    for n, high in zip(counts, thresholds):
        values = rng.uniform(low, high, n - done)
        values[::7] = values[0] if values.size else 0.0  # ties
        parts.append(values)
        done, low = n, high
    return Spectrum(np.sort(np.concatenate(parts)), 2.0 * thresholds[-1], "exact-box")


@pytest.mark.parametrize("counts", [
    [SUM_BLOCK, 2 * SUM_BLOCK, 3 * SUM_BLOCK],  # every count on a block end
    [0, 0, 5, 5, 5, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK, SUM_BLOCK + 1],  # leading zeros, repeats
    [3 * SUM_BLOCK + 2, 3 * SUM_BLOCK + 2],  # the prefix past 3 blocks, repeated
    [7, SUM_BLOCK + 3, 3 * SUM_BLOCK - 1, 3 * SUM_BLOCK, 4 * SUM_BLOCK + 11],
])
def test_riesz_means_at_block_edges_and_repeated_counts(counts):
    """Bitwise the exact oracle where counts fall on multiples of
    SUM_BLOCK, repeat, start at 0 or run past 3 SUM_BLOCK."""
    hs = list(np.geomspace(0.5, 0.01, len(counts)))
    spec = _spectrum_with_counts(counts, hs, seed=len(counts))
    got = _riesz_means(spec, hs)
    assert [n for n, _ in got] == counts
    want = _exact_riesz(spec.eigenvalues, hs)
    assert [(n, x.hex()) for n, x in got] == [(n, x.hex()) for n, x in want]


@pytest.mark.parametrize("size", [0, 1, SUM_BLOCK, SUM_BLOCK + 5])
def test_riesz_means_of_an_all_zero_spectrum(size):
    """Only zero eigenvalues: riesz = N at every h, with no product taken
    (2^K h^2 overflows at the first h)."""
    spec = Spectrum(np.zeros(size), 1e201, "exact-box")
    hs = [1e100, 1.0, 1e-100]
    assert _riesz_means(spec, hs) == [(size, float(size))] * 3 == _exact_riesz(spec.eigenvalues, hs)


def test_riesz_power_of_two_scaling_is_bitwise(square_50):
    """Scaling lambda by 4 and h by 1/2 changes no bit: the sums are exact."""
    scaled = Spectrum(square_50.eigenvalues * 4.0, square_50.cutoff * 4.0, "exact-box")
    hs = np.geomspace(0.3, H50, 9)
    assert sweep(square(1.0), scaled, hs / 2.0).column("riesz").tolist() == \
        sweep(square(1.0), square_50, hs).column("riesz").tolist()


def _is_exact_product(a, b):
    p, e = _two_product(a, b)
    return (math.isfinite(p) and math.isfinite(e) and p == a * b
            and Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b))


ODD = 1.0 + 2.0**-52  # every bit of the product's error is set by this mantissa


@pytest.mark.parametrize("a, b", [
    (math.ldexp(ODD, 995), 0.75),  # fa = 996: the split of a is just below overflow
    (-math.ldexp(2.0 - 2.0**-52, 995), -(1.0 + 2.0**-30)),
    (math.ldexp(ODD, 511), math.ldexp(2.0 - 2.0**-52, 510)),  # fa + fb = 1023
    (ODD, math.ldexp(ODD, -970)),  # fa + fb = -968: e is 2^-1073, one above the bottom
    (math.ldexp(ODD, -500), math.ldexp(2.0 - 2.0**-52, -469)),
    (math.ldexp(1.0, -1074), math.ldexp(ODD, 105)),  # a subnormal, e = 0
    (0.1, 3.0), (1.0 / 3.0, -7.1e-200),
    (0.0, math.ldexp(ODD, 900)), (-0.0, 5e-324),  # a zero factor anywhere
])
def test_two_product_exact_at_range_edges(a, b):
    assert _is_exact_product(a, b)
    assert _is_exact_product(b, a)


@pytest.mark.parametrize("a, b", [
    (math.ldexp(2.0 - 2.0**-52, 996), 0.75),  # fa = 997: 2^27 a overflows
    (0.75, -math.ldexp(2.0 - 2.0**-52, 996)),
    # fa + fb = 1024: a b overflows
    (math.ldexp(2.0 - 2.0**-52, 511), math.ldexp(2.0 - 2.0**-52, 511)),
    (ODD, math.ldexp(ODD, -971)),  # fa + fb = -969: the exact error is no double
])
def test_two_product_precondition_is_tight(a, b):
    """Just outside the documented range the product is no longer exact,
    which is why `_riesz_means` checks its input against _MIN_SCALED."""
    assert not _is_exact_product(a, b)


def _lowest_bit(y: float) -> Fraction:
    num, den = abs(y).as_integer_ratio()
    return Fraction(num & -num, den)


def _check_expansion(partials, exact):
    assert sum(map(Fraction, partials)) == exact
    nonzero = [v for v in partials if v]
    # nonoverlapping and increasing: each component is below the lowest set bit of the next
    assert all(abs(x) < _lowest_bit(y) for x, y in zip(nonzero, nonzero[1:]))


@pytest.mark.parametrize("values", [
    [1e100, 1.0, -1e100, -1.0],  # cancels to zero
    [1.0, 2.0**-53, 2.0**-106, -1.0, 2.0**-160],  # cancels down to the low components
    [math.ldexp(1.0, 1022), math.ldexp(1.0, 1022) * (1 - 2.0**-52), -math.ldexp(1.0, 1022)],
    [5e-324, 5e-324, 1.0, -1.0, 2.5e-323],  # subnormal components
    [0.1] * 10 + [-1.0],
])
def test_grow_exact_with_cancelling_components(values):
    partials = []
    for x in values:
        _grow(partials, x)
    _check_expansion(partials, sum(map(Fraction, values)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e300, 1e300, allow_nan=False), max_size=40))
def test_grow_is_exact(values):
    partials = []
    for x in values:
        _grow(partials, x)
    _check_expansion(partials, sum(map(Fraction, values)))
    assert math.fsum(partials) == math.fsum(values)


def test_grow_drops_zeros_and_overflow_leaves_non_finite_component():
    partials = []
    for x in (0.0, -0.0, 1.0, -1.0, 0.0):
        _grow(partials, x)
    assert partials == []
    for x in (1.7e308, 1.7e308):
        _grow(partials, x)
    assert not all(map(math.isfinite, partials))


def test_riesz_scaling_guard():
    """The eigenvalues are scaled by 2^-K below the largest threshold; a
    positive one below 2^-916 after scaling is refused, one at it is exact."""
    hs = [0.8, 0.7]
    k = math.frexp(1.0 / (hs[-1] * hs[-1]))[1]
    at_edge = Spectrum(np.array([0.0, math.ldexp(1.0, k - 916), 0.5, 1.5]), 4.0, "exact-box")
    records = sweep(square(1.0), at_edge, hs).records
    for r, (n, exact) in zip(records, _exact_riesz(at_edge.eigenvalues, hs)):
        assert (r.n_below, r.riesz) == (n, exact)
    below = Spectrum(np.array([0.0, math.ldexp(ODD, k - 917), 1.5]), 4.0, "exact-box")
    with pytest.raises(NumericsError, match="outside its exact range"):
        sweep(square(1.0), below, hs)
    with pytest.raises(NumericsError, match="outside its exact range"):
        riesz_mean(below, hs[-1])
    # h^2 = 1e300: only zeros below the threshold 1e-300, nothing to scale, riesz = N
    zeros = Spectrum(np.array([0.0, 0.0, 1e-290]), 4.0, "exact-box")
    assert riesz_mean(zeros, 1e150) == 2.0
    tiny = Spectrum(np.array([0.0, 0.0, 5e-324]), 4.0, "exact-box")
    assert riesz_mean(tiny, 1e150) == float(3 - Fraction(1e150 * 1e150) * Fraction(5e-324))
    # a grid spanning 2^1300 in h^2: 2^K h^2 overflows at the first h, where
    # the prefix holds only zeros and no product is taken
    wide = Spectrum(np.array([0.0, 0.0, 1e199]), 1e201, "exact-box")
    hs = [1e100, 1e-100]
    records = sweep(square(1.0), wide, hs).records
    assert [(r.n_below, r.riesz) for r in records] == _exact_riesz(wide.eigenvalues, hs)


def test_riesz_huge_and_tiny_scales():
    """Spectra near the ends of the float range (domains of size 1e-152 or
    1e150) keep an exact Riesz sum; h^2 whose reciprocal overflows is refused."""
    for scale in (2.0e303, 1e-300):
        spec = box_spectrum((1.0, 1.0), 1e4)
        spec = Spectrum(spec.eigenvalues * scale, spec.cutoff * scale, "exact-box")
        hs = np.geomspace(0.3, 0.0101, 30) / math.sqrt(scale)
        records = sweep(square(1.0), spec, hs).records
        assert records[-1].n_below > 700
        for r, (n, exact) in zip(records, _exact_riesz(spec.eigenvalues, hs)):
            assert (r.n_below, r.riesz.hex()) == (n, exact.hex())
    with pytest.raises(ConfigError, match="1/h\\^2 is not finite"):
        riesz_mean(Spectrum(np.array([1.0]), math.inf, "exact-box"), 1e-160)


def test_riesz_from_counting_past_float_range(square_50):
    """Where N h^-2 passes the float range the counting route scales by a
    power of two (it was an OverflowError in fsum, or inf); where it fits,
    it is bitwise the unscaled sum."""
    rng = np.random.default_rng(3)
    lam = np.sort(rng.uniform(0.0, 1e305, 65_538))
    spec = Spectrum(lam, 1.7e308, "exact-box")
    for h in (1.0 / math.sqrt(lam[-7]), 1.0 / math.sqrt(1.5e308), 3.2e-153):
        n = int(np.searchsorted(lam, 1.0 / (h * h)))
        assert math.log2(n) - 2.0 * math.log2(h) > 1024.0  # N h^-2 is past the range
        got = riesz_from_counting(spec, h)
        assert math.isfinite(got)
        assert abs(got - riesz_mean(spec, h)) <= 2.0**-50 * (abs(got) + n)
    for h in np.geomspace(0.3, H50, 7):
        lam = square_50.eigenvalues[square_50.eigenvalues < 1.0 / (h * h)]
        breaks = np.concatenate([[0.0], lam, [1.0 / (h * h)]])
        plain = h * h * math.fsum(np.arange(lam.size + 1) * np.diff(breaks))
        assert riesz_from_counting(square_50, h) == plain
