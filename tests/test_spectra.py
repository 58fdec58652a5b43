import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

import weylkit.spectra
from weylkit.bessel import zeros_below_orders
from weylkit.constants import constants
from weylkit.errors import ConfigError, ResourceError
from weylkit.spectra import (
    Spectrum,
    _multiplicity,
    ball_spectrum,
    box_spectrum,
    disk_spectrum,
    load_spectrum,
    save_spectrum,
    spectrum_for,
)
from weylkit.domains import Ball, Box, Disk, lshape_polygon
from weylkit.fdlap import assemble, fd_spectrum


def brute_box_eigenvalues(sides, cutoff):
    """Plain nested-loop oracle for small lattice enumerations."""
    out = []
    q = cutoff / math.pi**2
    m1 = 1
    while (m1 / sides[0]) ** 2 < q:
        m2 = 1
        while (m1 / sides[0]) ** 2 + (m2 / sides[1]) ** 2 < q:
            out.append(math.pi**2 * ((m1 / sides[0]) ** 2 + (m2 / sides[1]) ** 2))
            m2 += 1
        m1 += 1
    return np.sort(np.array(out))


def _ref_box_eigenvalues(sides, cutoff):
    """The row-at-a-time lattice enumeration that box_spectrum replaced."""
    q = cutoff / math.pi**2
    partial = np.array([0.0])
    for a in sides[:-1]:
        m = np.arange(1, int(math.floor(a * math.sqrt(q))) + 2)
        cand = (partial[:, None] + (m[None, :] / a) ** 2).ravel()
        partial = cand[cand < q]
    a_last = sides[-1]
    out = []
    for s in partial:
        m_max = int(math.floor(a_last * math.sqrt(q - s)))
        if m_max >= 1:
            vals = s + (np.arange(1, m_max + 1) / a_last) ** 2
            out.append(vals[vals < q])
    if not out:
        return np.empty(0)
    ev = np.sort(np.concatenate(out)) * math.pi**2
    return ev[ev < cutoff]


@pytest.mark.parametrize("sides, cutoff", [
    ((1.0, 1.0), 3000.0),
    ((0.7, 1.6), 2.0e4),
    ((1.3, 0.6), 19.0),  # empty
    ((1.0, 1.3, 0.8), 6.0e4),
    ((0.45, 2.2, 1.1), 1.5e4),
    ((0.9, 1.1, 0.7, 1.3), 2500.0),
    ((1.7, 0.8, 1.2, 0.6), 900.0),
    ((0.3,), 20.0),  # 1-D, empty
    ((3.0,), 20.0),  # 1-D, 4 eigenvalues
    ((1.0,), (3.0e4 * math.pi) ** 2),  # 1-D, 29,999 eigenvalues in one outer sum
    ((0.05, 0.06, 40.0), 2.0e4),  # needle: 3 rows of up to 1,468 columns
    ((3.0, 4.0, 0.08), 2.0e4),  # slab: 17,470 rows of at most 3 columns
])
def test_box_matches_row_loop(sides, cutoff):
    """Bitwise the row-at-a-time enumeration, also where the column runs
    are one (1-D), few and long (needle) or many and short (slab)."""
    got = box_spectrum(sides, cutoff).eigenvalues
    assert got.tobytes() == _ref_box_eigenvalues(sides, cutoff).tobytes()


def _ref_bessel_eigenvalues(ball, cutoff):
    """One repeated chunk per order, up to the first order without a zero."""
    x_max = math.sqrt(cutoff) * ball.radius
    orders = [ell + ball.dim / 2 - 1 for ell in range(int(x_max) + 2)]
    orders = [nu for nu in orders if nu <= x_max]
    chunks = []
    for ell, zs in enumerate(zeros_below_orders(orders, x_max)):
        if zs.size == 0:
            break
        chunks.append(np.repeat((zs / ball.radius) ** 2, _multiplicity(ell, ball.dim)))
    ev = np.sort(np.concatenate(chunks)) if chunks else np.empty(0)
    return ev[ev < cutoff]


@pytest.mark.parametrize("ball, cutoff", [
    (Disk(1.0), 4900.0),
    (Disk(0.7), 2500.0),
    (Ball(1.0), 900.0),
    (Ball(1.7), 1600.0),
    (Disk(1.0), 0.5),  # empty: j_{0,1}^2 > 5.78
    (Ball(1.0), 0.5),  # empty: j_{1/2,1}^2 = pi^2
])
def test_bessel_spectrum_matches_order_loop(ball, cutoff):
    """Bitwise the per-order repeat, also for an empty spectrum."""
    got = (disk_spectrum if isinstance(ball, Disk) else ball_spectrum)(ball.radius, cutoff)
    assert got.eigenvalues.tobytes() == _ref_bessel_eigenvalues(ball, cutoff).tobytes()


@pytest.mark.parametrize("values, what", [
    ([9.0, math.nan, 4.0], "non-finite"),
    ([4.0, math.inf], "non-finite"),
    ([9.0, 4.0], "ascending"),
    ([-1.0, 4.0], "negative"),
])
def test_spectrum_rejects_bad_eigenvalues(tmp_path, values, what):
    with pytest.raises(ConfigError, match=what):
        Spectrum(np.array(values), 100.0, "exact-box")
    # the same values hand-edited into a saved spectrum
    path = tmp_path / "spec.csv"
    save_spectrum(Spectrum(np.array([4.0, 9.0]), 100.0, "exact-box"), path)
    path.write_text("lambda\n" + "".join(f"{v!r}\n" for v in values))
    with pytest.raises(ConfigError, match=what):
        load_spectrum(path)


def _load_other_header(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("eigenvalue\n4.0\n")
    return load_spectrum(path)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda _: box_spectrum((1.0, 1.0), 0.0), "cutoff must be positive, got 0.0",
                 id="box-cutoff-0"),
    pytest.param(lambda _: disk_spectrum(1.0, -1.0), "cutoff must be positive, got -1.0",
                 id="disk-cutoff-negative"),
    # nan: a bare ValueError from the box, an empty disk or ball spectrum
    *[pytest.param(lambda _, build=build: build(math.nan), "cutoff must be positive, got nan",
                   id=f"{name}-cutoff-nan")
      for name, build in (("box", lambda c: box_spectrum((1.0, 1.0), c)),
                          ("disk", lambda c: disk_spectrum(1.0, c)),
                          ("ball", lambda c: ball_spectrum(1.0, c)))],
    pytest.param(lambda _: spectrum_for(lshape_polygon(), 10.0),
                 "no exact spectrum generator for Polygon", id="polygon"),
    pytest.param(_load_other_header,
                 "{tmp}/spec.csv is not a spectrum CSV (expected header 'lambda')", id="csv-header"),
])
def test_builder_input_errors(tmp_path, build, message):
    with pytest.raises(ConfigError) as exc:
        build(tmp_path)
    assert str(exc.value) == message.format(tmp=tmp_path)


def test_unit_square_cutoff_50():
    s = box_spectrum((1.0, 1.0), 50.0)
    expected = [2 * math.pi**2, 5 * math.pi**2, 5 * math.pi**2]
    assert np.allclose(s.eigenvalues, expected, rtol=1e-14)
    assert s.provenance == "exact-box"


def test_unit_square_cutoff_19_empty():
    assert len(box_spectrum((1.0, 1.0), 19.0)) == 0


def test_rectangle_cutoff_15():
    s = box_spectrum((1.0, 2.0), 15.0)
    assert len(s) == 1
    assert s.eigenvalues[0] == pytest.approx(math.pi**2 * 1.25, rel=1e-14)


def test_box_against_brute_force():
    s = box_spectrum((1.0, 2.0), 500.0)
    brute = brute_box_eigenvalues((1.0, 2.0), 500.0)
    assert len(s) == len(brute)
    assert np.allclose(s.eigenvalues, brute, rtol=1e-12)


def test_box_3d():
    s = box_spectrum((1.0, 1.0, 1.0), 40.0)
    # 3 pi^2 ~ 29.6 simple, 6 pi^2 ~ 59.2 above cutoff
    assert np.allclose(s.eigenvalues, [3 * math.pi**2])


def test_disk_first_eigenvalue():
    s = disk_spectrum(1.0, 6.0)
    assert len(s) == 1
    assert s.eigenvalues[0] == pytest.approx(jn_zeros(0, 1)[0] ** 2, abs=1e-8)
    assert s.provenance == "exact-bessel"
    assert len(disk_spectrum(1.0, 5.7)) == 0


def test_disk_scaling():
    a = disk_spectrum(1.0, 120.0)
    b = disk_spectrum(2.0, 30.0)
    assert len(a) == len(b)
    assert np.allclose(b.eigenvalues, a.eigenvalues / 4.0, rtol=1e-10)


def test_disk_against_scipy_zeros():
    for radius, cutoff in ((1.0, 400.0), (1.0, 500.0), (0.7, 3000.0)):
        s = disk_spectrum(radius, cutoff)
        ref = []
        nu = 0
        while True:
            lam = (jn_zeros(nu, 20) / radius) ** 2
            lam = lam[lam < cutoff]
            if lam.size == 0:
                break
            ref.extend(lam if nu == 0 else np.repeat(lam, 2))
            nu += 1
        ref = np.sort(ref)
        assert len(s) == len(ref)
        # worst case is j_{2,4}: 2.4e-12 relative in the zero, 4.9e-12 in lambda
        assert np.allclose(s.eigenvalues, ref, rtol=1e-11, atol=0.0)


def test_disk_even_multiplicity_above_nu0():
    cutoff = 300.0
    s = disk_spectrum(1.0, cutoff)
    j0sq = jn_zeros(0, 10) ** 2
    rest = s.eigenvalues.tolist()
    for lam in j0sq[j0sq < cutoff]:
        idx = int(np.argmin(np.abs(np.array(rest) - lam)))
        rest.pop(idx)
    vals, counts = np.unique(np.round(rest, 8), return_counts=True)
    assert np.all(counts % 2 == 0)


def test_ball_spectrum():
    # l = 0 eigenvalues are (k pi)^2 with multiplicity 1
    s = ball_spectrum(1.0, 40.0)
    assert s.eigenvalues[0] == pytest.approx(math.pi**2, abs=1e-8)
    # next: first zero of J_{3/2} (~4.4934) squared, multiplicity 3
    expect2 = 4.493409457909064**2
    assert np.allclose(s.eigenvalues[1:4], expect2, atol=1e-7)
    # then the five-fold l=2 shell at j_{5/2,1}^2, then (2 pi)^2
    expect3 = 5.763459196894550**2
    assert np.allclose(s.eigenvalues[4:9], expect3, atol=1e-7)
    assert s.eigenvalues[9] == pytest.approx(4 * math.pi**2, abs=1e-7)
    assert len(ball_spectrum(1.0, 900.0)) == 1702


@pytest.mark.parametrize(
    "d, expected",
    [
        (2, [1, 2, 2, 2, 2]),
        (3, [2 * ell + 1 for ell in range(5)]),
        (4, [(ell + 1) ** 2 for ell in range(5)]),
    ],
)
def test_spherical_harmonic_multiplicity(d, expected):
    assert [_multiplicity(ell, d) for ell in range(5)] == expected


def test_counting_consistency_restriction():
    s = box_spectrum((1.0, 1.0), 2000.0)
    for cut in (120.0, 700.0, 1999.0):
        again = box_spectrum((1.0, 1.0), cut)
        assert np.array_equal(s.eigenvalues[s.eigenvalues < cut], again.eigenvalues)
    d = disk_spectrum(1.0, 500.0)
    again = disk_spectrum(1.0, 200.0)
    assert np.allclose(d.eigenvalues[d.eigenvalues < 200.0], again.eigenvalues, atol=1e-10)


def test_weyl_relative_error_decreases():
    c2 = constants(2)
    errs = []
    for lam in (1e3, 1e4, 1e5):
        s = box_spectrum((1.0, 1.0), lam)
        errs.append(abs(len(s) - c2.C_d * lam) / lam)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


def test_budget_errors(monkeypatch):
    monkeypatch.setattr(weylkit.spectra, "DEFAULT_BUDGET", 100)
    with pytest.raises(ResourceError):
        box_spectrum((1.0, 1.0), 1e6)
    with pytest.raises(ResourceError):
        disk_spectrum(1.0, 1e6)


def test_spectrum_for_dispatch():
    assert spectrum_for(Box((1.0, 1.0)), 50.0).provenance == "exact-box"
    assert spectrum_for(Disk(1.0), 6.0).provenance == "exact-bessel"
    assert spectrum_for(Ball(1.0), 11.0).provenance == "exact-bessel"


def test_csv_roundtrip(tmp_path):
    s = box_spectrum((1.0, 1.0), 120.0)
    path = tmp_path / "spec.csv"
    save_spectrum(s, path)
    assert (tmp_path / "spec.json").exists()
    back = load_spectrum(path)
    assert back.cutoff == s.cutoff
    assert back.provenance == s.provenance
    assert np.array_equal(back.eigenvalues, s.eigenvalues)
    header = path.read_text().splitlines()[0]
    assert header == "lambda"


def _reference_save_spectrum(spectrum, csv_path):
    """The csv.writer row loop that save_spectrum replaced."""
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda"])
        for lam in spectrum.eigenvalues:
            w.writerow([repr(float(lam))])
    csv_path.with_suffix(".json").write_text(
        json.dumps({"provenance": spectrum.provenance, "cutoff": spectrum.cutoff}, indent=2)
        + "\n"
    )


@pytest.mark.parametrize("case", ["empty", "zero", "disk", "box", "fd"])
def test_save_spectrum_matches_row_writer(tmp_path, case):
    spectrum = {
        "empty": lambda: Spectrum(np.empty(0), 1.0, "exact-box"),
        "zero": lambda: Spectrum(np.array([0.0, 0.0, 1e-300, 2.5]), 3.0, "exact-box"),
        "disk": lambda: disk_spectrum(1.0, 400.0),  # multiplicity 2 for nu >= 1
        "box": lambda: box_spectrum((1.0, 1.0, 1.0), 600.0),  # cube degeneracies
        "fd": lambda: fd_spectrum(assemble(lshape_polygon(), 1 / 16), 400.0),
    }[case]()
    save_spectrum(spectrum, tmp_path / "new.csv")
    _reference_save_spectrum(spectrum, tmp_path / "ref.csv")
    for suffix in (".csv", ".json"):
        new, ref = (tmp_path / f"{name}{suffix}" for name in ("new", "ref"))
        assert new.read_bytes() == ref.read_bytes()
    if case in ("disk", "box"):
        assert np.unique(spectrum.eigenvalues).size < len(spectrum)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(t=st.floats(0.25, 4.0), case=st.sampled_from(["square", "box", "disk", "ball"]))
def test_scaling(t, case):
    """lambda(t Omega) = lambda(Omega) / t^2: the spectrum of the scaled
    domain below cutoff / t^2 is the original's over t^2. Compared below
    0.99 cutoff, where no eigenvalue sits at the edge."""
    build, size, cutoff = {
        "square": (box_spectrum, (1.0, 1.0), 900.0),  # with multiplicities
        "box": (box_spectrum, (1.0, 0.6, 0.8), 600.0),
        "disk": (disk_spectrum, 1.0, 900.0),
        "ball": (ball_spectrum, 1.0, 600.0),
    }[case]
    scaled = tuple(t * a for a in size) if isinstance(size, tuple) else t * size
    ref = build(size, cutoff).eigenvalues / t**2
    got = build(scaled, cutoff / t**2).eigenvalues
    edge = 0.99 * cutoff / t**2
    ref, got = ref[ref < edge], got[got < edge]
    assert len(got) == len(ref) > 20
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
