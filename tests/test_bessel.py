import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, jn_zeros, jv

from weylkit import bessel
from weylkit.bessel import _j_groups, bessel_j, bessel_zeros, zeros_below, zeros_below_orders
from weylkit.cli import main
from weylkit.errors import ConfigError, InvariantViolation
from weylkit.spectra import _multiplicity, ball_spectrum, disk_spectrum


def test_values_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(2.5, 0.0) == 0.0


def test_first_zero_of_j0():
    assert abs(bessel_j(0, 2.404826)) < 1e-5


@pytest.mark.parametrize("nu", [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 7, 20, 55.5, 120, 333, 500])
def test_accuracy_against_scipy(nu):
    rng = np.random.default_rng(42)
    x = np.concatenate(
        [
            np.linspace(0.0, 25.0, 120),
            np.geomspace(0.05, 1000.0, 150),
            rng.uniform(0.0, 1000.0, 120),
            [0.5 * nu, 0.9 * nu, float(nu), 1.1 * nu, 2.0 * nu + 1.0],
        ]
    )
    assert np.max(np.abs(bessel_j(nu, x) - jv(nu, x))) < 1e-10


def test_scalar_and_array_forms():
    v = bessel_j(1, 3.0)
    assert isinstance(v, float)
    arr = bessel_j(1, np.array([3.0, 4.0]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(v, abs=1e-15)


def test_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        bessel_j(-1, 1.0)
    with pytest.raises(ConfigError):
        bessel_j(0.3, 1.0)
    with pytest.raises(ConfigError):
        bessel_j(0, -1.0)
    with pytest.raises(ConfigError):
        bessel_zeros(0, 0)


def test_first_zeros_of_j0():
    z = bessel_zeros(0, 2)
    assert z[0] == pytest.approx(2.4048256, abs=1e-6)
    assert z[1] == pytest.approx(5.5200781, abs=1e-6)


@pytest.mark.parametrize("nu", [0, 1, 2, 5, 40])
def test_zeros_against_scipy(nu):
    z = bessel_zeros(nu, 30)
    ref = jn_zeros(nu, 30)
    assert np.max(np.abs(z - ref)) < 1e-10


def test_zeros_of_half_integer_orders():
    # J_{1/2} vanishes exactly at multiples of pi
    z = bessel_zeros(0.5, 10)
    assert np.max(np.abs(z - np.pi * np.arange(1, 11))) < 1e-10


def test_interlacing():
    for nu in (0, 1, 3.5, 10):
        z = bessel_zeros(nu, 12)
        znext = bessel_zeros(nu + 1, 11)
        assert np.all(znext > z[:11])
        assert np.all(znext < z[1:12])


def test_zeros_below_consistency():
    full = bessel_zeros(3, 25)
    cut = zeros_below(3, full[17])
    assert len(cut) == 17
    assert np.allclose(cut, full[:17], atol=1e-12)
    assert zeros_below(5, 4.0).size == 0  # first zero of J_5 exceeds 5


# Reference: the per-order evaluator and zero finder that the batched pass
# replaced, kept verbatim (renamed) so the batched results can be checked
# bitwise against it.
_REF_SERIES_LOG_GUARD = math.log(1e5)
_REF_J01_SERIES_MAX = 14.0
_REF_SCAN_STEP = 1.0


def _ref_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Ascending series; caller guarantees cancellation safety and x > 0."""
    h = 0.5 * x
    log_t0 = nu * np.log(h) - math.lgamma(nu + 1.0)
    term = np.where(log_t0 < -745.0, 0.0, np.exp(np.clip(log_t0, -745.0, None)))
    total = term.copy()
    h2 = h * h
    for k in range(300):
        term = -term * h2 / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if np.max(np.abs(term)) <= 1e-17 * (np.max(np.abs(total)) + 1e-300):
            break
    return total


def _ref_hankel(nu: float, x: np.ndarray) -> np.ndarray:
    """Large-argument expansion; adequate for nu in {0, 1}, x > 14."""
    mu = 4.0 * nu * nu
    eight_x = 8.0 * x
    c = np.ones_like(x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    prev = np.inf
    for m in range(1, 40):
        c = c * (mu - (2 * m - 1) ** 2) / (m * eight_x)
        mag = np.max(np.abs(c))
        if mag > prev:  # asymptotic tail started to diverge
            break
        prev = mag
        sign = -1.0 if (m // 2) % 2 else 1.0
        if m % 2:
            q += sign * c
        else:
            p += sign * c
        if mag < 1e-17:
            break
    omega = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (np.cos(omega) * p - np.sin(omega) * q)


def _ref_j01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j0 = np.empty_like(x)
    j1 = np.empty_like(x)
    small = x <= _REF_J01_SERIES_MAX
    if small.any():
        xs = x[small]
        j0[small] = _ref_series(0.0, xs)
        j1[small] = _ref_series(1.0, xs)
    if (~small).any():
        xl = x[~small]
        j0[~small] = _ref_hankel(0.0, xl)
        j1[~small] = _ref_hankel(1.0, xl)
    return j0, j1


def _ref_half_base(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pref = np.sqrt(2.0 / (math.pi * x))
    return pref * np.sin(x), pref * (np.sin(x) / x - np.cos(x))


def _ref_upward(nu: float, x: np.ndarray) -> np.ndarray:
    if float(nu).is_integer():
        jm1, j = _ref_j01(x)
        if nu == 0:
            return jm1
        start = 1
    else:
        jm1, j = _ref_half_base(x)
        if nu == 0.5:
            return jm1
        start = 1  # j currently holds order 1/2 + 1
    order = start + (0.5 if not float(nu).is_integer() else 0.0)
    while order < nu:
        jm1, j = j, (2.0 * order) / x * j - jm1
        order += 1.0
    return j


def _ref_miller(nu: float, x: np.ndarray) -> np.ndarray:
    """Downward recurrence for x < nu; 60 guard orders give full accuracy."""
    half = not float(nu).is_integer()
    n_int = int(nu - 0.5) if half else int(nu)
    top = n_int + 64
    jp = np.zeros_like(x)
    j = np.full_like(x, 1e-30)
    neumann = np.zeros_like(x)
    target = None
    low0 = low1 = None  # orders 1/2 and 3/2 along the half-integer ladder
    for m_int in range(top, 0, -1):
        order = m_int + 0.5 if half else float(m_int)
        jp, j = j, (2.0 * order) / x * j - jp
        new_order = order - 1.0
        if new_order == nu:
            target = j.copy()
        if not half and new_order >= 2 and int(new_order) % 2 == 0:
            neumann += j
        if half and new_order == 1.5:
            low1 = j
        mx = np.max(np.abs(j))
        if mx > 1e250:
            jp *= 1e-250
            j *= 1e-250
            neumann *= 1e-250
            if target is not None:
                target *= 1e-250
            if low1 is not None:
                low1 *= 1e-250
    if half:
        low0 = j
        e0, e1 = _ref_half_base(x)
        use0 = np.abs(e0) >= np.abs(e1)
        denom = np.where(use0, low0, low1)
        scale = np.where(use0, e0, e1) / denom
    else:
        scale = 1.0 / (2.0 * neumann + j)  # j is the unnormalized J_0
    return target * scale


def _ref_bessel_j(nu: float, x) -> float | np.ndarray:
    """J_nu(x) for integer/half-integer nu >= 0 and x >= 0.

    Measured against scipy.special.jv over x in [0, 1e3]: absolute error at
    most 3.5e-11 for nu <= 600. Above that it grows near the route switch at
    x = nu: 6e-11 at nu = 700, 1.9e-10 at nu = 800, 1.1e-9 at nu = 1000.
    """
    nu = float(nu)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ValueError("Bessel argument must be nonnegative")
    out = np.empty_like(arr)
    zero = arr == 0.0
    out[zero] = 1.0 if nu == 0 else 0.0
    pos = ~zero
    if pos.any():
        xp = arr[pos]
        res = np.empty_like(xp)
        # per-point series-safety estimate of the largest series term
        h = 0.5 * xp
        kstar = np.maximum(0.0, 0.5 * (-(nu + 2.0) + np.sqrt(nu * nu + xp * xp)))
        k = np.round(kstar)
        log_max = (nu + 2 * k) * np.log(h) - gammaln(k + 1.0) - gammaln(nu + k + 1.0)
        m_series = log_max <= _REF_SERIES_LOG_GUARD
        m_up = ~m_series & (xp >= nu)
        m_down = ~m_series & ~m_up
        if m_series.any():
            res[m_series] = _ref_series(nu, xp[m_series])
        if m_up.any():
            res[m_up] = _ref_upward(nu, xp[m_up])
        if m_down.any():
            res[m_down] = _ref_miller(nu, xp[m_down])
        out[pos] = res
    return float(out[0]) if scalar else out


def _ref_derivative(nu: float, z: np.ndarray, jz: np.ndarray) -> np.ndarray:
    if nu == 0:
        return -_ref_bessel_j(1.0, z)
    if nu == 0.5:
        jm1 = np.sqrt(2.0 / (math.pi * z)) * np.cos(z)
    else:
        jm1 = _ref_bessel_j(nu - 1.0, z)
    return jm1 - nu / z * jz


def _ref_refine(nu: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    lo = lo.copy()
    hi = hi.copy()
    flo = _ref_bessel_j(nu, lo)
    bad = flo == 0.0
    if np.any(bad):
        lo[bad] -= 1e-9
        flo = _ref_bessel_j(nu, lo)
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        fm = _ref_bessel_j(nu, mid)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    z = 0.5 * (lo + hi)
    for _ in range(4):
        f = _ref_bessel_j(nu, z)
        fp = _ref_derivative(nu, z, f)
        step = np.where(fp != 0.0, f / np.where(fp != 0.0, fp, 1.0), 0.0)
        z = np.clip(z - step, lo, hi)
    return z


def _ref_zeros_below(nu: float, x_max: float) -> np.ndarray:
    """All positive zeros of J_nu strictly below x_max, in order.

    The scan grid starts below the first zero (which exceeds nu) and its
    step _REF_SCAN_STEP is far below the minimal gap (> 3) between consecutive
    zeros, so sign-change bracketing is exhaustive.
    """
    nu = float(nu)
    if x_max <= nu:
        return np.empty(0)
    start = max(nu, 1e-3)
    grid = np.arange(start, x_max + 2.0 * _REF_SCAN_STEP, _REF_SCAN_STEP)
    vals = _ref_bessel_j(nu, grid)
    s = np.sign(vals)
    flip = (s[:-1] * s[1:] < 0) | (vals[:-1] == 0) | (vals[1:] == 0)
    idx = np.where(flip)[0]
    if idx.size == 0:
        return np.empty(0)
    zs = _ref_refine(nu, grid[idx], grid[idx + 1])
    zs = np.unique(zs)
    return zs[zs < x_max]


def _ref_bessel_spectrum(d, radius, cutoff):
    """The per-order spectrum loop of the reference: stop at the first order
    without a zero below R sqrt(cutoff)."""
    x_max = math.sqrt(cutoff) * radius
    chunks = []
    ell = 0
    while ell + d / 2 - 1 <= x_max:
        zs = _ref_zeros_below(ell + d / 2 - 1, x_max)
        if zs.size == 0:
            break
        chunks.append(np.repeat((zs / radius) ** 2, _multiplicity(ell, d)))
        ell += 1
    ev = np.sort(np.concatenate(chunks)) if chunks else np.empty(0)
    return ev[ev < cutoff]


def _orders_below(ladder, x_max):
    return [ladder + i for i in range(int(x_max) + 2) if ladder + i < x_max]


# criterion 3's cutoff (tests/test_acceptance.py): 1.01 / h_min^2, h_min = 0.003
CRITERION_3_CUTOFF = 1.01 / float(np.geomspace(0.1, 0.003, 20)[-1]) ** 2


@pytest.mark.parametrize("x_max", [3, 10, 17.3, 31.6, 40, 47, 54, 61, 68, 75, 82, 89, 200])
@pytest.mark.parametrize("ladder", [0.0, 0.5])
def test_batched_zeros_match_reference(ladder, x_max):
    orders = _orders_below(ladder, x_max)
    batched = zeros_below_orders(orders, x_max)
    for nu, got in zip(orders, batched):
        want = _ref_zeros_below(nu, x_max)
        assert got.tobytes() == want.tobytes(), nu
        assert zeros_below(nu, x_max).tobytes() == want.tobytes(), nu


@pytest.mark.parametrize("d, build", [(2, disk_spectrum), (3, ball_spectrum)])
def test_bessel_spectra_match_reference(d, build):
    for radius, cutoff in ((1.0, CRITERION_3_CUTOFF), (0.8, 4000.0), (1.3, 30.0)):
        got = build(radius, cutoff).eigenvalues
        assert got.tobytes() == _ref_bessel_spectrum(d, radius, cutoff).tobytes()


def test_single_calls_match_reference():
    x = np.concatenate([[0.0], np.geomspace(0.01, 1e3, 3000)])
    for nu in (0, 0.5, 1, 1.5, 2, 7.5, 40, 333):
        assert bessel_j(nu, x).tobytes() == _ref_bessel_j(nu, x).tobytes()
        assert bessel_j(nu, 12.5) == _ref_bessel_j(nu, 12.5)
    for nu in (0, 0.5, 1, 1.5, 3):
        assert zeros_below(nu, 1000.0).tobytes() == _ref_zeros_below(nu, 1000.0).tobytes()


def _group_points(nu):
    """Arguments of one group: 0, the series range, the Miller range
    (x < nu), the upward route just above its start, where the Hankel
    expansion of J_0/J_1 stops when its terms grow (x < 19), and far out."""
    return st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(1e-3, 14.0),
            st.floats(0.3 * nu, nu) if nu > 0 else st.just(1.0),
            st.floats(max(nu, 15.0), max(nu, 15.0) + 40.0),
            st.floats(15.0, 19.0),
            st.floats(14.0, 1000.0),
        ),
        min_size=1,
        max_size=12,
    ).map(lambda xs: np.array(xs, dtype=float))


@st.composite
def _groups(draw):
    orders = draw(st.lists(st.integers(0, 240).map(lambda n: n / 2.0), min_size=1, max_size=6))
    return orders, [draw(_group_points(nu)) for nu in orders]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_groups())
def test_grouped_kernel_matches_solo_calls(case):
    orders, groups = case
    batch = _j_groups(orders, np.concatenate(groups), [g.size for g in groups])
    parts = np.split(batch, np.cumsum([g.size for g in groups])[:-1])
    for nu, xs, got in zip(orders, groups, parts):
        assert got.tobytes() == bessel_j(nu, xs).tobytes()
        assert got.tobytes() == _ref_bessel_j(nu, xs).tobytes()


def test_upward_route_starts_above_14(monkeypatch):
    """The Hankel expansion of J_0, J_1 is only accurate for x > 14; the
    series route covers every x <= 14 for every order, so the upward route
    never asks it for less."""
    seen = []
    hankel = bessel._hankel

    def spy(nu, x, gid=None):
        seen.append(x.min())
        return hankel(nu, x, gid)

    monkeypatch.setattr(bessel, "_hankel", spy)
    x = np.linspace(1e-6, 14.0, 200_001)
    for nu in np.arange(0.0, 15.0, 1.0):
        bessel_j(nu, x)
    assert not seen
    bessel_j(0.0, np.array([14.0, 15.6]))
    assert seen and min(seen) > 14.0


@pytest.mark.parametrize("pass_points", [bessel.PASS_POINTS, 1])
def test_interlacing_certificate(monkeypatch, pass_points):
    """Also across passes: with PASS_POINTS = 1 every order is a pass."""
    monkeypatch.setattr(bessel, "PASS_POINTS", pass_points)
    orders = [0.0, 1.0, 2.0, 3.0]
    good = list(zeros_below_orders(orders, 30.0))
    for a, b in zip(good, good[1:]):
        assert a.size - 1 <= b.size <= a.size
        assert np.all(a[: b.size] < b) and np.all(b[: a.size - 1] < a[1:])
    refine = bessel._refine

    def shifted(group_orders, sizes, lo, hi):
        z = refine(group_orders, sizes, lo, hi)
        if 1.0 in group_orders:  # j_{1,1} = 3.83 moves past j_{0,2} = 5.52
            z[sizes[: list(group_orders).index(1.0)].sum()] += 3.5
        return z

    monkeypatch.setattr(bessel, "_refine", shifted)
    with pytest.raises(InvariantViolation):
        list(zeros_below_orders(orders, 30.0))
    assert main(["fit", "--domain", "disk:1", "--h", "log:0.2:0.05:5"]) == 3


@pytest.mark.parametrize("ladder", [0.0, 0.5])
def test_passes_do_not_move_zeros(monkeypatch, ladder):
    """Orders split over many passes give the bytes of one pass."""
    orders = _orders_below(ladder, 47.0)
    whole = list(zeros_below_orders(orders, 47.0))
    assert len(whole) == len(orders)
    for pass_points in (1, 7, 150):
        monkeypatch.setattr(bessel, "PASS_POINTS", pass_points)
        for a, b in zip(whole, zeros_below_orders(orders, 47.0), strict=True):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d, build", [(2, disk_spectrum), (3, ball_spectrum)])
def test_spectrum_stops_after_first_empty_order(monkeypatch, d, build):
    """No pass runs after the one holding the first order without a zero."""
    monkeypatch.setattr(bessel, "PASS_POINTS", 1)  # one order per pass
    seen = []
    zeros_pass = bessel._zeros_pass

    def spy(orders, x_max):
        seen.extend(orders)
        return zeros_pass(orders, x_max)

    monkeypatch.setattr(bessel, "_zeros_pass", spy)
    got = build(1.0, 400.0).eigenvalues
    assert got.tobytes() == _ref_bessel_spectrum(d, 1.0, 400.0).tobytes()
    first_empty = next(nu for nu in seen if _ref_zeros_below(nu, 20.0).size == 0)
    assert seen[-1] == first_empty < 19.0
