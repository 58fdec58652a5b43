import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, jn_zeros, jv

from weylkit import bessel
from weylkit.bessel import _j, bessel_j, bessel_zeros, zeros_below, zeros_below_orders
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


def _cold(nu, x_max):
    """zeros_below(nu, x_max) with nothing stored, leaving the table as it was."""
    saved = dict(bessel._ZERO_TABLE)
    bessel._ZERO_TABLE.clear()
    try:
        return zeros_below(nu, x_max)
    finally:
        bessel._ZERO_TABLE.clear()
        bessel._ZERO_TABLE.update(saved)


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
        assert _cold(nu, x_max).tobytes() == want.tobytes(), nu


@pytest.mark.parametrize("d, build", [(2, disk_spectrum), (3, ball_spectrum)])
def test_bessel_spectra_match_reference(d, build):
    for radius, cutoff in ((1.0, CRITERION_3_CUTOFF), (0.8, 4000.0), (1.3, 30.0)):
        bessel._ZERO_TABLE.clear()  # else the first spectrum's zeros answer the others
        got = build(radius, cutoff).eigenvalues
        assert got.tobytes() == _ref_bessel_spectrum(d, radius, cutoff).tobytes()


@pytest.mark.parametrize("pass_points", [bessel.PASS_POINTS, 1])
def test_benchmark_scale_zeros_match_reference(monkeypatch, pass_points):
    """The batched refinement gives the step-by-step reference's bytes on
    the disks and balls the benchmark builds (orders up to 89) and on
    one-order zeros up to 1000, as the half-space horizons ask for."""
    monkeypatch.setattr(bessel, "PASS_POINTS", pass_points)
    for x_max in (40.0, 65.0, 90.0):
        got = disk_spectrum(1.0, x_max * x_max).eigenvalues
        assert got.tobytes() == _ref_bessel_spectrum(2, 1.0, x_max * x_max).tobytes(), x_max
    got = ball_spectrum(1.2, 2500.0).eigenvalues
    assert got.tobytes() == _ref_bessel_spectrum(3, 1.2, 2500.0).tobytes()
    for nu in (0.0, 0.5, 2.0, 2.5, 3.0, 3.5):
        assert zeros_below(nu, 1000.0).tobytes() == _ref_zeros_below(nu, 1000.0).tobytes(), nu


@pytest.mark.parametrize("orders, x_max", [([2.0], 1000.0), (list(range(91)), 90.0),
                                           ([0.0, 0.5, 1.5], 200.0)])
def test_pass_makes_at_most_ten_calls(monkeypatch, orders, x_max):
    """One scan call, then 5 bisection calls (two levels each) and at most
    4 Newton calls, each on J_nu and J_{nu-1} together."""
    calls = []
    j = bessel._j

    def spy(nu, x):
        calls.append(x.size)
        return j(nu, x)

    monkeypatch.setattr(bessel, "_j", spy)
    zeros = bessel._zeros_pass([float(nu) for nu in orders], x_max)
    brackets = calls[1] // 3  # also those just above x_max
    assert brackets >= sum(z.size for z in zeros) > 0
    assert 6 < len(calls) <= 1 + 5 + 4
    assert calls[1:6] == [3 * brackets] * 5  # no call at the left ends
    assert calls[6] <= 2 * brackets


def test_zero_scan_value_is_nudged():
    """A bracket whose scan value at lo is exactly 0 moves lo left by 1e-9
    and evaluates J there, as the reference does; the others reuse theirs."""
    nu, lo, hi = np.array([2.0, 2.0, 0.5]), np.array([5.0, 8.0, 3.0]), np.array([6.0, 9.0, 4.0])
    flo = _j(nu, lo)
    flo[1] = 0.0
    got = bessel._refine(nu, lo, hi, flo)
    nudged = lo.copy()
    nudged[1] -= 1e-9
    for k in range(3):
        want = _ref_refine(nu[k], nudged[k: k + 1], hi[k: k + 1])
        assert got[k: k + 1].tobytes() == want.tobytes(), k


def _ref_points(nu, xs):
    """The reference called on each point alone."""
    return np.array([_ref_bessel_j(nu, v) for v in xs])


def test_single_calls_match_reference():
    x = np.concatenate([[0.0], np.geomspace(0.01, 1e3, 3000)])
    for nu in (0, 0.5, 1, 1.5, 2, 7.5, 40, 333):
        assert bessel_j(nu, x).tobytes() == _ref_points(nu, x).tobytes()
        assert bessel_j(nu, 12.5) == _ref_bessel_j(nu, 12.5)
    for nu in (0, 0.5, 1, 1.5, 3):
        assert zeros_below(nu, 1000.0).tobytes() == _ref_zeros_below(nu, 1000.0).tobytes()


def _group_points(nu):
    """Arguments for one order: 0, the series range, the Miller range
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
    """The kernel with one order per point gives each point the bytes of
    the reference called on that point alone."""
    orders, groups = case
    nu = np.repeat(orders, [g.size for g in groups])
    batch = _j(nu, np.concatenate(groups))
    parts = np.split(batch, np.cumsum([g.size for g in groups])[:-1])
    for o, xs, got in zip(orders, groups, parts):
        assert got.tobytes() == _ref_points(o, xs).tobytes()


@st.composite
def _one_order(draw):
    nu = draw(st.integers(0, 240).map(lambda n: n / 2.0))
    return nu, draw(_group_points(nu))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_one_order())
@example(case=(0.0, np.concatenate([[0.0], np.geomspace(0.01, 1e3, 3000)])))
def test_value_does_not_depend_on_its_batch(case):
    """A batch call gives each point the bytes of a call on it alone. When
    the series and the Hankel expansion stopped on the batch's largest
    term, 39 of the example's 3,001 values moved, by up to 5.3e-16."""
    nu, xs = case
    one_by_one = np.array([bessel_j(nu, v) for v in xs])
    assert bessel_j(nu, xs).tobytes() == one_by_one.tobytes()


def test_upward_route_starts_above_14(monkeypatch):
    """The Hankel expansion of J_0, J_1 is only accurate for x > 14; the
    series route covers every x <= 14 for every order, so the upward route
    never asks it for less."""
    seen = []
    hankel = bessel._hankel

    def spy(nu, x):
        seen.append(x.min())
        return hankel(nu, x)

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

    def shifted(nu, lo, hi, flo):
        z = refine(nu, lo, hi, flo)
        first = np.flatnonzero(nu == 1.0)
        if first.size:  # j_{1,1} = 3.83 moves past j_{0,2} = 5.52
            z[first[0]] += 3.5
        return z

    bessel._ZERO_TABLE.clear()  # else the stored zeros of `good` would answer
    monkeypatch.setattr(bessel, "_refine", shifted)
    with pytest.raises(InvariantViolation):
        list(zeros_below_orders(orders, 30.0))
    assert main(["fit", "--domain", "disk:1", "--h", "log:0.2:0.05:5"]) == 3
    # zeros that failed the check were not stored: once _refine is restored,
    # the same calls succeed
    assert 1.0 not in bessel._ZERO_TABLE
    monkeypatch.setattr(bessel, "_refine", refine)
    again = list(zeros_below_orders(orders, 30.0))
    assert [z.tobytes() for z in again] == [z.tobytes() for z in good]
    assert main(["sweep", "--domain", "disk:1", "--h", "log:0.2:0.05:5"]) == 0


def test_a_pass_stores_its_last_order_after_the_next_check(monkeypatch):
    """With PASS_POINTS = 1 every order is a pass. A bad J_1 that
    interlaces with J_0 but not with J_2 is not stored when the check of
    J_2's pass fails, so the call succeeds once _refine is restored."""
    monkeypatch.setattr(bessel, "PASS_POINTS", 1)
    orders = [0.0, 1.0, 2.0]
    refine = bessel._refine

    def shifted(nu, lo, hi, flo):
        z = refine(nu, lo, hi, flo)
        first = np.flatnonzero(nu == 1.0)
        if first.size:  # j_{1,1} = 3.83 moves to 5.33: below j_{0,2} = 5.52, past j_{2,1} = 5.14
            z[first[0]] += 1.5
        return z

    monkeypatch.setattr(bessel, "_refine", shifted)
    with pytest.raises(InvariantViolation, match="J_1.0 .* J_2.0"):
        list(zeros_below_orders(orders, 30.0))
    assert list(bessel._ZERO_TABLE) == [0.0]
    monkeypatch.setattr(bessel, "_refine", refine)
    for nu, got in zip(orders, zeros_below_orders(orders, 30.0), strict=True):
        assert got.tobytes() == _ref_zeros_below(nu, 30.0).tobytes(), nu


@pytest.mark.parametrize("ladder", [0.0, 0.5])
def test_passes_do_not_move_zeros(monkeypatch, ladder):
    """Orders split over many passes give the bytes of one pass."""
    orders = _orders_below(ladder, 47.0)
    whole = list(zeros_below_orders(orders, 47.0))
    assert len(whole) == len(orders)
    for pass_points in (1, 7, 150):
        monkeypatch.setattr(bessel, "PASS_POINTS", pass_points)
        bessel._ZERO_TABLE.clear()  # each split scans every order again
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nu=st.integers(0, 200).map(lambda n: n / 2.0),
       big=st.floats(0.0, 1000.0), frac=st.floats(0.0, 1.0))
@example(nu=0.0, big=1000.0, frac=0.5)
@example(nu=3.0, big=21.0, frac=1.0)  # x = X
@example(nu=40.0, big=130.0, frac=0.3)  # x below the first zero
def test_stored_zeros_are_the_cold_bytes(nu, big, frac):
    """The zeros below x read from the table after a scan to X >= x are
    bitwise those of a cold scan to x, and the entry keeps the larger X."""
    bessel._ZERO_TABLE.clear()  # the fixture clears it once per test, not per example
    x = big * frac
    want_big = _cold(nu, big)
    assert zeros_below(nu, big).tobytes() == want_big.tobytes()
    assert zeros_below(nu, x).tobytes() == _cold(nu, x).tobytes()
    assert bessel._ZERO_TABLE[nu][0] == big


@pytest.mark.parametrize("d, build", [(2, disk_spectrum), (3, ball_spectrum)])
def test_spectra_after_a_larger_one_are_the_cold_bytes(monkeypatch, d, build):
    """Each spectrum built after a larger one, which leaves every order it
    needs in the table, is bitwise the reference's and makes no pass."""
    zeros_pass = bessel._zeros_pass
    for radius, cutoff in ((1.0, 2500.0), (0.9, 1500.0), (1.2, 900.0), (0.5, 400.0)):
        build(1.0, 2600.0)
        monkeypatch.setattr(bessel, "_zeros_pass", None)
        got = build(radius, cutoff).eigenvalues
        monkeypatch.setattr(bessel, "_zeros_pass", zeros_pass)
        assert got.tobytes() == _ref_bessel_spectrum(d, radius, cutoff).tobytes()


def test_stored_zeros_are_not_handed_out():
    """A caller that writes into a returned array, stored or just found,
    does not change the next answer."""
    want = _ref_zeros_below(2.0, 60.0)
    first = zeros_below(2.0, 60.0)
    first[:] = 0.0
    again = zeros_below(2.0, 60.0)
    assert again.tobytes() == want.tobytes()
    again *= 2.0
    assert zeros_below(2.0, 60.0).tobytes() == want.tobytes()
    assert zeros_below(2.0, 30.0).tobytes() == want[want < 30.0].tobytes()


def test_table_budget(monkeypatch):
    """A pass whose zeros would take the table over ZERO_TABLE_BUDGET is
    returned and not stored; what was stored before stays."""
    monkeypatch.setattr(bessel, "ZERO_TABLE_BUDGET", 20)
    small = zeros_below(0.0, 30.0)  # 9 zeros
    assert bessel._ZERO_TABLE[0.0][1].size == small.size == 9
    big = zeros_below(1.0, 50.0)  # 15 zeros: 24 > 20
    assert big.tobytes() == _ref_zeros_below(1.0, 50.0).tobytes()
    assert list(bessel._ZERO_TABLE) == [0.0]
    # replacing an entry counts only its new size: 16 <= 20
    assert zeros_below(0.0, 50.0).size == 16
    assert bessel._ZERO_TABLE[0.0][0] == 50.0
    monkeypatch.setattr(bessel, "_zeros_pass", None)  # served from the table alone
    assert zeros_below(0.0, 30.0).tobytes() == small.tobytes()


def test_route_choice_matches_scipy_gammaln():
    """The series/upward/Miller split from the lgamma table is the one
    scipy.special.gammaln gave, over orders 0-400 and x in (0, 1000]."""
    x = np.linspace(0.0, 1000.0, 20_001)[1:]
    closest = math.inf
    for nu in np.arange(0.0, 400.5, 0.5):
        nus = np.full(x.shape, nu)
        kstar = np.maximum(0.0, 0.5 * (-(nu + 2.0) + np.sqrt(nu * nu + x * x)))
        k = np.round(kstar)
        log_max = (nu + 2 * k) * np.log(0.5 * x) - gammaln(k + 1.0) - gammaln(nu + k + 1.0)
        want = log_max <= bessel._SERIES_LOG_GUARD
        assert np.array_equal(bessel._series_safe(nus, x), want), nu
        closest = min(closest, float(np.min(np.abs(log_max - bessel._SERIES_LOG_GUARD))))
    assert closest > 1e-9  # far above the few-ulp differences of the two lgammas


def test_lgamma_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(bessel, "_LGAMMA", np.full(1, math.inf))
    a = np.arange(1.0, 300.0, 0.5)
    assert np.array_equal(bessel._lgamma(a), [math.lgamma(v) for v in a])
    assert bessel._LGAMMA.size == 1024  # doubled up to the largest index, 598
    assert math.isfinite(bessel_j(0, 1e12))
    with np.errstate(over="ignore", invalid="ignore"):  # the route estimate squares x
        assert math.isfinite(bessel_j(0.5, 1e300))
    assert bessel._LGAMMA.size <= bessel.LGAMMA_TABLE_BUDGET
    # past the table, one lgamma per distinct value, bitwise the same
    big = np.array([1e12, 2.5e5, 1e12, 131071.5, 4.5])
    assert np.array_equal(bessel._lgamma(big), [math.lgamma(v) for v in big])
