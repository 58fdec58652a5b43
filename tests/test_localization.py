import csv
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from weylkit import localization
from weylkit.constants import constants
from weylkit.domains import Ball, Box, Disk, HalfSpace, lattice, square
from weylkit.errors import (
    ConfigError,
    DomainError,
    InvariantViolation,
    NumericsError,
    WeylkitError,
)
from weylkit.localization import (
    BoundaryChart,
    ScaleFunction,
    dump_diagnostics,
    bounding_box,
    holder_chart,
    jacobian_factor,
    mapped_volume_mc,
    _normalization_integrand,
    _support_reach,
    mother_bump,
    normalization_check,
    partition_eval,
    partition_grad,
    scale_integral_slopes,
    scale_integrals,
    straighten,
    surface_defect,
    surface_defect_slope,
    unstraighten,
    bump_weight,
)

RNG = np.random.default_rng(2024)


def sample_points(domain, n, margin=0.6):
    if isinstance(domain, Box):
        lo = np.zeros(domain.dim) - margin
        hi = np.asarray(domain.sides) + margin
    elif isinstance(domain, Disk):
        lo = np.full(2, -domain.radius - margin)
        hi = np.full(2, domain.radius + margin)
    else:  # half-space strip around the wall
        lo = np.array([-1.0, -margin])
        hi = np.array([1.0, 1.0])
    return RNG.uniform(lo, hi, size=(n, len(lo)))


# ---------------------------------------------------------------------------
# scale function


def test_scale_formula_values():
    sf = ScaleFunction(HalfSpace(2), 0.1)
    wall = sf.scale(np.array([[0.3, 0.0]]))[0]
    assert wall == pytest.approx(0.1 / (2 * 1.1), rel=1e-14)
    far = sf.scale(np.array([[0.0, 1e12]]))[0]
    assert far == pytest.approx(0.5, abs=1e-10)
    s = math.sqrt(0.02)
    at = sf.scale(np.array([[0.0, 0.1]]))[0]
    assert at == pytest.approx(0.5 / (1 + 1 / s), rel=1e-14)


def test_l0_validation():
    with pytest.raises(ConfigError):
        ScaleFunction(square(1.0), 0.0)
    with pytest.raises(ConfigError):
        ScaleFunction(square(1.0), 1.5)


_CHART = "chart needs radius > 0 and alpha in (0, 1]"


def _check(domain, x, tol=1e-3):
    return lambda: normalization_check(ScaleFunction(domain, 0.1), np.array(x), tol=tol)


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: BoundaryChart(None, None, 0.0, 0.5), _CHART, id="chart-radius-0"),
    pytest.param(lambda: BoundaryChart(None, None, -1.0, 0.5), _CHART, id="chart-radius-negative"),
    pytest.param(lambda: BoundaryChart(None, None, 0.1, 0.0), _CHART, id="chart-alpha-0"),
    pytest.param(lambda: BoundaryChart(None, None, 0.1, 1.5), _CHART, id="chart-alpha-above-1"),
    # nan passed `radius <= 0`
    pytest.param(lambda: BoundaryChart(None, None, math.nan, 0.5), _CHART, id="chart-radius-nan"),
    pytest.param(_check(Disk(1.0), [0.5, 0.0], tol=0.0),
                 "tol must be positive, got 0.0", id="normalization-tol-0"),
    pytest.param(_check(Disk(1.0), [0.5, 0.0], tol=-1e-3),
                 "tol must be positive, got -0.001", id="normalization-tol-negative"),
    # nan passed `tol <= 0`, and the check returned without certifying anything
    pytest.param(_check(Disk(1.0), [0.5, 0.0], tol=math.nan),
                 "tol must be finite, got nan", id="normalization-tol-nan"),
    pytest.param(_check(Disk(1.0), [0.5, 0.0], tol=math.inf),
                 "tol must be finite, got inf", id="normalization-tol-inf"),
    # a bare ValueError from int(nan) in the seed size
    pytest.param(_check(Disk(1.0), [math.nan, 0.0]),
                 "x must be finite, got [nan, 0.0]", id="normalization-x-nan"),
    pytest.param(_check(square(1.0), [0.5, math.inf]),
                 "x must be finite, got [0.5, inf]", id="normalization-x-inf"),
    # a disk integrated a 1-D or 3-D x, a box raised a broadcast ValueError
    pytest.param(_check(Disk(1.0), [0.5]),
                 "x must be one point of dimension 2, got shape (1,)", id="normalization-disk-x-1d"),
    pytest.param(_check(Disk(1.0), [0.5, 0.0, 0.0]),
                 "x must be one point of dimension 2, got shape (3,)", id="normalization-disk-x-3d"),
    pytest.param(_check(square(1.0), [0.5, 0.5, 0.5]),
                 "x must be one point of dimension 2, got shape (3,)", id="normalization-box-x-3d"),
    pytest.param(_check(Ball(1.0), [[0.5, 0.0, 0.0]]),
                 "x must be one point of dimension 3, got shape (1, 3)", id="normalization-ball-x-row"),
])
def test_chart_and_tolerance_validation(monkeypatch, make, message):
    def unused(*args):
        raise AssertionError("seeded before the input was checked")

    # normalization_check refuses its input before it measures or seeds anything
    monkeypatch.setattr(ScaleFunction, "scale", unused)
    monkeypatch.setattr(localization, "_tensor_rule", unused)
    with pytest.raises(ConfigError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "domain", [square(1.0), Disk(1.0), HalfSpace(2)], ids=["square", "disk", "half"]
)
@pytest.mark.parametrize("l0", [0.1, 0.05])
def test_scale_bounds(domain, l0):
    sf = ScaleFunction(domain, l0)
    u = sample_points(domain, 20000)
    l = np.asarray(sf.scale(u))
    d = np.asarray(domain.distance_to_complement(u))
    assert np.all(l >= l0 / 4 - 1e-15)
    assert np.all(l >= 0.25 * np.minimum(d, 1.0) - 1e-15)
    assert np.all(l <= 0.5 + 1e-15)
    touching = np.asarray(domain.distance_to_boundary(u)) <= l
    assert np.all(l[touching] <= l0 / math.sqrt(3.0) + 1e-14)


class _CountingDomain:
    """Delegates to a domain and counts its distance queries."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim
        self.queries = 0

    def distance_to_complement(self, u):
        self.queries += 1
        return self.inner.distance_to_complement(u)

    def grad_distance(self, u):
        return self.inner.grad_distance(u)


def test_scale_and_grad_matches_public_paths():
    dom = _CountingDomain(square(1.0))
    sf = ScaleFunction(dom, 0.1)
    smooth = np.array([[0.2, 0.5], [0.7, 0.4], [0.5, 0.93]])
    ridge = np.array([[0.3, 0.3], [0.5, 0.5], [0.8, 0.2]])  # diagonal face ties
    for u, flagged in ((smooth, False), (ridge, True)):
        dom.queries = 0
        l, grad, flags = sf.scale_and_grad(u)
        if not flagged:
            assert dom.queries == 1  # l and grad l from one distance query
            dist = square(1.0).distance_to_complement(u)
            gd, _ = square(1.0).grad_distance(u)
            s = np.hypot(dist, 0.1)
            chain = (dist / (2.0 * s * (s + 1.0) ** 2))[:, None] * gd
            assert np.allclose(grad, chain, rtol=1e-14, atol=0.0)
        assert np.all(flags == flagged)
        assert l.tobytes() == np.asarray(sf.scale(u)).tobytes()


@pytest.mark.parametrize("l0", [1e-10, 1e-8])
def test_scale_gradient_on_the_ridge_at_tiny_l0(l0):
    """The unit square's ridge point (0.3, 0.3 + 1e-13): a step of a few ulps
    gave the one-sided (0.347, 0.0) at l0 = 1e-10; the floored step
    straddles the ridge, so each component is a share of the one slope
    dl/ds = 1/(2 (1 + s)^2) at s ~ 0.3."""
    l, grad, flags = ScaleFunction(square(1.0), l0).scale_and_grad(np.array([[0.3, 0.3 + 1e-13]]))
    assert flags.tolist() == [True]
    assert np.all((0.0 <= grad) & (grad <= 0.296))
    assert grad.sum() == pytest.approx(0.5 / 1.3**2, abs=1e-3)


def test_scale_gradient_step_floor_binds_only_at_tiny_l0(monkeypatch):
    """Above l0 ~ 1e-6 the step is FD_STEP_FACTOR * l0 exactly: every ridge
    gradient is bitwise that of the unfloored difference."""
    u = np.array([[0.3, 0.3], [0.5, 0.5], [0.8, 0.2], [0.1, 0.1]])  # face ties
    for l0 in (1e-5, 1e-3, 0.05, 0.1, 1.0):
        sf = ScaleFunction(square(1.0), l0)
        _, grad, flags = sf.scale_and_grad(u)
        assert flags.all()
        step = localization.FD_STEP_FACTOR * l0
        want = np.empty_like(u)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = step
            want[:, axis] = (sf.scale(u + e) - sf.scale(u - e)) / (2.0 * step)
        assert grad.tobytes() == want.tobytes(), l0


def test_partition_functions_query_distance_once():
    dom = _CountingDomain(Disk(1.0))
    sf = ScaleFunction(dom, 0.1)
    u = np.array([0.5, 0.1])
    x = u + np.array([[0.01, 0.02], [-0.02, 0.0]])
    for call in (lambda: partition_eval(sf, u, x), lambda: partition_grad(sf, u, x),
                 lambda: jacobian_factor(sf, x[0], u)):
        dom.queries = 0
        call()
        assert dom.queries == 1


@pytest.mark.parametrize("cls, domain, x", [
    (Disk, Disk(1.0), (0.9, 0.2)),
    (Box, square(1.0), (0.2, 0.55)),
    (HalfSpace, HalfSpace(2), (0.3, 0.05)),
], ids=["disk", "box", "half"])
def test_normalization_integrand_queries_each_node_once(monkeypatch, cls, domain, x):
    """One integrand call makes one distance and one gradient query, both on
    all of its rows, nodes inside and outside the support alike, and takes l
    from them, not from ScaleFunction.scale."""
    x = np.array(x)
    sf = ScaleFunction(domain, 0.1)
    lx = float(sf.scale(x[None, :])[0])
    u = x + np.random.default_rng(5).uniform(-2.0 * lx, 2.0 * lx, (400, 2))
    calls = []
    for name in ("distance_to_complement", "grad_distance"):
        def spy(self, v, query=getattr(cls, name), name=name):
            calls.append((name, v.copy()))
            return query(self, v)

        monkeypatch.setattr(cls, name, spy)

    def unused(*args):
        raise AssertionError("ScaleFunction.scale called")

    monkeypatch.setattr(ScaleFunction, "scale", unused)
    vals = _normalization_integrand(sf, x)(u)
    assert [name for name, _ in calls] == ["distance_to_complement", "grad_distance"]
    assert all(v.tobytes() == u.tobytes() for _, v in calls)
    assert 0 < np.count_nonzero(vals) < len(u)


# ---------------------------------------------------------------------------
# jacobian and partition functions


def test_jacobian_at_center():
    sf = ScaleFunction(Disk(1.0), 0.1)
    u = np.array([0.4, 0.1])
    l = float(sf.scale(u[None, :])[0])
    assert jacobian_factor(sf, u, u) == pytest.approx(l**-2, rel=1e-13)


def test_jacobian_constant_scale_regime():
    sf = ScaleFunction(HalfSpace(2), 0.1)
    u = np.array([0.0, 500.0])
    x = u + np.array([0.1, -0.2])
    l = float(sf.scale(u[None, :])[0])
    assert jacobian_factor(sf, x, u) == pytest.approx(l**-2, rel=1e-5)


def test_jacobian_support_precondition():
    sf = ScaleFunction(Disk(1.0), 0.1)
    u = np.array([0.0, 0.0])
    with pytest.raises(DomainError):
        jacobian_factor(sf, u + np.array([0.9, 0.0]), u)


def test_mother_bump_normalized():
    for d in (1, 2, 3):
        val, _ = quad(
            lambda r: float(mother_bump(d, np.array([[r] + [0.0] * (d - 1)]))[0]) ** 2
            * r ** (d - 1),
            0.0,
            1.0,
        )
        assert d * constants(d).omega_d * val == pytest.approx(1.0, abs=1e-10)


def test_bump_constant_against_mpmath():
    """The 64-point Gauss-Legendre constant is within 2e-15 of the 40-digit
    one for d = 1-3 (scipy's quad, which it replaced, was 8e-15-9.7e-14 off
    in the integral)."""
    for d in (1, 2, 3):
        with mpmath.workdps(40):
            val = mpmath.quad(lambda r: mpmath.exp(-2 / (1 - r * r)) * r ** (d - 1),
                              [0, 0.5, 0.9, 0.99, 1])
            want = 1 / mpmath.sqrt(d * _mp_omega(d) * val)
        assert abs(localization._bump_constant(d) / float(want) - 1.0) <= 2e-15, d


def _mp_omega(d: int):
    return mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1)


def test_partition_support_and_center():
    sf = ScaleFunction(Disk(1.0), 0.1)
    u = np.array([0.5, 0.0])
    l = float(sf.scale(u[None, :])[0])
    # outside the ball: exactly zero
    x = np.array([[0.5 + l * 1.0001, 0.0]])
    assert partition_eval(sf, u, x)[0] == 0.0
    # at the center the scale factors cancel, leaving phi(0)
    phi0 = float(mother_bump(2, np.zeros((1, 2)))[0])
    assert partition_eval(sf, u, u[None, :])[0] == pytest.approx(phi0, rel=1e-12)


def test_partition_sup_bounds():
    sf = ScaleFunction(square(1.0), 0.1)
    sup = 0.0
    grad_sup = 0.0
    for u in sample_points(square(1.0), 40):
        l = float(sf.scale(u[None, :])[0])
        x = u[None, :] + RNG.uniform(-l, l, size=(200, 2))
        vals = partition_eval(sf, u, x)
        grads = partition_grad(sf, u, x)
        sup = max(sup, np.max(np.abs(vals)))
        grad_sup = max(grad_sup, np.max(np.linalg.norm(grads, axis=1)) * l)
    phi0 = float(mother_bump(2, np.zeros((1, 2)))[0])
    assert sup <= 1.3 * phi0  # sqrt(W) <= sqrt(3/2) on the support
    assert grad_sup < 10.0  # uniform empirical bound for |grad phi_u| l(u)


def test_partition_grad_matches_finite_differences():
    sf = ScaleFunction(Disk(1.0), 0.1)
    u = np.array([0.6, 0.2])
    x = np.array([[0.62, 0.21]])
    g = partition_grad(sf, u, x)[0]
    eps = 1e-7
    for axis in range(2):
        xp = x.copy()
        xm = x.copy()
        xp[0, axis] += eps
        xm[0, axis] -= eps
        fd = (partition_eval(sf, u, xp)[0] - partition_eval(sf, u, xm)[0]) / (2 * eps)
        assert g[axis] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# normalization


def test_normalization_rounding_bound_edge(monkeypatch):
    # at x = (1, 0) the finest cells reach MIN_CELL_ULPS ulps of |x| + 1 = 2
    # at l0 = 768 * 2^8 * 2^-51 = 8.73e-11: just above it the check holds,
    # just below it is refused before any distance query
    x = np.array([1.0, 0.0])
    assert abs(normalization_check(ScaleFunction(Disk(1.0), 8.8e-11), x) - 1.0) < 1e-6

    def unused(*args):
        raise AssertionError("distance queried below the rounding bound")

    monkeypatch.setattr(Disk, "distance_to_complement", unused)
    with pytest.raises(ConfigError) as exc:
        normalization_check(ScaleFunction(Disk(1.0), 8.6e-11), x)
    assert str(exc.value) == (
        "x = [1.0, 0.0] is too far out for l0 = 8.6e-11: its finest quadrature cells could be "
        "as narrow as half-width 1.12e-13, fewer than 256 ulps of its coordinates")


def test_normalization_constant_scale_regime():
    sf = ScaleFunction(Box((20.0, 20.0)), 0.1)
    val = normalization_check(sf, np.array([10.0, 10.0]), tol=1e-5)
    assert abs(val - 1.0) < 1e-6


@pytest.mark.parametrize(
    "domain,x",
    [
        (Disk(1.0), np.array([0.95, 0.0])),
        (Disk(1.0), np.array([1.05, 0.0])),  # outside, within l0 of the boundary
        (square(1.0), np.array([0.03, 0.4])),
        (HalfSpace(2), np.array([0.2, 0.02])),
    ],
)
def test_normalization_near_boundary(domain, x):
    sf = ScaleFunction(domain, 0.1)
    val = normalization_check(sf, x, tol=1e-3)
    assert abs(val - 1.0) < 1e-3


class _FlatGradientScale(ScaleFunction):
    """The right l with grad l replaced by 0: a wrong Jacobian weight W = 1."""

    def scale_and_grad(self, u):
        l, grad, flagged = super().scale_and_grad(u)
        return l, np.zeros_like(grad), flagged


def test_normalization_flags_bad_scale():
    # a tol the quadrature cannot certify
    sf = ScaleFunction(Disk(1.0), 0.1)
    with pytest.raises(NumericsError):
        normalization_check(sf, np.array([0.9, 0.0]), tol=1e-12)
    # a wrong integrand converges, but off 1 by 0.7%-1.6% at these points
    bad = _FlatGradientScale(Disk(1.0), 0.1)
    for x in ((0.5, 0.0), (0.9, 0.0), (0.95, 0.0)):
        with pytest.raises(InvariantViolation):
            normalization_check(bad, np.array(x), tol=1e-3)


_SUPPORT_DOMAINS = {"square": square(1.0), "disk": Disk(1.0), "half": HalfSpace(2)}


def _boundary_frame(name: str, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(boundary point, inward unit normal) at boundary parameter t in [0, 1]."""
    if name == "disk":
        p = np.array([math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)])
        return p, -p
    if name == "half":
        return np.array([4.0 * t - 2.0, 0.0]), np.array([0.0, 1.0])
    side = min(int(4 * t), 3)
    s = 4 * t - side
    return [
        (np.array([s, 0.0]), np.array([0.0, 1.0])),
        (np.array([1.0, s]), np.array([-1.0, 0.0])),
        (np.array([s, 1.0]), np.array([0.0, -1.0])),
        (np.array([0.0, s]), np.array([1.0, 0.0])),
    ][side]


@st.composite
def _support_cases(draw):
    """(domain, l0, x) with x inside, outside, in the collar or on the square's ridge."""
    name = draw(st.sampled_from(sorted(_SUPPORT_DOMAINS)))
    l0 = draw(st.floats(0.02, 1.0))
    kind = draw(st.sampled_from(["inside", "outside", "collar", "ridge"]))
    t = draw(st.floats(0.0, 1.0))
    if kind == "ridge":
        name = "square"
        x = np.array([t, t]) if draw(st.booleans()) else np.array([t, 1.0 - t])
    else:
        depth = {"square": 0.5, "disk": 1.0, "half": 2.0}[name]
        lo, hi = {"inside": (0.0, depth), "outside": (-0.5, 0.0), "collar": (-2 * l0, 2 * l0)}[kind]
        p, n = _boundary_frame(name, t)
        x = p + draw(st.floats(lo, hi)) * n
    return _SUPPORT_DOMAINS[name], l0, x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_support_cases(), data=st.data())
def test_normalization_support_lemma(case, data):
    # l is 1/2-Lipschitz, so phi_u(x) != 0 needs |x - u| < 2 l(x), and then
    # l(u) > 2 l(x)/3; the reach r* of _support_reach is tighter still:
    # normalization_check evaluates only the cells that reach into B(x, r*)
    domain, l0, x = case
    sf = ScaleFunction(domain, l0)
    lx = float(sf.scale(x[None, :])[0])
    reach = _support_reach(sf, x)
    assert reach <= 2 * lx
    # r* lies beyond the fixed point of g (the scale at distance d(x) + r)
    # by more than rounding, so z^2 < 1 fails clearly at |x - u| >= r*
    s = math.hypot(float(domain.distance_to_complement(x[None, :])[0]) + reach, l0)
    assert s / (2.0 * (s + 1.0)) < reach * (1.0 - 1e-10)
    # radii anywhere in B(x, 1/2), and around the support edges r* and 2 l(x)
    radius = st.one_of(
        st.floats(0.0, 0.5), st.floats(0.0, 1.25).map(lambda f: min(0.5, 2 * lx * f)),
        st.floats(0.9, 1.1).map(lambda f: reach * f),
    )
    polar = data.draw(
        st.lists(st.tuples(radius, st.floats(0.0, 2 * math.pi)), min_size=1, max_size=32)
    )
    r = np.array([p[0] for p in polar])
    theta = np.array([p[1] for p in polar])
    u = x[None, :] + r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # along grad d, where d(u) = d(x) + |x - u| up to a ridge, l(u) = |x - u|
    # at the exact fixed point, so the reach's margin is all that is left
    gd, _ = domain.grad_distance(x[None, :])
    u = np.concatenate([u, x[None, :] + reach * gd])
    vals = _normalization_integrand(sf, x)(u)
    dist = np.linalg.norm(x[None, :] - u, axis=1)
    assert np.all(vals[dist >= 2 * lx] == 0.0)
    assert np.all(vals[dist >= reach] == 0.0)
    assert np.all(np.asarray(sf.scale(u))[vals != 0.0] > 2 * lx / 3)


def _reference_normalization_check(sf, x, tol):
    """normalization_check with every node of every cell evaluated, in two
    integrand calls per depth, one per Gauss rule."""
    d = len(x)
    lx = float(sf.scale(x[None, :])[0])
    radius = min(0.5, 2.0 * lx)
    h0 = localization.SEED_CELL_FACTOR * lx
    n = int(math.ceil(radius / h0)) + 1

    def integrand(u):
        l, _, _, z2, w = localization._frame(sf, u, x[None, :])
        return localization._bump(z2, localization._bump_constant(d) ** 2, 2.0) * w * l**-d

    def eval_cells(centers, halfs, k):
        pts, w = localization._tensor_rule(d, k)
        nodes = centers[:, None, :] + halfs[:, None, None] * pts[None, :, :]
        vals = integrand(nodes.reshape(-1, d)).reshape(len(centers), len(w))
        return vals @ w * halfs**d

    centers = lattice([(np.arange(-n, n) + 0.5) * h0] * d) + x[None, :]
    halfs = np.full(len(centers), h0 / 2.0)
    keep = np.linalg.norm(centers - x[None, :], axis=1) <= radius + halfs * math.sqrt(d)
    centers, halfs = centers[keep], halfs[keep]
    total = 0.0
    err = 0.0
    budget = tol / 3.0
    for depth in range(localization.MAX_DEPTH + 1):
        i_hi = eval_cells(centers, halfs, 5)
        i_lo = eval_cells(centers, halfs, 3)
        diff = np.abs(i_hi - i_lo)
        thresh = budget / max(len(centers), 1) if depth < localization.MAX_DEPTH else math.inf
        refine = diff > thresh
        total += float(i_hi[~refine].sum())
        err += float(diff[~refine].sum())
        if not refine.any():
            break
        c = centers[refine]
        h = halfs[refine]
        sign = lattice([np.array([-1.0, 1.0])] * d)
        centers = (c[:, None, :] + 0.5 * h[:, None, None] * sign[None, :, :]).reshape(-1, d)
        halfs = np.repeat(h / 2.0, 2**d)
    if err > tol:
        raise NumericsError(
            f"normalization quadrature error estimate {err:.3g} exceeds tol {tol:g}")
    if abs(total - 1.0) >= tol:
        raise InvariantViolation(
            f"partition normalization at x={x.tolist()} is {total!r}, off 1 by "
            f"{abs(total - 1.0):.3g} >= tol {tol:g}"
        )
    return total


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h=st.floats(1e-300, 1.0), d=st.integers(1, 3), k=st.integers(1, 5))
def test_cell_weight_is_the_array_power(h, d, k):
    """One half-width per depth: the cell weight half^d is bitwise the power
    of an array of k equal half-widths, which Python's h**d is not."""
    rule = ((np.zeros((1, d)), np.array([1.0])),)
    (got,) = localization._eval_cells(lambda u: np.ones(len(u)), np.zeros((k, d)), h,
                                      np.ones(k, dtype=bool), rule)
    assert got.tobytes() == (np.full(k, h) ** d).tobytes()


def _outcome(check, sf, x, tol):
    """The bits of the value, or the type and message of the error."""
    try:
        return check(sf, x, tol).hex()
    except WeylkitError as exc:
        return type(exc), str(exc)


@st.composite
def _box_cases(draw, domain, lo, hi):
    """(domain, l0, x) with x anywhere in the box (lo, hi) around the domain."""
    return domain, draw(st.floats(0.02, 1.0)), np.array([draw(st.floats(a, b)) for a, b in zip(lo, hi)])


@pytest.mark.parametrize("cases, examples", [
    pytest.param(st.one_of(_support_cases(), _box_cases(Box((1.3, 0.7)), (-0.2,) * 2, (1.5, 0.9))),
                 150, id="2d"),
    pytest.param(st.one_of(_box_cases(Box((1.0, 1.0, 1.0)), (-0.2,) * 3, (1.2,) * 3),
                           _box_cases(Ball(1.0), (-1.2,) * 3, (1.2,) * 3)),
                 6, id="3d"),
])
def test_normalization_matches_every_node_reference(cases, examples):
    # skipping the cells beyond the reach and the nodes outside the support
    # leaves every sum of the full evaluation, to the bit; a 3-D case costs
    # about 100 2-D ones
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(case=cases, tol=st.sampled_from([1e-2, 1e-3, 1e-4]))
    def check(case, tol):
        domain, l0, x = case
        sf = ScaleFunction(domain, l0)
        assert (_outcome(normalization_check, sf, x, tol)
                == _outcome(_reference_normalization_check, sf, x, tol))

    check()


@pytest.mark.parametrize("scale, x, tol, error", [
    # W from an overridden scale_and_grad, and a tol the quadrature cannot reach
    *[(_FlatGradientScale, x, 1e-3, InvariantViolation)
      for x in ((0.5, 0.0), (0.9, 0.0), (0.95, 0.0))],
    (ScaleFunction, (0.9, 0.0), 1e-12, NumericsError),
])
def test_normalization_matches_every_node_reference_when_it_raises(scale, x, tol, error):
    sf = scale(Disk(1.0), 0.1)
    outcome = _outcome(normalization_check, sf, np.array(x), tol)
    assert outcome[0] is error
    assert outcome == _outcome(_reference_normalization_check, sf, np.array(x), tol)


@pytest.mark.parametrize(
    "domain,l0,x",
    [
        (square(1.0), l0, x)
        for l0 in (1.0, 0.02)
        for x in ((0.0, 0.0), (0.01, 0.01), (0.3, 0.3), (0.5, 0.5), (0.2, 0.8), (0.02, 0.5))
    ]
    + [(Disk(1.0), l0, x) for l0 in (1.0, 0.02) for x in ((0.0, 0.0), (0.99, 0.0), (1.02, 0.0))]
    + [(HalfSpace(2), l0, x) for l0 in (1.0, 0.02) for x in ((0.0, 0.01), (0.0, -0.01))]
    + [(Box((1.0, 1.0, 1.0)), 0.1, x) for x in ((0.0, 0.0, 0.0), (0.3, 0.3, 0.3))]
    + [(Ball(1.0), 0.1, x) for x in ((0.0, 0.0, 0.0), (0.95, 0.0, 0.0))],
    ids=lambda v: (",".join(f"{c:g}" for c in v) if isinstance(v, tuple)
                   else f"l0={v:g}" if isinstance(v, float) else type(v).__name__),
)
def test_normalization_accuracy_envelope(domain, l0, x):
    # the edges of l0 in [0.02, 1], the square's corner and diagonal ridge,
    # and d = 3, which a seed over all of B(x, 1/2) could not afford
    val = normalization_check(ScaleFunction(domain, l0), np.array(x), tol=1e-3)
    assert abs(val - 1.0) < 1e-3 / 5


# ---------------------------------------------------------------------------
# collar integrals


def test_scale_integrals_basic():
    sf = ScaleFunction(square(1.0), 0.1)
    i1, i2 = scale_integrals(sf, -2.0)
    assert i1 > 0 and i2 > 0
    with pytest.raises(ConfigError, match="square/box/disk"):
        scale_integrals(ScaleFunction(HalfSpace(2), 0.1), 0.0)


def test_scale_integral_slopes_disk():
    s1, s2 = scale_integral_slopes(Disk(1.0), -2.0, [0.2, 0.1, 0.05])
    assert abs(s1 + 1.0) < 0.15
    assert abs(s2 + 1.0) < 0.15
    _, s2 = scale_integral_slopes(Disk(1.0), 0.0, [0.2, 0.1, 0.05])
    assert abs(s2 - 1.0) < 0.15  # collar measure is O(l0)


# ---------------------------------------------------------------------------
# straightening


def test_straighten_identity_for_flat_graph():
    flat = BoundaryChart(
        f=lambda xp: np.zeros(len(np.atleast_2d(xp))),
        grad_f=lambda xp: np.zeros_like(np.atleast_2d(xp)),
        radius=0.3,
        alpha=1.0,
    )
    x = np.array([[0.1, 0.25]])
    assert np.allclose(straighten(flat, x), x)
    assert surface_defect(flat, bump_weight(0.3)) == 0.0


def test_straighten_parabola_example():
    ch = holder_chart(0.5, 1.0, 0.2)  # f = |x'|^2 / 2
    y = straighten(ch, np.array([[0.1, 0.01]]))
    assert np.allclose(y, [[0.1, 0.005]])
    x = unstraighten(ch, y)
    assert np.max(np.abs(x - [[0.1, 0.01]])) < 1e-12


def test_straighten_roundtrip_batch():
    ch = holder_chart(1.0, 0.5, 0.3)
    pts = RNG.uniform(-0.29, 0.29, size=(500, 1))
    x = np.concatenate([pts, RNG.uniform(-1, 1, size=(500, 1))], axis=1)
    back = unstraighten(ch, straighten(ch, x))
    assert np.max(np.abs(back - x)) < 1e-12


def test_straighten_domain_error():
    ch = holder_chart(1.0, 1.0, 0.2)
    with pytest.raises(DomainError):
        straighten(ch, np.array([[0.5, 0.0]]))


def test_mc_volume_preserved():
    ch = holder_chart(0.5, 1.0, 0.2)
    est, se = mapped_volume_mc(ch, [-0.1, 0.0], [0.1, 0.2], n=200000, seed=7)
    assert abs(est - 0.04) <= 3.0 * se


def test_surface_defect_nonnegative_and_slopes():
    for alpha in (0.5, 1.0):
        for r in (0.2, 0.1):
            val = surface_defect(holder_chart(1.0, alpha, r), bump_weight(r))
            assert val >= 0.0
        slope = surface_defect_slope(1.0, alpha, [0.2, 0.1, 0.05])
        assert abs(slope - (1.0 + 2.0 * alpha)) < 0.2


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_surface_defect_slope_above_two_dimensions(dim, alpha):
    # the tensor-rule branch: grad f is an (n, dim - 1) array per batch
    grads = holder_chart(1.0, alpha, 0.1, dim).grad_f(np.full((5, dim - 1), 0.02))
    assert grads.shape == (5, dim - 1)
    assert surface_defect(holder_chart(1.0, alpha, 0.1, dim), bump_weight(0.1)) > 0.0
    slope = surface_defect_slope(1.0, alpha, [0.2, 0.1, 0.05], dim=dim)
    assert abs(slope - (dim - 1 + 2.0 * alpha)) < 0.05


# ---------------------------------------------------------------------------
# diagnostics


def test_dump_diagnostics(tmp_path):
    sf = ScaleFunction(square(1.0), 0.1)
    pts = np.array([[0.2, 0.5], [0.3, 0.3], [2.0, 2.0]])
    path = tmp_path / "diag.csv"
    dump_diagnostics(sf, pts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "u1,u2,l,flag"
    flags = [int(line.split(",")[-1]) for line in lines[1:]]
    assert flags[0] == 0  # smooth interior point
    assert flags[1] == 1  # diagonal ridge needs the fallback


def _reference_dump_diagnostics(sf, points, path):
    """The csv.writer row loop that the column-wise writer replaced."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    l, _, flags = sf.scale_and_grad(pts)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"u{i + 1}" for i in range(pts.shape[1])] + ["l", "flag"])
        for row, li, fi in zip(pts, l, flags):
            w.writerow([repr(float(v)) for v in row] + [repr(float(li)), int(fi)])


def _grid(domain, l0, n):
    lo, hi = bounding_box(domain, 2 * l0)
    axes = [np.linspace(lo[i], hi[i], n) for i in range(domain.dim)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def _cloud():
    pts = np.random.default_rng(7).uniform(-1.3, 1.3, (400, 2))
    pts[:4] = [[0.0, -0.0], [-0.0, 0.0], [0.5, 0.5], [1e-300, -1e-17]]  # signed zeros stay apart
    return pts


@pytest.mark.parametrize(
    "domain, l0, points, flagged",
    [
        (Disk(1.0), 0.1, _grid(Disk(1.0), 0.1, 40), False),
        (square(0.9), 0.05, _grid(square(0.9), 0.05, 41), True),  # diagonal ridges
        (Box((1.0, 0.7, 1.3)), 0.1, _grid(Box((1.0, 0.7, 1.3)), 0.1, 12), True),
        (Disk(1.0), 0.1, _cloud(), False),  # no repeated coordinates
        (square(1.0), 0.1, [0.3, 0.3], True),  # one point, given flat
    ],
    ids=["disk", "square", "box3", "cloud", "single"],
)
def test_dump_diagnostics_matches_row_writer(tmp_path, domain, l0, points, flagged):
    sf = ScaleFunction(domain, l0)
    dump_diagnostics(sf, points, tmp_path / "new.csv")
    _reference_dump_diagnostics(sf, points, tmp_path / "ref.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.endswith(b"\r\n")
    if flagged:
        assert b",1\r\n" in new
