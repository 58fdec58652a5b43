"""Multiscale localization: distance-driven scales, partition functions,
and boundary straightening.

The scale function attached to a domain is

    l(u) = 1/2 (1 + (d(u)^2 + l0^2)^{-1/2})^{-1},   0 < l0 <= 1,

with d(u) the distance to the complement. It satisfies l0/4 <= l <= 1/2,
l(u) >= min(d(u), 1)/4, l is 1/2-Lipschitz (dl/ds <= 1/2 and
s = hypot(d, l0) is 1-Lipschitz in u), and l(u) <= l0/sqrt(3) whenever
the closed ball of radius l(u) around u touches the boundary.

Around every center u lives the localization function

    phi_u(x) = phi((x - u)/l(u)) sqrt(J(x, u)) l(u)^{d/2},

where phi is a fixed smooth bump supported in the unit ball with unit L2
norm and J(x, u) is the Jacobian of u -> (x - u)/l(u). By the rank-one
determinant identity J = l^{-d} |1 + (x - u) . grad l / l|, so phi_u
reduces to phi(z) sqrt(W) with W = 1 + (x - u) . grad l / l. The family
satisfies the normalization

    int phi_u(x)^2 l(u)^{-d} du = 1   for every x,

which `normalization_check` verifies by adaptive quadrature over u. It
evaluates the integrand only where it can be nonzero: a fixed-point bound
r* < 2 l(x) on |x - u| over its support skips the cells beyond it, which
keep exact-zero rows. One integrand call per refinement depth serves both
Gauss rules, and each takes l, grad l and W at its nodes from one `_frame`:
one distance and one gradient query. Every sum is that of the full
evaluation, to the bit. Scales that leave the float range are refused: an
l0 with (l0/4)^2 or (l0/4)^d subnormal, a bounding box beyond 2^300, and
an x whose finest quadrature cells could span fewer than MIN_CELL_ULPS ulps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import constants
from .domains import Box, Disk, lattice, row_norm, row_sum
from .errors import ConfigError, DomainError, InvariantViolation, NumericsError, ResourceError
from .output import csv_text, write

FD_STEP_FACTOR = 1e-6  # symmetric finite-difference step, as a multiple of l0
MAX_DEPTH = 4  # cell refinements in normalization_check
SEED_CELL_FACTOR = 1.0 / 6.0  # normalization_check seed cell size, as a multiple of l(x)
# normalization_check seed points, (2n)^d cells x 5^d: above 28^3 x 5^3, the
# largest 3-D seed (about 210 MB), below 16^4 x 5^4, the smallest 4-D one
SEED_POINT_BUDGET = 2**22
SCALE_STEP_FACTOR = 1.0 / 32.0  # scale_integrals midpoint step, as a multiple of l0
# normalization_check refuses an x whose finest cells could be narrower than
# this many ulps of its coordinates: below 2^5 the unit disk and ball gave
# false invariant violations at |x| = 1; from 2^8 on, deviations stayed below
# 1.4e-6 there and on a 1e6 disk and a 1e4 square
MIN_CELL_ULPS = 2**8
# bounding_box refuses corners beyond it; grad l overflows from s ~ 4.5e102
COORD_BOUND = 2.0**300


# ---------------------------------------------------------------------------
# scale function


@dataclass(frozen=True)
class ScaleFunction:
    """u -> l(u) for a fixed domain and regularization parameter l0."""

    domain: object
    l0: float

    def __post_init__(self):
        if not 0.0 < self.l0 <= 1.0:
            raise ConfigError(f"l0 must lie in (0, 1], got {self.l0}")
        d, p = self.domain.dim, max(self.domain.dim, 2)
        if (self.l0 / 4.0) ** p < sys.float_info.min:  # l >= l0/4 everywhere
            raise ConfigError(
                f"l0 = {self.l0} is too small: (l0/4)^{p} is subnormal, and l >= l0/4 "
                f"must keep l^2 and l^-{d} finite and positive")

    def scale(self, u):
        s = np.hypot(self.domain.distance_to_complement(u), self.l0)
        return s / (2.0 * (s + 1.0))

    def scale_and_grad(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(l, grad l, fallback flags) for a batch u from one distance query.

        grad l is analytic via the chain rule where the distance is
        differentiable; on its non-differentiability set (e.g. the ridge of
        a box) a symmetric finite difference of l with step
        FD_STEP_FACTOR * l0 is used and the point is flagged for diagnostics.
        """
        dist = self.domain.distance_to_complement(u)
        gd, smooth = self.domain.grad_distance(u)
        s = np.hypot(dist, self.l0)
        l = s / (2.0 * (s + 1.0))
        grad = (dist / (2.0 * s * (s + 1.0) ** 2))[:, None] * gd
        flagged = ~smooth
        if flagged.any():
            step = FD_STEP_FACTOR * self.l0
            uf = u[flagged]
            fd = np.empty_like(uf)
            for axis in range(u.shape[1]):
                up = uf.copy()
                um = uf.copy()
                up[:, axis] += step
                um[:, axis] -= step
                fd[:, axis] = (self.scale(up) - self.scale(um)) / (2.0 * step)
            grad[flagged] = fd
        return l, grad, flagged


def _frame(sf: ScaleFunction, u: np.ndarray, x: np.ndarray):
    """(l, grad l, x - u, |x - u|^2 / l^2, W) for centers u and points x,
    (n, d) batches paired row by row or with one side a single row, from one
    scale query at u: l and grad l per center, W = 1 + (x - u) . grad l / l."""
    l, grad, _ = sf.scale_and_grad(u)
    diff = x - u
    return (l, grad, diff, row_sum(diff * diff) / (l * l),
            1.0 + row_sum(diff * grad) / l)


def jacobian_factor(sf: ScaleFunction, x, u) -> float:
    """J(x, u) = l^{-d} |1 + (x - u) . grad l(u) / l(u)| on |x - u| < l(u)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    l, _, diff, _, w = _frame(sf, u[None, :], x[None, :])
    if np.linalg.norm(diff) >= l[0]:
        raise DomainError(f"point {x} outside the support ball of radius {l[0]} at {u}")
    return l[0] ** -len(x) * abs(float(w[0]))


# ---------------------------------------------------------------------------
# mother bump and partition functions


@lru_cache(maxsize=None)
def _bump_constant(d: int) -> float:
    """c with int (c exp(-1/(1-|z|^2)))^2 dz = 1 over the unit ball. The
    radial integrand is smooth and flat at r = 1, so a 64-point
    Gauss-Legendre rule on [0, 1] is within 2e-15 (relative) for d <= 3."""
    x, w = np.polynomial.legendre.leggauss(64)
    r = 0.5 + 0.5 * x
    val = 0.5 * float(np.sum(w * np.exp(-2.0 / (1.0 - r * r)) * r ** (d - 1)))
    return 1.0 / math.sqrt(d * constants(d).omega_d * val)


def _bump(r2: np.ndarray, c: float, k: float) -> np.ndarray:
    """c exp(-k/(1 - r2)) where r2 < 1, and 0 elsewhere."""
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = c * np.exp(-k / (1.0 - r2[inside]))
    return out


def mother_bump(d: int, z) -> np.ndarray:
    """Smooth bump with support {|z| < 1} and unit L2 norm."""
    return _bump(row_sum(z * z), _bump_constant(d), 1.0)


def partition_eval(sf: ScaleFunction, u, x) -> np.ndarray:
    """phi_u(x) for the center u and a batch x; exactly 0 outside |x - u| < l(u)."""
    u = np.asarray(u, dtype=float)
    _, _, _, r2, w = _frame(sf, u[None, :], x)
    out = _bump(r2, _bump_constant(len(u)), 1.0)
    inside = r2 < 1.0
    out[inside] *= np.sqrt(w[inside])
    return out


def partition_grad(sf: ScaleFunction, u, x) -> np.ndarray:
    """Gradient of phi_u in x for a batch x; |grad phi_u| * l(u) stays bounded in u."""
    u = np.asarray(u, dtype=float)
    l, grad_l, diff, r2, w = _frame(sf, u[None, :], x)
    out = np.zeros_like(x)
    inside = r2 < 1.0
    if inside.any():
        zi = diff[inside] / l
        r2i = r2[inside]
        phi = _bump(r2i, _bump_constant(len(u)), 1.0)
        dphi = phi[:, None] * (-2.0 * zi / (1.0 - r2i[:, None]) ** 2)
        wi = w[inside]
        out[inside] = (
            np.sqrt(wi)[:, None] * dphi / l
            + (phi / (2.0 * np.sqrt(wi)))[:, None] * grad_l / l
        )
    return out


# ---------------------------------------------------------------------------
# normalization quadrature over centers


@lru_cache(maxsize=None)
def _tensor_rule(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(k)
    return lattice([nodes] * d), np.prod(lattice([weights] * d), axis=1)


def _support_reach(sf: ScaleFunction, x: np.ndarray) -> float:
    """r* with phi_u(x) = 0 wherever |x - u| >= r*.

    d is 1-Lipschitz and l increases with d, so phi_u(x) != 0, which needs
    |x - u| < l(u), gives r < g(r) at r = |x - u|, with g(r) the scale at
    distance d(x) + r. g is increasing and 1/2-Lipschitz, so r < g(r)
    holds exactly below the fixed point r* of g, and the iterates of g
    from 1/2 > g(1/2) decrease to r* and stay above it. The margin covers
    the rounding in g, in the distances (a few ulps of the coordinates)
    and in the z^2 < 1 test.
    """
    dx = float(sf.domain.distance_to_complement(x[None, :])[0])
    r = 0.5
    while True:
        s = math.hypot(dx + r, sf.l0)
        nxt = s / (2.0 * (s + 1.0))
        if not nxt < r:
            break
        r = nxt
    return r * (1.0 + 1e-9) + 1e-13 * (1.0 + dx + float(np.max(np.abs(x))))


def _normalization_integrand(sf: ScaleFunction, x: np.ndarray):
    """u -> phi_u(x)^2 l(u)^{-d} for a batch u, from one `_frame` of the
    batch: one distance and one gradient query, and an exact 0 where
    z^2 >= 1."""
    d = len(x)
    c = _bump_constant(d) ** 2

    def integrand(u: np.ndarray) -> np.ndarray:
        l, _, _, z2, w = _frame(sf, u, x[None, :])
        out = _bump(z2, c, 2.0)
        inside = z2 < 1.0
        out[inside] = out[inside] * w[inside] * l[inside] ** -d
        return out

    return integrand


def _eval_cells(integrand, centers, halfs, near, rules):
    """Each rule's integral over each cell, from one integrand call on the
    nodes of every rule in the `near` cells; the other cells' node values
    stay exact zeros, so every product keeps its shape."""
    d = centers.shape[1]
    pts = np.concatenate([p for p, _ in rules])
    nodes = centers[near][:, None, :] + halfs[near][:, None, None] * pts[None, :, :]
    vals = integrand(nodes.reshape(-1, d)).reshape(len(nodes), len(pts))
    out = []
    start = 0
    for _, w in rules:
        block = np.zeros((len(centers), len(w)))
        block[near] = vals[:, start:start + len(w)]
        out.append(block @ w * halfs**d)
        start += len(w)
    return out


def normalization_check(sf: ScaleFunction, x, tol: float = 1e-3) -> float:
    """int phi_u(x)^2 l(u)^{-d} du, adaptively integrated; must be 1.

    l is 1/2-Lipschitz, so phi_u(x) != 0 needs |x - u| < l(u) <= l(x) +
    |x - u|/2: the integrand is supported in the ball of radius
    R = min(1/2, 2 l(x)) around x, and on its support l(u) > 2 l(x)/3.
    That ball is seeded with a uniform cell grid of step
    SEED_CELL_FACTOR * l(x), four cells per smallest scale of variation
    there, and cells are refined where a 3- vs 5-point Gauss comparison
    flags error. At each depth the nodes of both rules go through one
    integrand call, and only in the cells that reach into the ball of
    radius r* = _support_reach(sf, x) < 2 l(x), outside which the
    integrand is exactly 0; the other cells keep all-zero rows, so the
    refinement threshold and every sum are those of evaluating all of
    them. Raises ConfigError for a tol that is not finite and positive,
    an x that is not one finite point of the domain's dimension, or an x
    whose finest cells (half-width l(x)/192 >= l0/768) could span fewer than
    MIN_CELL_ULPS ulps of |x|_inf + 1, decided before any distance query:
    there the nodes round to a few coordinates and the sum can miss 1 by
    more than tol. Raises NumericsError if the quadrature cannot reach `tol`, and
    InvariantViolation if the converged value is not within `tol` of 1.
    Raises ResourceError, before it seeds anything, if the seed holds
    more than SEED_POINT_BUDGET points: every d >= 4 does.
    """
    if not math.isfinite(tol):
        raise ConfigError(f"tol must be finite, got {tol}")
    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    x = np.asarray(x, dtype=float)
    if x.shape != (sf.domain.dim,):
        raise ConfigError(
            f"x must be one point of dimension {sf.domain.dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"x must be finite, got {x.tolist()}")
    # finest half-width l(x) SEED_CELL_FACTOR / 2^(MAX_DEPTH + 1) with l(x) >= l0/4;
    # the nodes lie within 2 l(x) <= 1 of x
    finest = sf.l0 / 4.0 * SEED_CELL_FACTOR / 2 ** (MAX_DEPTH + 1)
    if finest < MIN_CELL_ULPS * math.ulp(float(np.max(np.abs(x))) + 1.0):
        raise ConfigError(
            f"x = {x.tolist()} is too far out for l0 = {sf.l0}: its finest quadrature cells "
            f"could be as narrow as half-width {finest:.3g}, fewer than {MIN_CELL_ULPS} ulps "
            "of its coordinates")
    d = len(x)
    lx = float(sf.scale(x[None, :])[0])
    radius = min(0.5, 2.0 * lx)
    h0 = SEED_CELL_FACTOR * lx
    n = int(math.ceil(radius / h0)) + 1
    if (2 * n) ** d * 5**d > SEED_POINT_BUDGET:
        raise ResourceError(
            f"normalization seed of {2 * n}^{d} cells x 5^{d} points is over the budget "
            f"{SEED_POINT_BUDGET}")
    integrand = _normalization_integrand(sf, x)
    rules = (_tensor_rule(d, 5), _tensor_rule(d, 3))
    reach = _support_reach(sf, x)
    centers = lattice([(np.arange(-n, n) + 0.5) * h0] * d) + x[None, :]
    halfs = np.full(len(centers), h0 / 2.0)
    keep = row_norm(centers - x[None, :]) <= radius + halfs * math.sqrt(d)
    centers, halfs = centers[keep], halfs[keep]

    total = 0.0
    err = 0.0
    budget = tol / 3.0
    for depth in range(MAX_DEPTH + 1):
        near = row_norm(centers - x[None, :]) - halfs * math.sqrt(d) < reach
        i_hi, i_lo = _eval_cells(integrand, centers, halfs, near, rules)
        diff = np.abs(i_hi - i_lo)
        thresh = budget / max(len(centers), 1) if depth < MAX_DEPTH else math.inf
        refine = diff > thresh
        total += float(i_hi[~refine].sum())
        err += float(diff[~refine].sum())
        if not refine.any():
            break
        # split flagged cells into 2^d children
        c = centers[refine]
        h = halfs[refine]
        sign = lattice([np.array([-1.0, 1.0])] * d)  # corners of [-1, 1]^d, scaled below
        centers = (c[:, None, :] + 0.5 * h[:, None, None] * sign[None, :, :]).reshape(
            -1, d
        )
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


# ---------------------------------------------------------------------------
# collar integrals of powers of the scale


def bounding_box(domain, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Corners (lo, hi) of the box or disk's bounding box, grown by `margin`;
    a ConfigError if a corner lies beyond COORD_BOUND."""
    if isinstance(domain, Box):
        lo, hi = np.zeros(domain.dim) - margin, np.asarray(domain.sides) + margin
    elif isinstance(domain, Disk):
        hi = np.full(domain.dim, domain.radius + margin)
        lo = -hi
    else:
        raise ConfigError("localize supports square/box/disk domains only")
    if hi.max() > COORD_BOUND:  # and -lo <= hi
        raise ConfigError(f"localize needs a bounding box within 2^300 of the origin, "
                          f"got a corner at {float(hi.max())!r}")
    return lo, hi


def scale_integrals(sf: ScaleFunction, a: float) -> tuple[float, float]:
    """(int_{U1} l^{-2} du, int_{U2} l^a du) by midpoint quadrature.

    U1 holds the interior centers whose closed ball avoids the boundary,
    U2 the centers whose ball meets it (dist(u, boundary) <= l(u)). The
    first integral scales like 1/l0, the second like l0^{a+1}. Only box
    and disk domains are supported (closed-form boundary distances).
    """
    dom = sf.domain
    lo, hi = bounding_box(dom, 2.0 * sf.l0)
    d = dom.dim
    step = sf.l0 * SCALE_STEP_FACTOR
    u = lattice([np.arange(lo[i] + step / 2.0, hi[i], step) for i in range(d)])
    l = np.asarray(sf.scale(u))
    bdist = np.asarray(dom.distance_to_boundary(u))
    in_u2 = bdist <= l
    in_u1 = np.asarray(dom.contains(u)) & ~in_u2
    cell = step**d
    i1 = float(np.sum(l[in_u1] ** -2.0) * cell)
    i2 = float(np.sum(l[in_u2] ** a) * cell)
    return i1, i2


def scale_integral_slopes(domain, a: float, l0_values) -> tuple[float, float]:
    """Log-log slopes of the two collar integrals against l0."""
    l0s = np.asarray(sorted(l0_values, reverse=True), dtype=float)
    i1 = []
    i2 = []
    for l0 in l0s:
        v1, v2 = scale_integrals(ScaleFunction(domain, float(l0)), a)
        i1.append(v1)
        i2.append(v2)
    s1 = float(np.polyfit(np.log(l0s), np.log(i1), 1)[0])
    s2 = float(np.polyfit(np.log(l0s), np.log(i2), 1)[0])
    return s1, s2


# ---------------------------------------------------------------------------
# boundary straightening


@dataclass(frozen=True)
class BoundaryChart:
    """Graph chart of a boundary patch: x_d = f(x') on |x'| <= radius.

    f(0) = 0 and grad f(0) = 0; grad f is Hoelder continuous with
    exponent alpha, so sup |grad f| = O(radius^alpha). f and grad f take
    (n, d - 1) batches of x'.
    """

    f: object
    grad_f: object
    radius: float
    alpha: float
    dim: int = 2

    def __post_init__(self):
        if self.radius <= 0 or not 0 < self.alpha <= 1:
            raise ConfigError("chart needs radius > 0 and alpha in (0, 1]")


def _shear(chart: BoundaryChart, x, sign: float) -> np.ndarray:
    """(x', x_d) -> (x', x_d + sign * f(x')) on the chart disk."""
    xp = x[:, :-1]
    if np.any(row_norm(xp) > chart.radius * (1.0 + 1e-12)):
        raise DomainError(
            f"tangential coordinate outside the chart disk of radius {chart.radius}"
        )
    y = x.copy()
    y[:, -1] = x[:, -1] + sign * np.asarray(chart.f(xp))
    return y


def straighten(chart: BoundaryChart, x) -> np.ndarray:
    """Volume-preserving flattening (x', x_d) -> (x', x_d - f(x'))."""
    return _shear(chart, x, -1.0)


def unstraighten(chart: BoundaryChart, y) -> np.ndarray:
    return _shear(chart, y, 1.0)


def mapped_volume_mc(
    chart: BoundaryChart, lo, hi, n: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo volume of the image of the box [lo, hi], with stderr.

    Since the straightening has unit Jacobian the estimate must agree
    with the box volume within sampling error.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = chart.dim
    rng = np.random.default_rng(seed)
    # bounding box of the image: tangential range unchanged, vertical
    # range shifted by the extremes of f over the tangential box
    probe = rng.uniform(lo[:-1], hi[:-1], size=(4096, d - 1))
    fvals = np.asarray(chart.f(probe))
    pad = 1e-9 + 0.1 * (fvals.max() - fvals.min())
    y_lo = np.concatenate([lo[:-1], [lo[-1] - fvals.max() - pad]])
    y_hi = np.concatenate([hi[:-1], [hi[-1] - fvals.min() + pad]])
    sample = rng.uniform(y_lo, y_hi, size=(n, d))
    back_vertical = sample[:, -1] + np.asarray(chart.f(sample[:, :-1]))
    inside = (back_vertical > lo[-1]) & (back_vertical < hi[-1])
    p = inside.mean()
    bbox = float(np.prod(y_hi - y_lo))
    return bbox * p, bbox * math.sqrt(p * (1.0 - p) / n)


def surface_defect(chart: BoundaryChart, phi2) -> float:
    """int phi2 (sqrt(1 + |grad f|^2) - 1) over the chart disk.

    This is the gap between the surface measure of the graph patch and
    the flat measure of its straightened image; it is nonnegative and
    scales like radius^{d - 1 + 2 alpha} for an alpha-Hoelder gradient.
    """
    r = chart.radius
    t, wt = np.polynomial.legendre.leggauss(24)
    # 24 nodes on each half-axis, so that no rule straddles the kink of f at 0
    axis, weights = np.concatenate([t - 1.0, t + 1.0]) / 2.0, np.concatenate([wt, wt]) / 2.0
    nodes = lattice([axis] * (chart.dim - 1)) * r
    w = np.prod(lattice([weights] * (chart.dim - 1)), axis=1)
    inside = row_norm(nodes) < r
    grads = np.asarray(chart.grad_f(nodes[inside]))
    vals = np.zeros(len(nodes))
    vals[inside] = np.asarray(phi2(nodes[inside])) * (np.sqrt(1.0 + row_sum(grads**2)) - 1.0)
    return float(np.sum(vals * w) * r ** (chart.dim - 1))


def holder_chart(c: float, alpha: float, radius: float, dim: int = 2) -> BoundaryChart:
    """Chart family f(x') = c |x'|^{1 + alpha}, exactly C^{1, alpha}."""

    def f(xp):
        return c * row_norm(xp) ** (1.0 + alpha)

    def grad_f(xp):
        r = row_norm(xp)
        scale = c * (1.0 + alpha) * np.where(r > 0, r, 1.0) ** (alpha - 1.0)
        return scale[:, None] * np.where(r[:, None] > 0, xp, 0.0)

    return BoundaryChart(f=f, grad_f=grad_f, radius=radius, alpha=alpha, dim=dim)


def bump_weight(radius: float):
    """A fixed smooth profile rescaled to the chart disk, for defect tests."""

    def phi2(xp):
        return _bump(row_sum(xp * xp) / radius**2, 1.0, 2.0)

    return phi2


def surface_defect_slope(c: float, alpha: float, radii, dim: int = 2) -> float:
    """Log-log slope of the defect against the chart radius."""
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    vals = [
        surface_defect(holder_chart(c, alpha, float(r), dim), bump_weight(float(r)))
        for r in radii
    ]
    return float(np.polyfit(np.log(radii), np.log(vals), 1)[0])


# ---------------------------------------------------------------------------
# diagnostics


def dump_diagnostics(sf: ScaleFunction, points, path) -> None:
    """CSV of (u, l(u), flag); flag=1 where grad l fell back to differences."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    l, _, flags = sf.scale_and_grad(pts)
    header = [f"u{i + 1}" for i in range(pts.shape[1])] + ["l", "flag"]
    write(csv_text(header, [*pts.T, l, flags.astype(int)]), path)
