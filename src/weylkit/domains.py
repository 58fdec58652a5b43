"""Bounded test domains: volume, surface area, membership, distance queries.

Distance here always means distance to the complement, d(u) = inf{|x-u| :
x not in the domain}; it is 0 everywhere outside. Box, disk, ball and
half-space provide closed-form distances and gradients; polygons are used
by the finite-difference module only (membership + geometry).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Points are float arrays of shape (n, d), one point per row; every query
# returns per-row arrays, and a row's value does not depend on its batch.


def lattice(axes) -> np.ndarray:
    """The points of meshgrid(*axes, indexing="ij") as rows in C order, in the
    axes' dtype; unlike meshgrid, for any number of axes."""
    sizes = [len(a) for a in axes]
    pts = np.empty((math.prod(sizes), len(axes)), dtype=np.result_type(*axes))
    for i, a in enumerate(axes):
        pts[:, i] = np.tile(np.repeat(a, math.prod(sizes[i + 1:])), math.prod(sizes[:i]))
    return pts


# Reductions over the coordinate axis of an (n, d) batch, one whole-array op
# per column: for small d numpy's axis=1 reductions cost 15-35x as much.


def row_sum(a: np.ndarray) -> np.ndarray:
    """Each row's sum, from 0.0 and left to right: bitwise np.sum(a, axis=1)
    below 8 columns, where numpy does not sum pairwise."""
    out = a[:, 0] + 0.0
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def row_norm(a: np.ndarray) -> np.ndarray:
    """Each row's Euclidean length, bitwise np.linalg.norm(a, axis=1) below
    8 columns."""
    return np.sqrt(row_sum(a * a))


def row_min(a: np.ndarray) -> np.ndarray:
    """Each row's minimum, bitwise a.min(axis=1)."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.minimum(out, a[:, j], out=out)
    return out


def row_all(a: np.ndarray) -> np.ndarray:
    """np.all(a, axis=1) for a boolean batch."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out &= a[:, j]
    return out


def row_any(a: np.ndarray) -> np.ndarray:
    """np.any(a, axis=1) for a boolean batch."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out |= a[:, j]
    return out


@dataclass(frozen=True)
class Box:
    """Axis-aligned box (0, a_1) x ... x (0, a_d)."""

    sides: tuple[float, ...]

    def __post_init__(self):
        if len(self.sides) < 1 or not all(0 < a < math.inf for a in self.sides):
            raise ConfigError(f"box sides must be positive, got {self.sides}")
        object.__setattr__(self, "sides", tuple(float(a) for a in self.sides))

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> float:
        return math.prod(self.sides)

    @property
    def surface(self) -> float:
        v = self.volume
        return 2.0 * sum(v / a for a in self.sides)

    def contains(self, u) -> np.ndarray:
        a = np.asarray(self.sides)
        return row_all((u > 0) & (u < a))

    def distance_to_complement(self, u) -> np.ndarray:
        a = np.asarray(self.sides)
        gaps = np.minimum(u, a - u)  # per-axis distance to the two faces
        return np.clip(row_min(gaps), 0.0, None)

    def distance_to_boundary(self, u) -> np.ndarray:
        a = np.asarray(self.sides)
        gaps = np.minimum(u, a - u)
        inside = row_min(gaps)
        # outside: distance to the box
        out = np.maximum(np.maximum(-u, u - a), 0.0)
        outside = row_norm(out)
        return np.where(inside > 0, inside, outside)

    def grad_distance(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of d(u) where defined.

        Returns (grad, smooth) with smooth=False on the non-differentiable
        set (outside closure, face ties, points on the boundary).
        """
        a = np.asarray(self.sides)
        # one pass over the 2d face gaps u_0, a_0 - u_0, u_1, ...: the
        # smallest, the first face k where it occurs (strict <), and the
        # second smallest as a sort gives it, the lesser of the second so far
        # and the larger of the new gap and the smallest so far
        first, second = u[:, 0].copy(), np.full(len(u), np.inf)
        k = np.zeros(len(u), dtype=np.intp)
        for j in range(1, 2 * a.size):
            gap = a[j // 2] - u[:, j // 2] if j % 2 else u[:, j // 2]
            k = np.maximum(k, (gap < first) * j)
            second = np.minimum(second, np.maximum(gap, first))
            first = np.minimum(first, gap)
        tie = (second - first) <= 1e-12 * (1.0 + a.max())
        inside = first > 0  # every gap: 0 < u < a
        grad = np.empty_like(u)
        for i in range(a.size):  # +1 toward face 2i, -1 toward face 2i + 1, 0 outside
            np.subtract((k == 2 * i) & inside, (k == 2 * i + 1) & inside, out=grad[:, i],
                        dtype=float)
        # outside the closure d == 0 identically, which is smooth
        strictly_out = row_any((u < -1e-12) | (u > a + 1e-12))
        smooth = inside & ~tie | strictly_out
        return grad, smooth


@dataclass(frozen=True)
class Disk:
    """Disk of radius R centered at the origin (d = 2); its queries hold in any d."""

    radius: float
    dim = 2

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ConfigError(
                f"{type(self).__name__.lower()} radius must be positive, got {self.radius}")

    @property
    def volume(self) -> float:
        return math.pi * self.radius**2

    @property
    def surface(self) -> float:
        return 2.0 * math.pi * self.radius

    def contains(self, u) -> np.ndarray:
        return row_sum(u * u) < self.radius**2

    def distance_to_complement(self, u) -> np.ndarray:
        r = row_norm(u)
        return np.clip(self.radius - r, 0.0, None)

    def distance_to_boundary(self, u) -> np.ndarray:
        r = row_norm(u)
        return np.abs(self.radius - r)

    def grad_distance(self, u) -> tuple[np.ndarray, np.ndarray]:
        r = row_norm(u)
        inside = r < self.radius
        safe = np.where(r > 0, r, 1.0)
        grad = np.where(inside[:, None], -u / safe[:, None], 0.0)
        smooth = (r > 1e-12) & (np.abs(r - self.radius) > 1e-12)
        return grad, smooth


@dataclass(frozen=True)
class Ball:
    """Ball of radius R centered at the origin (d = 3); queries as for Disk."""

    radius: float
    dim = 3

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * math.pi * self.radius**3

    @property
    def surface(self) -> float:
        return 4.0 * math.pi * self.radius**2

    __post_init__ = Disk.__post_init__
    contains = Disk.contains
    distance_to_complement = Disk.distance_to_complement
    distance_to_boundary = Disk.distance_to_boundary
    grad_distance = Disk.grad_distance


@dataclass(frozen=True)
class HalfSpace:
    """Half-space {x : x_d > 0}; unbounded, used by the localization tests.

    Volume and surface are undefined (inf); only membership and distance
    queries are meaningful.
    """

    dim: int = 2

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("half-space dimension must be >= 1")

    volume = math.inf
    surface = math.inf

    def contains(self, u) -> np.ndarray:
        return u[:, -1] > 0

    def distance_to_complement(self, u) -> np.ndarray:
        return np.clip(u[:, -1], 0.0, None)

    def distance_to_boundary(self, u) -> np.ndarray:
        return np.abs(u[:, -1])

    def grad_distance(self, u) -> tuple[np.ndarray, np.ndarray]:
        grad = np.zeros_like(u)
        grad[:, -1] = np.where(u[:, -1] > 0, 1.0, 0.0)
        smooth = np.abs(u[:, -1]) > 1e-12
        return grad, smooth


class Polygon:
    """Simple 2-D polygon given by its vertex list (no self-intersections)."""

    dim = 2

    def __init__(self, vertices):
        try:
            v = np.asarray(vertices, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"polygon vertices do not convert to float64: {exc}") from None
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ConfigError("polygon needs an (n, 2) vertex array with n >= 3")
        v = v[np.any(v != np.roll(v, -1, axis=0), axis=1)]  # drop zero-length edges
        self.vertices = v
        x, y = v[:, 0], v[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite area is refused
            self._area2 = float(np.sum(x * yn - xn * y))
        if not abs(self._area2) < math.inf:  # a NaN or infinite vertex, or an overflow
            raise ConfigError("polygon vertices and the area they enclose must be finite")
        if abs(self._area2) < 1e-14:
            raise ConfigError("degenerate polygon (zero area)")

    @property
    def volume(self) -> float:
        return abs(self._area2) / 2.0

    @property
    def surface(self) -> float:
        d = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))

    def contains(self, u) -> np.ndarray:
        """Even-odd membership test; points on an edge count as outside."""
        return self._inside(u, self.distance_to_boundary(u))

    def _inside(self, pts: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """`contains` for a batch whose boundary distances are `dist`."""
        scale = 1.0 + np.abs(self.vertices).max()
        on = dist <= 1e-12 * scale
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        for (x0, y0), (x1, y1) in zip(a, b):
            crosses = (y0 > y) != (y1 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            inside ^= crosses & (x < np.where(crosses, xi, np.inf))
        return inside & ~on

    def distance_to_boundary(self, u) -> np.ndarray:
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        best = np.full(len(u), np.inf)
        for p0, p1 in zip(a, b):
            e = p1 - p0
            L2 = e @ e
            w = u - p0
            # not w @ e: BLAS rounds a matrix-vector product by batch size
            t = np.clip((w[:, 0] * e[0] + w[:, 1] * e[1]) / L2, 0.0, 1.0)
            proj = p0 + t[:, None] * e
            best = np.minimum(best, np.hypot(*(u - proj).T))
        return best

    def distance_to_complement(self, u) -> np.ndarray:
        dist = self.distance_to_boundary(u)
        return np.where(self._inside(u, dist), dist, 0.0)


def load_polygon(path) -> Polygon:
    """Read a polygon from a JSON file {"vertices": [[x, y], ...]}."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read polygon file {path}: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data:
        raise ConfigError(f'polygon file {path} must contain {{"vertices": [[x, y], ...]}}')
    return Polygon(data["vertices"])


def square(a: float = 1.0) -> Box:
    return Box((a, a))


def lshape_polygon(a: float = 1.0) -> Polygon:
    """Square of side a minus its upper-right quadrant."""
    h = a / 2.0
    return Polygon([(0, 0), (a, 0), (a, h), (h, h), (h, a), (0, a)])
