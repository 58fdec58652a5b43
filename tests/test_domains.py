import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.domains import (
    Ball,
    Box,
    Disk,
    HalfSpace,
    Polygon,
    lattice,
    load_polygon,
    lshape_polygon,
    square,
)
from weylkit import localization
from weylkit.errors import ConfigError, WeylkitError
from weylkit.fdlap import assemble
from weylkit.localization import ScaleFunction, normalization_check


def test_box_geometry():
    b = Box((1.0, 2.0))
    assert b.volume == pytest.approx(2.0)
    assert b.surface == pytest.approx(6.0)
    assert Box((1.0, 2.0, 3.0)).surface == pytest.approx(2 * (2 + 3 + 6))


def test_disk_geometry():
    d = Disk(2.0)
    assert d.volume == pytest.approx(4 * math.pi)
    assert d.surface == pytest.approx(4 * math.pi)


def test_ball_geometry():
    b = Ball(1.0)
    assert b.volume == pytest.approx(4 * math.pi / 3)
    assert b.surface == pytest.approx(4 * math.pi)


def test_invalid_shapes():
    for bad in ((1.0, -1.0), (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ConfigError):
            Box(bad)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="^disk radius must be positive"):
            Disk(radius)
    with pytest.raises(ConfigError, match="^ball radius must be positive"):
        Ball(-1.0)
    with pytest.raises(ConfigError, match="^half-space dimension must be >= 1$"):
        HalfSpace(0)
    with pytest.raises(ConfigError):
        Polygon([(0, 0), (1, 0), (2, 0)])  # zero area
    finite = "^polygon vertices and the area they enclose must be finite$"
    for bad in ([(0, 0), (1, 0), (1, math.nan)], [(0, 0), (math.inf, 0), (1, 1)],
                [(0, 0), (1e308, 0), (1e308, 1e308), (0, 1e308)]):  # the area overflows
        with pytest.raises(ConfigError, match=finite):
            Polygon(bad)
    for bad in ([(0, 0), (1, 0, 5), (1, 1)], [("a", "b"), ("c", "d"), ("e", "f")],
                [({}, 0), (1, 0), (1, 1)], [(0, 0), (10**400, 0), (1, 1)]):
        with pytest.raises(ConfigError, match="^polygon vertices do not convert to float64: "):
            Polygon(bad)


def test_distances():
    sq = square(1.0)
    assert sq.distance_to_complement(np.array([[0.5, 0.5]]))[0] == pytest.approx(0.5)
    assert sq.distance_to_complement(np.array([[0.1, 0.4]]))[0] == pytest.approx(0.1)
    assert sq.distance_to_complement(np.array([[1.5, 0.5]]))[0] == 0.0
    d = Disk(1.0)
    assert d.distance_to_complement(np.array([[0.3, 0.0]]))[0] == pytest.approx(0.7)
    assert d.distance_to_complement(np.array([[2.0, 0.0]]))[0] == 0.0
    hs = HalfSpace(2)
    assert hs.distance_to_complement(np.array([[5.0, 0.25]]))[0] == pytest.approx(0.25)
    assert hs.distance_to_complement(np.array([[5.0, -1.0]]))[0] == 0.0


def test_boundary_distance_outside():
    sq = square(1.0)
    assert sq.distance_to_boundary(np.array([[2.0, 0.5]]))[0] == pytest.approx(1.0)
    assert sq.distance_to_boundary(np.array([[2.0, 2.0]]))[0] == pytest.approx(math.sqrt(2))
    d = Disk(1.0)
    assert d.distance_to_boundary(np.array([[3.0, 0.0]]))[0] == pytest.approx(2.0)


def test_box_grad_flags_ridge():
    sq = square(1.0)
    g, smooth = sq.grad_distance(np.array([[0.2, 0.5]]))
    assert smooth[0]
    assert np.allclose(g, [[1.0, 0.0]])
    g, smooth = sq.grad_distance(np.array([[0.9, 0.5]]))
    assert np.allclose(g, [[-1.0, 0.0]])
    _, smooth = sq.grad_distance(np.array([[0.3, 0.3]]))  # on the diagonal ridge
    assert not smooth[0]


def test_disk_grad():
    d = Disk(1.0)
    g, smooth = d.grad_distance(np.array([[0.5, 0.0]]))
    assert smooth[0]
    assert np.allclose(g, [[-1.0, 0.0]])


def test_ball_queries():
    b = Ball(1.0)
    assert b.distance_to_complement(np.array([[0.3, 0.0, 0.0]]))[0] == pytest.approx(0.7)
    assert b.distance_to_complement(np.array([[0.0, 2.0, 0.0]]))[0] == 0.0
    assert b.distance_to_boundary(np.array([[0.0, 0.0, 3.0]]))[0] == pytest.approx(2.0)
    g, smooth = b.grad_distance(np.array([[0.5, 0.0, 0.0]]))
    assert smooth[0]
    assert np.allclose(g, [[-1.0, 0.0, 0.0]])
    pts = np.array([[0.1, 0.2, 0.3], [0.6, 0.6, 0.6], [0.0, 0.0, -0.99]])
    assert b.contains(pts).tolist() == [True, False, True]


def test_polygon_membership_and_edges():
    L = lshape_polygon(1.0)
    assert L.volume == pytest.approx(0.75)
    assert L.surface == pytest.approx(4.0)
    pts = np.array(
        [
            [0.25, 0.25],  # inside
            [0.75, 0.75],  # inside the removed quadrant
            [0.75, 0.25],  # inside the lower arm
            [0.75, 0.5],  # exactly on the inner horizontal edge
            [0.5, 0.75],  # exactly on the inner vertical edge
            [0.5, 0.25],  # interior point
            [-0.1, 0.2],  # outside
        ]
    )
    inside = L.contains(pts)
    assert list(inside) == [True, False, True, False, False, True, False]


def test_polygon_repeated_vertices():
    """A closed ring (last vertex repeats the first) or a doubled vertex is
    the same polygon: same membership, distances and FD nodes."""
    ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
    open_sq = Polygon(ring)
    grid = np.mgrid[-0.25:1.3:0.125, -0.25:1.3:0.125].reshape(2, -1).T
    for verts in (ring + [ring[0]], [ring[0], *ring[:2], ring[1], *ring[2:]]):
        p = Polygon(verts)
        assert p.vertices.tolist() == open_sq.vertices.tolist()
        assert p.contains(grid).tolist() == open_sq.contains(grid).tolist()
        assert np.array_equal(p.distance_to_boundary(grid), open_sq.distance_to_boundary(grid))
        assert assemble(p, 0.125).nodes.tolist() == assemble(open_sq, 0.125).nodes.tolist()
    with pytest.raises(ConfigError):
        Polygon([(0, 0), (1, 0), (1, 0), (0, 0)])  # two distinct vertices


def test_polygon_distance():
    L = lshape_polygon(1.0)
    assert L.distance_to_complement(np.array([[0.25, 0.25]]))[0] == pytest.approx(0.25)
    assert L.distance_to_complement(np.array([[0.75, 0.75]]))[0] == 0.0


def test_polygon_distance_to_complement_one_edge_pass(monkeypatch):
    """Bitwise np.where(contains, distance_to_boundary, 0) on random,
    on-edge and vertex points, from one distance_to_boundary per call."""
    rng = np.random.default_rng(5)
    L = lshape_polygon(1.0)
    a = L.vertices
    b = np.roll(a, -1, axis=0)
    t = rng.uniform(0.0, 1.0, (4, len(a), 1))
    pts = np.concatenate([rng.uniform(-0.2, 1.2, (300, 2)), a, (a + t * (b - a)).reshape(-1, 2)])
    want = np.where(L.contains(pts), L.distance_to_boundary(pts), 0.0)
    calls = []
    dist = Polygon.distance_to_boundary

    def spy(self, u):
        calls.append(u)
        return dist(self, u)

    monkeypatch.setattr(Polygon, "distance_to_boundary", spy)
    assert L.distance_to_complement(pts).tobytes() == want.tobytes()
    assert len(calls) == 1
    assert L.distance_to_complement(pts[:1]).tobytes() == want[:1].tobytes()
    assert len(calls) == 2


def test_polygon_json_roundtrip(tmp_path):
    p = tmp_path / "poly.json"
    p.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]]}')
    poly = load_polygon(p)
    assert poly.volume == pytest.approx(1.0)
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ConfigError):
        load_polygon(bad)
    with pytest.raises(ConfigError):
        load_polygon(tmp_path / "missing.json")


@pytest.mark.parametrize("axes", [
    [np.linspace(0.0, 1.0, 4)],
    [np.arange(-1, 3), np.arange(5, 8)],  # int64 stays int64
    [np.array([0.5, 0.25]), np.linspace(-1.0, 1.0, 3), np.array([7.0, 8.0, 9.0, 10.0])],
    [np.arange(3.0), np.empty(0), np.arange(2.0)],
])
def test_lattice_matches_meshgrid(axes):
    want = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    got = lattice(axes)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_lattice_beyond_meshgrid_axes():
    """More axes than numpy arrays have dimensions (64)."""
    got = lattice([np.array([0.5]), np.array([1.0, 2.0])] + [np.array([3.0])] * 68)
    assert got.shape == (2, 70)
    assert got[:, 1].tolist() == [1.0, 2.0]
    assert (got[:, 2:] == 3.0).all()


_COORD = st.floats(-2.5, 2.5, allow_nan=False)


@st.composite
def _domain_batches(draw):
    """(domain, batch): a Box, Disk, Ball, HalfSpace or random star-shaped (so
    simple) polygon, with random points, points on faces, edges and vertices,
    and a box's diagonal ridge, where distance gradients fall back to finite
    differences."""
    kind = draw(st.sampled_from(["box", "disk", "ball", "half", "polygon"]))
    if kind == "box":
        domain = Box(tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3))))
    elif kind == "disk":
        domain = Disk(draw(st.floats(0.1, 2.0)))
    elif kind == "ball":
        domain = Ball(draw(st.floats(0.1, 2.0)))
    elif kind == "half":
        domain = HalfSpace(draw(st.integers(1, 3)))
    else:
        n = draw(st.integers(4, 9))
        jitter = draw(st.lists(st.floats(0.0, 0.8), min_size=n, max_size=n))
        radii = draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n))
        theta = 2 * np.pi * (np.arange(n) + np.array(jitter)) / n
        domain = Polygon(np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1))
    d = domain.dim
    rows = draw(st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=1, max_size=24))
    pts = [np.array(rows, dtype=float)]
    t = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)))
    if kind == "box":
        a = np.asarray(domain.sides)
        ridge = np.repeat(t[:, None] * a.min() / 2, d, axis=1)  # equidistant from d faces
        pts += [ridge, np.where(np.arange(d) == 0, 0.0, t[:, None] * a)]
    elif kind == "polygon":
        v = domain.vertices
        k = np.arange(len(t)) % len(v)
        pts += [v, v[k] + t[:, None] * (np.roll(v, -1, axis=0)[k] - v[k])]
    batch = np.concatenate(pts)
    return domain, batch[draw(st.permutations(range(len(batch))))]


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def _rowwise(query, batch):
    """query on each row of batch alone, as a (1, d) batch, stacked."""
    rows = [_as_tuple(query(batch[i:i + 1])) for i in range(len(batch))]
    return [np.concatenate(parts) for parts in zip(*rows)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_domain_batches(), l0=st.floats(0.02, 1.0))
def test_point_queries_are_rowwise(case, l0):
    """A batch query gives bitwise the same rows as one (1, d) query per row,
    for every domain query and ScaleFunction.scale_and_grad, including rows
    that take the finite-difference fallback."""
    domain, batch = case
    queries = [domain.contains, domain.distance_to_complement, domain.distance_to_boundary]
    if not isinstance(domain, Polygon):
        queries += [domain.grad_distance, ScaleFunction(domain, l0).scale_and_grad]
    for query in queries:
        for got, want in zip(_as_tuple(query(batch)), _rowwise(query, batch), strict=True):
            assert got.shape[0] == len(batch)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# column-by-column reductions against the numpy axis=1 code they replaced


def _axis_sum(a):
    return np.sum(a, axis=1)


def _axis_norm(a):
    return np.linalg.norm(a, axis=1)


class _AxisQueries:
    """A Box, Disk or Ball whose point queries are the numpy axis=1 code,
    sort and argmin that the column-by-column reductions replaced."""

    def __init__(self, domain):
        self.domain, self.dim = domain, domain.dim

    def _box(self):
        return np.asarray(self.domain.sides) if isinstance(self.domain, Box) else None

    def contains(self, u):
        a = self._box()
        if a is None:
            return np.sum(u * u, axis=1) < self.domain.radius**2
        return np.all((u > 0) & (u < a), axis=1)

    def distance_to_complement(self, u):
        a = self._box()
        if a is None:
            return np.clip(self.domain.radius - np.sqrt(np.sum(u * u, axis=1)), 0.0, None)
        return np.clip(np.minimum(u, a - u).min(axis=1), 0.0, None)

    def distance_to_boundary(self, u):
        a = self._box()
        if a is None:
            return np.abs(self.domain.radius - np.sqrt(np.sum(u * u, axis=1)))
        inside = np.minimum(u, a - u).min(axis=1)
        out = np.maximum(np.maximum(-u, u - a), 0.0)
        return np.where(inside > 0, inside, np.sqrt(np.sum(out * out, axis=1)))

    def grad_distance(self, u):
        a = self._box()
        if a is None:
            r = np.sqrt(np.sum(u * u, axis=1))
            safe = np.where(r > 0, r, 1.0)
            grad = np.where((r < self.domain.radius)[:, None], -u / safe[:, None], 0.0)
            return grad, (r > 1e-12) & (np.abs(r - self.domain.radius) > 1e-12)
        flat = np.stack([u, a - u], axis=2).reshape(len(u), 2 * a.size)
        order = np.sort(flat, axis=1)
        tie = (order[:, 1] - order[:, 0]) <= 1e-12 * (1.0 + a.max())
        k = np.argmin(flat, axis=1)
        grad = np.zeros_like(u)
        grad[np.arange(len(u)), k // 2] = np.where(k % 2 == 0, 1.0, -1.0)
        inside = np.all((u > 0) & (u < a), axis=1)
        grad[~inside] = 0.0
        strictly_out = np.any((u < -1e-12) | (u > a + 1e-12), axis=1)
        return grad, inside & ~tie | strictly_out


@contextlib.contextmanager
def _axis_code(domain, l0):
    """A ScaleFunction on `domain` whose queries, and the localization
    module's row sums and norms, are the axis=1 code."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization, "row_sum", _axis_sum)
        mp.setattr(localization, "row_norm", _axis_norm)
        yield ScaleFunction(_AxisQueries(domain), l0)


@st.composite
def _column_cases(draw):
    """(domain, batch): a Box with 1-7 sides, a Disk or a Ball, and a batch of
    1, 2, 17 or 1,000 rows, each drawn from one of the kinds of points of
    _domain_batches: anywhere in and around the domain, on a face (the
    sphere for a disk or ball), on a box's ridge where d faces tie, at a
    box corner, or with some coordinates +0.0 or -0.0."""
    kind = draw(st.sampled_from(["box", "disk", "ball"]))
    if kind == "box":
        domain = Box(tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=7))))
        lo, hi = np.zeros(domain.dim), np.asarray(domain.sides)
    else:
        domain = (Disk if kind == "disk" else Ball)(draw(st.floats(0.1, 2.0)))
        lo, hi = np.full(domain.dim, -domain.radius), np.full(domain.dim, domain.radius)
    d, n = domain.dim, draw(st.sampled_from([1, 2, 17, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = hi - lo
    free = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, (n, d))
    corner = np.where(rng.random((n, d)) < 0.5, lo, hi)
    if kind == "box":
        face = np.where(np.arange(d) == rng.integers(0, d, (n, 1)), corner, free)
    else:
        face = free * (domain.radius / np.linalg.norm(free, axis=1))[:, None]
    ridge = lo + rng.random((n, 1)) * span.min() / 2.0  # equidistant from d faces
    zeros = free * rng.choice([-0.0, 0.0, 1.0], (n, d))
    kinds = np.stack([free, face, ridge, corner, zeros])
    return domain, kinds[rng.integers(0, len(kinds), n), np.arange(n)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_column_cases(), l0=st.floats(0.02, 1.0), at=st.integers(0, 999))
def test_column_reductions_match_axis_code(case, l0, at):
    """Every rewritten domain query, ScaleFunction.scale_and_grad, the
    localization frame and the normalization integrand give the bytes of
    the axis=1 code on the same batch."""
    domain, batch = case
    x = batch[at % len(batch)]
    sf = ScaleFunction(domain, l0)
    got = [domain.contains(batch), domain.distance_to_complement(batch),
           domain.distance_to_boundary(batch), *domain.grad_distance(batch),
           *sf.scale_and_grad(batch), *localization._frame(sf, batch, x[None, :]),
           localization._normalization_integrand(sf, x)(batch)]
    with _axis_code(domain, l0) as old:
        axis = old.domain
        want = [axis.contains(batch), axis.distance_to_complement(batch),
                axis.distance_to_boundary(batch), *axis.grad_distance(batch),
                *old.scale_and_grad(batch), *localization._frame(old, batch, x[None, :]),
                localization._normalization_integrand(old, x)(batch)]
    for i, (g, w) in enumerate(zip(got, want, strict=True)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), i


def _outcome(sf, x, tol):
    """The bits of normalization_check's value, or the type and message of its error."""
    try:
        return normalization_check(sf, x, tol).hex()
    except WeylkitError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("domain, lo, hi, examples", [
    pytest.param(Disk(1.0), -1.2, 1.2, 100, id="disk"),
    pytest.param(square(1.0), -0.2, 1.2, 100, id="square"),
    pytest.param(Box((1.0, 0.8, 1.2)), -0.2, 1.3, 3, id="box-3d"),
    pytest.param(Ball(1.0), -1.2, 1.2, 3, id="ball"),
])
def test_normalization_matches_axis_code(domain, lo, hi, examples):
    # a 3-D case costs about 100 2-D ones
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(l0=st.floats(0.02, 1.0),
           x=st.lists(st.floats(lo, hi), min_size=domain.dim, max_size=domain.dim),
           tol=st.sampled_from([1e-2, 1e-3, 1e-4]))
    def check(l0, x, tol):
        x = np.array(x)
        got = _outcome(ScaleFunction(domain, l0), x, tol)
        with _axis_code(domain, l0) as old:
            assert got == _outcome(old, x, tol)

    check()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_chart_queries_match_axis_code(dim):
    """The chart norms and sums of the boundary straightening, column by
    column, give the bytes of the axis=1 code."""
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-0.1, 0.1, (1000, dim)) * np.where(rng.random((1000, dim)) < 0.2, -0.0, 1.0)

    def run():
        ch = localization.holder_chart(0.7, 0.5, 0.2, dim)
        return [localization.straighten(ch, pts), ch.grad_f(pts[:, 1:]),
                localization.bump_weight(0.2)(pts[:, 1:]),
                np.array([localization.surface_defect(ch, localization.bump_weight(0.2))])]

    got = run()
    with _axis_code(Disk(1.0), 0.1):
        want = run()
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()
