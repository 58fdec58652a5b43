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
from weylkit.errors import ConfigError
from weylkit.fdlap import assemble
from weylkit.localization import ScaleFunction


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
