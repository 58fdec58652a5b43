import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

import weylkit.cli
import weylkit.fdlap
from weylkit.cli import main
from weylkit.domains import Polygon, lshape_polygon
from weylkit.errors import ConfigError, NumericsError, ResourceError
from weylkit.fdlap import (
    _DENSE_CUTOVER,
    _DENSE_FALLBACK_MAX,
    assemble,
    count_below,
    eigenvalues_below,
    fd_spectrum,
)

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def square_fd_eigenvalues(n_per_axis, step):
    """Closed-form 5-point eigenvalues on the unit square grid."""
    k = np.arange(1, n_per_axis + 1)
    one_d = (2.0 - 2.0 * np.cos(k * math.pi * step)) / step**2
    return np.sort((one_d[:, None] + one_d[None, :]).ravel())


def test_assemble_unit_square_quarter_step():
    op = assemble(UNIT_SQUARE, 0.25)
    assert op.dim == 9
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert np.allclose(dense, square_fd_eigenvalues(3, 0.25), rtol=1e-12)
    assert dense[0] == pytest.approx(32.0 * (2.0 - 2.0 * math.cos(math.pi / 4)), rel=1e-12)


def test_matrix_structure():
    op = assemble(UNIT_SQUARE, 0.25)
    a = op.matrix.toarray()
    assert np.allclose(a, a.T)
    assert np.allclose(np.diag(a), 4.0 * 16.0)
    # corner node of the 3x3 interior grid loses two neighbors
    assert a[0].sum() == pytest.approx(16.0 * (4.0 - 2.0))


def test_smallest_eigenvalue_richardson_to_continuum():
    vals = {}
    for step in (1 / 32, 1 / 64, 1 / 128):
        op = assemble(UNIT_SQUARE, step)
        vals[step] = eigsh(op.matrix, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0]
    extrap = (4.0 * vals[1 / 128] - vals[1 / 64]) / 3.0
    assert extrap == pytest.approx(2.0 * math.pi**2, rel=1e-5)


def test_degenerate_inputs():
    with pytest.raises(ConfigError):
        Polygon([(0, 0), (1, 0), (2, 0), (3, 0)])
    with pytest.raises(ConfigError):
        assemble(UNIT_SQUARE, -0.1)
    tiny = Polygon([(0, 0), (1e-4, 0), (1e-4, 1e-4), (0, 1e-4)])
    with pytest.raises(ConfigError):
        assemble(tiny, 0.25)  # no interior lattice nodes


def test_count_trivia():
    op = assemble(UNIT_SQUARE, 1 / 16)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert count_below(op, 0.5 * dense[0]) == 0
    assert count_below(op, dense[-1] * 1.01) == op.dim


@pytest.mark.parametrize("poly,step", [(UNIT_SQUARE, 1 / 32), (lshape_polygon(1.0), 1 / 32)])
def test_inertia_matches_dense(poly, step):
    op = assemble(poly, step)
    assert op.dim <= 2000
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    rng = np.random.default_rng(5)
    for thr in rng.uniform(dense[0] * 0.5, dense[-1] * 1.05, 20):
        assert count_below(op, float(thr)) == int((dense < thr).sum())


def _random_lshape(rng):
    a, c = rng.uniform(0.9, 1.3, 2)
    p, q = rng.uniform(0.3, 0.7) * a, rng.uniform(0.3, 0.7) * c
    return Polygon([(0, 0), (a, 0), (a, q), (p, q), (p, c), (0, c)])


@pytest.mark.parametrize("seed", range(12))
def test_sparse_inertia_on_random_lshapes(seed):
    rng = np.random.default_rng(seed)
    step = (1 / 24, 1 / 32)[seed % 2]
    op = assemble(_random_lshape(rng), step)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    for thr in rng.uniform(dense[0] * 0.5, dense[-1] * 1.05, 10):
        assert count_below(op, float(thr)) == int((dense < thr).sum())
    # 4/step^2 is a highly degenerate eigenvalue; a count this close to it
    # either breaks down or lands within its copies, never counting anything
    # else. Without the growth certificate, such thresholds get wrong counts.
    middle = 4.0 / step**2
    below, above = (dense < middle * (1 - 1e-6)).sum(), (dense < middle * (1 + 1e-6)).sum()
    for rel in (0.0, 1e-12, -1e-12, 1e-11, -1e-11, 1e-10, -1e-10, 1e-9, -1e-9):
        try:
            n = count_below(op, middle * (1 + rel))
        except NumericsError:
            continue
        assert below <= n <= above


def test_count_monotone_in_threshold():
    op = assemble(lshape_polygon(1.0), 1 / 24)
    thresholds = np.linspace(10.0, 4000.0, 25)
    counts = [count_below(op, float(t)) for t in thresholds]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("vertices, step, threshold, dim", [
    pytest.param([[0, 0], [1, 0], [1, 1], [0, 1]], "0.25", "64", 9, id="square-dense"),
    pytest.param([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]], "0.03125", "4096",
                 705, id="lshape-sliced"),
])
def test_threshold_at_an_eigenvalue_is_refused(tmp_path, capsys, vertices, step, threshold, dim):
    """64 is a triple eigenvalue of the unit square at step 1/4 (the dense
    route) and 4096 = 4/step^2 a multiple one of the unit L-shape at step
    1/32 (the sliced route). Both exit 2 with one JSON ConfigError, no CSV
    and nothing on stderr."""
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": vertices}))
    assert assemble(Polygon(vertices), float(step)).dim == dim  # 9 <= _DENSE_CUTOVER < 705
    out = tmp_path / "o.csv"
    assert main(["fd", "--polygon", str(poly), "--step", step, "--threshold", threshold,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == json.dumps({"error": {
        "type": "ConfigError",
        "message": f"threshold {float(threshold)} is at or within roundoff of an eigenvalue "
                   "of the grid operator; choose another",
        "exit_code": 2}}) + "\n"
    assert not out.exists()


def test_degenerate_middle_eigenvalue_falls_back_to_dense():
    # single-vector Lanczos misses copies of the 15-fold eigenvalue 4096
    poly = Polygon(
        [(0, 0), (1.0173, 0), (1.0173, 0.5158), (0.4884, 0.5158), (0.4884, 0.9791), (0, 0.9791)]
    )
    op = assemble(poly, 1 / 32)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    ev = eigenvalues_below(op, 4791.445)
    ref = dense[dense < 4791.445]
    assert len(ev) == len(ref) == 473
    assert np.max(np.abs(ev - ref) / ref) < 1e-8


def test_eigenvalues_below_matches_dense():
    op = assemble(UNIT_SQUARE, 1 / 32)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    ev = eigenvalues_below(op, 100.0)
    ref = dense[dense < 100.0]
    assert len(ev) == len(ref)
    assert np.max(np.abs(ev - ref) / ref) < 1e-8
    assert eigenvalues_below(op, 0.5 * dense[0]).size == 0


def test_eigenvalues_below_slicing_path():
    # force the sparse slicing branch with a grid above the dense cutover
    op = assemble(UNIT_SQUARE, 1 / 24)
    assert op.dim > 220
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    # threshold in a genuinely open spectral gap, per the precondition
    idx = 140 + int(np.argmax(np.diff(dense[140:180])))
    thr = 0.5 * (dense[idx] + dense[idx + 1])
    ev = eigenvalues_below(op, thr)
    ref = dense[dense < thr]
    assert len(ev) == len(ref) == idx + 1
    assert np.max(np.abs(ev - ref) / ref) < 1e-8


def test_budget(monkeypatch):
    monkeypatch.setattr(weylkit.fdlap, "DEFAULT_EIG_BUDGET", 10)
    op = assemble(UNIT_SQUARE, 1 / 16)
    with pytest.raises(ResourceError):
        eigenvalues_below(op, 1e5)


def test_arpack_no_convergence_exits_4(tmp_path, monkeypatch, capsys):
    """ARPACK giving up is a NumericsError naming the slice, not a traceback."""
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    assert assemble(UNIT_SQUARE, 1 / 24).dim > _DENSE_CUTOVER

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty(0))

    monkeypatch.setattr(weylkit.fdlap, "eigsh", no_convergence)
    out = tmp_path / "o.csv"
    argv = ["fd", "--polygon", str(poly), "--step", str(1 / 24), "--threshold", "100",
            "--out", str(out)]
    assert main(argv) == 4
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "NumericsError"
    assert err["message"] == "ARPACK did not converge on slice [0.0, 100.0) with k=6"
    assert not out.exists()


def test_arpack_iteration_bound_exits_4_fast(tmp_path, capsys):
    """The unit square at step 1/64 below 16400.384: one slice's vectors reach
    into the 63-fold eigenvalue 4/step^2 = 16384, and ARPACK does not converge
    there. Without a bound it gave up after 39,691 restarts and about 3 minutes."""
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    out = tmp_path / "o.csv"
    argv = ["fd", "--polygon", str(poly), "--step", "0.015625", "--threshold", "16400.384",
            "--out", str(out)]
    start = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - start < 60.0
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "NumericsError"
    assert err["message"] == ("ARPACK did not converge on slice "
                              "[16336.321889830817, 16368.353063027875) with k=2")
    assert not out.exists()


def test_lshape_count_and_provenance():
    op = assemble(lshape_polygon(1.0), 1 / 64)
    assert count_below(op, 200.0) == 9  # converged continuum count is 9
    spec = fd_spectrum(op, 200.0)
    assert len(spec) == 9
    assert spec.provenance == f"finite-difference({(1 / 64)!r})"
    assert spec.eigenvalues[0] == pytest.approx(38.625, abs=2e-3)


def test_discrete_berezin_on_fine_lshape():
    # with the continuum constants, the discrete Riesz mean stays under the
    # phase-space bound once the grid is fine enough (step 1/128)
    op = assemble(lshape_polygon(1.0), 1 / 128)
    thr = 200.0
    ev = eigenvalues_below(op, thr)
    h = 1.0 / math.sqrt(thr)
    riesz = math.fsum(1.0 - h * h * ev)
    bound = (1.0 / (8.0 * math.pi)) * 0.75 / h**2  # L_2 |Omega| h^-2
    assert riesz < bound
    assert bound - riesz > 1.0  # comfortably clear of discretization bias


def test_lexicographic_node_order():
    op = assemble(UNIT_SQUARE, 0.25)
    nodes = op.nodes
    keys = [(j, i) for i, j in nodes]
    assert keys == sorted(keys)


def _dict_assemble(polygon, step):
    """Reference stencil builder: a node index dict and a loop over nodes."""
    v = polygon.vertices
    i_lo = int(math.floor(v[:, 0].min() / step)) - 1
    i_hi = int(math.ceil(v[:, 0].max() / step)) + 1
    j_lo = int(math.floor(v[:, 1].min() / step)) - 1
    j_hi = int(math.ceil(v[:, 1].max() / step)) + 1
    ii, jj = np.meshgrid(np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1), indexing="ij")
    lattice = np.stack([ii.ravel(), jj.ravel()], axis=1)
    nodes = lattice[polygon.contains(lattice * step)]
    nodes = nodes[np.lexsort((nodes[:, 0], nodes[:, 1]))]
    index = {(int(i), int(j)): k for k, (i, j) in enumerate(nodes)}
    inv = 1.0 / step**2
    rows, cols, vals = [], [], []
    for k, (i, j) in enumerate(nodes):
        rows.append(k)
        cols.append(k)
        vals.append(4.0 * inv)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            q = index.get((int(i) + di, int(j) + dj))
            if q is not None:
                rows.append(k)
                cols.append(q)
                vals.append(-inv)
    n = len(nodes)
    return nodes, sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("step", [1 / 4, 1 / 8, 1 / 16, 1 / 24, 1 / 32, 1 / 64])
@pytest.mark.parametrize("poly", [UNIT_SQUARE, lshape_polygon(1.0), _random_lshape(np.random.default_rng(7))])
def test_assemble_matches_dict_builder(poly, step):
    op = assemble(poly, step)
    nodes, ref = _dict_assemble(poly, step)
    for got, want in (
        (op.nodes, nodes),
        (op.matrix.indptr, ref.indptr),
        (op.matrix.indices, ref.indices),
        (op.matrix.data, ref.data),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_fd_command_checks_out_before_assembly(tmp_path, monkeypatch, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))

    def fail(*args, **kwargs):
        raise AssertionError("assemble ran before --out was checked")

    monkeypatch.setattr(weylkit.cli, "assemble", fail)
    assert main(["fd", "--polygon", str(poly), "--step", "0.0625", "--threshold", "120"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == "fd needs --out for the spectrum CSV"


def _sine_spectrum(m: int, n: int, step: float, threshold: float) -> np.ndarray:
    """Closed-form eigenvalues of the 5-point Laplacian on an m x n node
    grid with Dirichlet rims, (4/step^2)(sin^2(pi j/2(m+1)) + sin^2(pi k/2(n+1))),
    in float64: a few ulps off the exact values, far below the bound."""
    one_d = [4.0 * np.sin(np.pi * np.arange(1, size + 1) / (2 * (size + 1))) ** 2 / step**2
             for size in (m, n)]
    vals = np.sort(np.add.outer(*one_d).ravel())
    return vals[vals < threshold]


@pytest.mark.parametrize("corner, sides, threshold", [
    ((0.011, 0.007), (0.83, 0.95), 3000.0),
    ((0.02, 0.03), (1.01, 0.66), 3900.0),
    ((-0.004, 0.015), (0.91, 1.04), 3500.0),
])
def test_fd_rectangles_off_lattice_match_sine_spectrum(corner, sides, threshold):
    """The slicing route (inertia counts plus shift-invert Lanczos) stays
    within 1e-14 relative of the exact discrete spectrum at step 1/32, where
    the fd-polygon Lanczos jobs live; it measured 2.7e-15 to 3.8e-15 here.
    Shifting the slice from 0 at its center put the lowest eigenvalue 8e-15
    to 3.6e-14 off, and a dense eigvalsh of the whole matrix measured 6e-14
    to 1.7e-12 off on the same grids, so a replacement of this route has to
    be held to this bound."""
    step = 1.0 / 32.0
    (x0, y0), (a, b) = corner, sides
    poly = Polygon([(x0, y0), (x0 + a, y0), (x0 + a, y0 + b), (x0, y0 + b)])
    op = assemble(poly, step)
    m, n = (len(np.unique(op.nodes[:, axis])) for axis in (0, 1))
    assert m * n == op.dim and 650 <= op.dim <= 990
    got = eigenvalues_below(op, threshold)
    want = _sine_spectrum(m, n, step, threshold)
    assert len(got) == len(want) > 200
    assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("corner, sides, threshold", [
    ((0.002, 0.003), (1.003, 0.845), 244.0),
    ((-0.003, 0.002), (1.005, 0.907), 252.0),
    ((-0.005, 0.006), (1.003, 1.015), 263.0),
    ((0.009, -0.003), (0.919, 0.861), 205.0),
    ((0.001, 0.01), (1.038, 0.987), 299.0),
])
def test_fd_rectangles_fine_step_match_sine_spectrum(corner, sides, threshold):
    """At step 1/64 below threshold 300 every eigenvalue lies in the one
    slice from 0, solved by shift-invert at 0: the worst relative error here
    measured 1.6e-15 to 4.1e-15. Shifting that slice at its center measured
    1.5e-14 to 2.4e-14 on these grids, always on the lowest eigenvalue."""
    step = 1.0 / 64.0
    (x0, y0), (a, b) = corner, sides
    op = assemble(Polygon([(x0, y0), (x0 + a, y0), (x0 + a, y0 + b), (x0, y0 + b)]), step)
    m, n = (len(np.unique(op.nodes[:, axis])) for axis in (0, 1))
    assert m * n == op.dim > _DENSE_FALLBACK_MAX
    got = eigenvalues_below(op, threshold)
    want = _sine_spectrum(m, n, step, threshold)
    assert len(got) == len(want) >= 9
    assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("threshold", [300.0, 1000.0])
def test_unit_square_fine_step_finds_every_double_eigenvalue(threshold):
    """On the lattice-aligned unit square every (j, k) != (k, j) eigenvalue is
    double. The grid is above _DENSE_FALLBACK_MAX, so a slice that missed a
    copy would raise instead of being redone densely."""
    step = 1.0 / 64.0
    op = assemble(UNIT_SQUARE, step)
    assert op.dim == 63 * 63 > _DENSE_FALLBACK_MAX
    got = eigenvalues_below(op, threshold)
    want = _sine_spectrum(63, 63, step, threshold)
    assert len(got) == len(want) == {300.0: 19, 1000.0: 71}[threshold]
    assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("corner, sides", [
    ((0.01, 0.01), (1.15, 1.15)),
    ((0.01, -0.02), (1.15, 0.93)),
    ((0.013, 0.004), (0.97, 1.07)),
    ((0.0, 0.01), (0.9, 0.9)),
])
def test_threshold_above_the_spectrum_returns_all_of_it(corner, sides):
    """The top slice has no eigenvalue beyond its upper end, so spanning its
    lower end certifies it; asking for more vectors until the set reached
    past the threshold could not certify three of these four grids."""
    step = 1.0 / 24.0
    (x0, y0), (a, b) = corner, sides
    op = assemble(Polygon([(x0, y0), (x0 + a, y0), (x0 + a, y0 + b), (x0, y0 + b)]), step)
    m, n = (len(np.unique(op.nodes[:, axis])) for axis in (0, 1))
    want = _sine_spectrum(m, n, step, math.inf)
    got = eigenvalues_below(op, 1.1 * want[-1])
    assert len(got) == op.dim > _DENSE_CUTOVER
    assert np.max(np.abs(got - want) / want) <= 1e-13


@st.composite
def _small_polygons(draw):
    """Off-lattice rectangles and L-shapes on grids of about 20 to 150 nodes
    at step 1/10 (dense route) or about 220 to 440 at step 1/20 (slicing).
    Larger grids would outgrow the oracle: a dense eigvalsh is up to 1e-12
    relative off on the lowest eigenvalue at 600 nodes and step 1/24."""
    sliced = draw(st.booleans())
    step, size = (1 / 20, st.floats(0.85, 1.05)) if sliced else (1 / 10, st.floats(0.55, 1.25))
    x0, y0 = (draw(st.floats(-0.03, 0.03)) for _ in range(2))
    a, c = draw(size), draw(size)
    if draw(st.booleans()):
        p, q = draw(st.floats(0.5, 0.8)) * a, draw(st.floats(0.5, 0.8)) * c
        corners = [(0, 0), (a, 0), (a, q), (p, q), (p, c), (0, c)]
    else:
        corners = [(0, 0), (a, 0), (a, c), (0, c)]
    return Polygon([(x0 + x, y0 + y) for x, y in corners]), step


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_small_polygons(), st.data())
def test_inertia_and_slices_match_dense(grid, data):
    """Thresholds drawn inside a spectral gap (between two eigenvalues at
    least 1e-6 ||A|| apart, or above the top), or at an eigenvalue of dense
    eigvalsh and up to 4 ulps either side of it. Each ends in one of three
    ways: the ConfigError for a threshold at an eigenvalue, the certificate's
    NumericsError, or as many eigenvalues as count_below gives. A threshold at
    least 1e-9 ||A|| from every eigenvalue ends in the third, and then the
    count is the dense count and the eigenvalues match dense eigvalsh within
    1e-12 relative."""
    op = assemble(*grid)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    below = data.draw(st.sampled_from(range(op.dim + 1)), label="below")
    if data.draw(st.booleans(), label="at_eigenvalue"):
        at = dense[min(below, op.dim - 1)]
        threshold = float(at + data.draw(st.integers(-4, 4), label="ulps") * np.spacing(at))
    else:
        lower = dense[below - 1] if below > 0 else 0.0
        upper = dense[below] if below < op.dim else 1.1 * dense[-1]
        assume(upper - lower > 1e-6 * op.norm_estimate)
        threshold = float(lower + data.draw(st.floats(0.25, 0.75), label="inside_gap")
                          * (upper - lower))
    far = np.abs(dense - threshold).min() >= 1e-9 * op.norm_estimate
    try:
        got = eigenvalues_below(op, threshold)
    except (ConfigError, NumericsError):
        assert not far
        return
    assert len(got) == count_below(op, threshold)
    if far:
        ref = dense[dense < threshold]
        assert len(got) == len(ref)
        if len(ref):
            assert np.max(np.abs(got - ref) / ref) <= 1e-12
