import json
import logging
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

import weylkit.fdlap
from weylkit.cli import main
from weylkit.domains import Polygon, lshape_polygon
from weylkit.errors import ConfigError, NumericsError, ResourceError
from weylkit.fdlap import (
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
    # 4/step^2 is a highly degenerate eigenvalue; a nudged count may
    # include its copies but must never count anything else. Without the
    # growth certificate, thresholds this close to it get wrong counts.
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


def test_threshold_at_eigenvalue_retries(caplog):
    op = assemble(UNIT_SQUARE, 0.25)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    with caplog.at_level(logging.WARNING, logger="weylkit.fdlap"):
        count_below(op, float(dense[3]))
    assert any("retrying with shift" in r.message for r in caplog.records)


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


def test_budget():
    op = assemble(UNIT_SQUARE, 1 / 16)
    with pytest.raises(ResourceError):
        eigenvalues_below(op, 1e5, budget=10)


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
    nodes = lattice[polygon.contains(lattice * step, strict=True)]
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

    monkeypatch.setattr(weylkit.fdlap, "assemble", fail)
    assert main(["fd", "--polygon", str(poly), "--step", "0.0625", "--threshold", "120"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == "fd needs --out for the spectrum CSV"
