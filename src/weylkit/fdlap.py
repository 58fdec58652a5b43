"""Finite-difference Dirichlet spectra on 2-D polygons.

5-point Laplacian on the lattice step*Z^2, keeping only nodes strictly
inside the polygon (nodes on the boundary are Dirichlet-eliminated).
Eigenvalue counting below a threshold uses the inertia of A - sigma*I
(Sylvester's law) from a sparse symmetric LDL^T factorization, certified by
its growth || |L||U| ||_inf / ||A - sigma*I||_inf and redone at a doubling
upward nudge of sigma when it breaks down. Eigenvalue extraction slices the
interval with those counts and solves each slice by shift-invert Lanczos, or
densely on small grids where Lanczos misses copies of a multiple eigenvalue.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh, splu

from .domains import Polygon
from .errors import ConfigError, NumericsError, ResourceError
from .spectra import Spectrum

log = logging.getLogger(__name__)

PIVOT_TOL = 1e-12  # factorization breakdown when |pivot| < PIVOT_TOL * ||A||
SHIFT_STEP = 1e-10  # first threshold perturbation, as a multiple of ||A||
MAX_NUDGES = 16  # the last nudge is 2**15 * SHIFT_STEP = 3.3e-6 * ||A||
MAX_GROWTH = 1e8  # breakdown when || |L||U| ||_inf > MAX_GROWTH * ||A - shift*I||_inf
MAX_SLICE = 64  # eigenvalues per spectrum slice
DEFAULT_EIG_BUDGET = 20000
_DENSE_CUTOVER = 220  # below this dimension just use a dense solver
_DENSE_FALLBACK_MAX = 2000  # largest dimension a Lanczos slice may redo densely
# irrational-ish split ratio keeps slice boundaries off the exact
# arithmetic coincidences common in structured grid spectra
_SPLIT_RATIO = 0.5000018437180104


@dataclass(frozen=True)
class GridOperator:
    """Sparse 5-point operator for a polygon at a fixed grid step."""

    polygon: Polygon
    step: float
    nodes: np.ndarray  # (n, 2) lattice indices, lexicographic in (y, x)
    matrix: sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm_estimate(self) -> float:
        return 8.0 / self.step**2  # Gershgorin bound for the 5-point stencil


def assemble(polygon: Polygon, step: float) -> GridOperator:
    """Build the operator; deterministic node order, Dirichlet truncation."""
    if step <= 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    v = polygon.vertices
    i_lo = int(math.floor(v[:, 0].min() / step)) - 1
    i_hi = int(math.ceil(v[:, 0].max() / step)) + 1
    j_lo = int(math.floor(v[:, 1].min() / step)) - 1
    j_hi = int(math.ceil(v[:, 1].max() / step)) + 1
    ii, jj = np.meshgrid(
        np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1), indexing="ij"
    )
    lattice = np.stack([ii.ravel(), jj.ravel()], axis=1)
    pts = lattice * step
    inside = polygon.contains(pts, strict=True)
    nodes = lattice[inside]
    if len(nodes) == 0:
        raise ConfigError(f"step {step} leaves no interior nodes in the polygon")
    order = np.lexsort((nodes[:, 0], nodes[:, 1]))  # by y, then x
    nodes = nodes[order]
    # row-major keys over the lattice box are sorted in the node order; the
    # box rim lies outside the polygon, so key +- 1 never wraps to a new row
    nx = i_hi - i_lo + 1
    keys = (nodes[:, 1] - j_lo) * nx + (nodes[:, 0] - i_lo)
    n = len(nodes)
    inv = 1.0 / step**2
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    for offset in (1, -1, nx, -nx):
        pos = np.minimum(np.searchsorted(keys, keys + offset), n - 1)
        hit = keys[pos] == keys + offset
        rows.append(np.flatnonzero(hit))
        cols.append(pos[hit])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.full(len(rows), -inv)
    vals[:n] = 4.0 * inv
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return GridOperator(polygon=polygon, step=float(step), nodes=nodes, matrix=mat)


def _sparse_inertia(matrix: sparse.csr_matrix, shift: float, norm: float) -> int:
    """Negative-pivot count of a sparse LDL^T factorization of A - shift*I.

    SuperLU with a symmetric ordering and diagonal pivots gives P(A - shift*I)P^T
    = L U with U = D L^T. Without pivoting for size, a shift near an eigenvalue of
    a leading block can give the wrong inertia, so a tiny or off-diagonal pivot or
    a large growth raises NumericsError and the caller retries with a new shift.
    """
    shifted = (matrix - shift * sparse.identity(matrix.shape[0], format="csr")).tocsc()
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # exactly singular
        raise NumericsError(f"factorization failed at shift {shift!r}: {exc}") from exc
    pivots = lu.U.diagonal()
    ones = np.ones(len(pivots))
    growth = (abs(lu.L) @ (abs(lu.U) @ ones)).max() / (abs(shifted) @ ones).max()
    smallest = np.abs(pivots).min()
    if smallest < PIVOT_TOL * norm or growth > MAX_GROWTH or np.any(lu.perm_r != lu.perm_c):
        raise NumericsError(
            f"unstable LDL^T at shift {shift!r}: pivot {smallest!r}, growth {growth:.3g}")
    return int(np.count_nonzero(pivots < 0))


def count_below(op: GridOperator, threshold: float) -> int:
    """Matrix eigenvalues strictly below `threshold` via inertia.

    If the factorization breaks down (threshold essentially equal to an
    eigenvalue) the threshold is nudged by 2**attempt * SHIFT_STEP * ||A||
    (the growth check rejects every shift within a fixed tiny distance of
    an eigenvalue) and the shift used is reported through the module logger.
    """
    norm = op.norm_estimate
    shift = float(threshold)
    for attempt in range(MAX_NUDGES):
        try:
            return _sparse_inertia(op.matrix, shift, norm)
        except NumericsError:
            shift = threshold + 2**attempt * SHIFT_STEP * norm
            log.warning(
                "factorization breakdown at threshold %r; retrying with shift %r",
                threshold,
                shift,
            )
    raise NumericsError(
        f"factorization kept breaking down near threshold {threshold}"
    )


def eigenvalues_below(
    op: GridOperator, threshold: float, *, budget: int = DEFAULT_EIG_BUDGET
) -> np.ndarray:
    """All matrix eigenvalues below `threshold`, sorted, ~1e-10 relative.

    Spectrum slicing: bisection with inertia counts until every slice
    holds at most MAX_SLICE eigenvalues, then shift-invert Lanczos at the
    slice center with a spanning completeness certificate per slice; a slice
    short of its inertia count is redone densely on grids of dimension up
    to _DENSE_FALLBACK_MAX. The total is checked against count_below.
    """
    n_total = count_below(op, threshold)
    if n_total > budget:
        raise ResourceError(
            f"{n_total} eigenvalues below {threshold}, over the budget {budget}"
        )
    if n_total == 0:
        return np.empty(0)
    n = op.dim
    if n <= _DENSE_CUTOVER:
        ev = np.linalg.eigvalsh(op.matrix.toarray())
        return ev[ev < threshold]

    out = []
    dense = None
    stack = [(0.0, float(threshold), 0, n_total)]
    while stack:
        lo, hi, c_lo, c_hi = stack.pop()
        k = c_hi - c_lo
        if k == 0:
            continue
        if k > MAX_SLICE:
            mid = lo + _SPLIT_RATIO * (hi - lo)
            c_mid = count_below(op, mid)
            stack.append((lo, mid, c_lo, c_mid))
            stack.append((mid, hi, c_mid, c_hi))
            continue
        found = _solve_slice(op, lo, hi, k)
        if len(found) < k:  # Lanczos missed copies of a multiple eigenvalue, e.g. 4/step^2
            if n > _DENSE_FALLBACK_MAX:
                raise NumericsError(f"slice [{lo}, {hi}) found {len(found)} of {k} eigenvalues")
            dense = np.linalg.eigvalsh(op.matrix.toarray()) if dense is None else dense
            found = dense[(dense >= lo) & (dense < hi)]
        out.append(found)
    ev = np.sort(np.concatenate(out)) if out else np.empty(0)
    if len(ev) != n_total:
        raise NumericsError(
            f"slice extraction found {len(ev)} eigenvalues, inertia says {n_total}"
        )
    return ev


def _solve_slice(op: GridOperator, lo: float, hi: float, k: int) -> np.ndarray:
    """Eigenvalues in [lo, hi) by shift-invert Lanczos at the slice center.

    Completeness certificate: shift-invert returns the eigenvalues closest
    to the center, so once the returned set reaches beyond both slice ends
    every eigenvalue inside the slice is present. The vector count grows
    until that happens (the totals are still checked against the inertia
    count by the caller).
    """
    center = 0.5 * (lo + hi)
    ask = min(k + 8, op.dim - 2)
    # fixed start vector keeps reruns byte-identical (ARPACK default is random)
    v0 = np.random.default_rng(1234).standard_normal(op.dim)
    for _attempt in range(8):
        ev = eigsh(
            op.matrix,
            k=ask,
            sigma=center,
            which="LM",
            return_eigenvectors=False,
            tol=0,
            v0=v0,
        )
        spans_low = lo <= 0.0 or ev.min() < lo
        spans_high = ev.max() > hi
        if (spans_low and spans_high) or ask >= op.dim - 2:
            return np.sort(ev[(ev >= lo) & (ev < hi)])
        ask = min(ask + max(8, ask // 2), op.dim - 2)
    raise NumericsError(f"could not certify completeness of slice [{lo}, {hi})")


def fd_spectrum(
    op: GridOperator, threshold: float, *, budget: int = DEFAULT_EIG_BUDGET
) -> Spectrum:
    """Spectrum object with finite-difference provenance."""
    ev = eigenvalues_below(op, threshold, budget=budget)
    return Spectrum(ev, float(threshold), f"finite-difference({op.step!r})")
