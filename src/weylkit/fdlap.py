"""Finite-difference Dirichlet spectra on 2-D polygons.

5-point Laplacian on the lattice step*Z^2, keeping only nodes strictly
inside the polygon (nodes on the boundary are Dirichlet-eliminated).
Eigenvalue counting below a threshold uses the inertia of A - sigma*I
(Sylvester's law) from a sparse symmetric LDL^T factorization, certified by
its growth || |L||U| ||_inf / ||A - sigma*I||_inf, or else a NumericsError.
Eigenvalue extraction slices the interval with those counts and solves each
slice by shift-invert Lanczos (the slice from 0 at shift 0, on the LDL^T of
A itself), or densely on small grids where Lanczos misses copies of a
multiple eigenvalue.

scipy.sparse is imported inside the functions that use it, so that importing
the package (and every command but `fd`) does not pay for it. `eigsh` is a
module-level function that imports ARPACK at its first call, and
`_solve_slice` calls it through the module global: callers that replace
`fdlap.eigsh` by name (a span tracer, a test forcing a non-convergence) then
still see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .domains import Polygon, lattice
from .errors import ConfigError, NumericsError, ResourceError
from .spectra import Spectrum

if TYPE_CHECKING:
    from scipy import sparse
    from scipy.sparse.linalg import SuperLU

PIVOT_TOL = 1e-12  # factorization breakdown when |pivot| < PIVOT_TOL * ||A||
MAX_GROWTH = 1e8  # breakdown when || |L||U| ||_inf > MAX_GROWTH * ||A - shift*I||_inf
MAX_SLICE = 64  # eigenvalues per spectrum slice
DEFAULT_EIG_BUDGET = 20000  # max eigenvalues per extraction; read at call time
LATTICE_BUDGET = 2**20  # points in assemble's lattice box; its peak is about 0.3 GB there
# implicit restarts per eigsh call: 10x the 20 that the unit L-shape at step
# 1/64 below 16400.384 needs (tests, demos and benchmark jobs need at most 11);
# a slice that has not converged by then is refused in seconds, not minutes
ARPACK_MAXITER = 200
_DENSE_CUTOVER = 220  # below this dimension just use a dense solver
_DENSE_FALLBACK_MAX = 2000  # largest dimension a Lanczos slice may redo densely
# irrational-ish split ratio keeps slice boundaries off the exact
# arithmetic coincidences common in structured grid spectra
_SPLIT_RATIO = 0.5000018437180104


@dataclass(frozen=True)
class GridOperator:
    """Sparse 5-point operator for a polygon at a fixed grid step."""

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
    from scipy import sparse

    if not 0 < step < math.inf:
        raise ConfigError(f"grid step must be positive and finite, got {step}")
    v = polygon.vertices
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        lo = np.floor(v.min(axis=0) / step) - 1  # lattice box corners, in floats
        hi = np.ceil(v.max(axis=0) / step) + 1
        size = np.prod(hi - lo + 1)
    if not size <= LATTICE_BUDGET:
        raise ResourceError(
            f"step {step!r} makes a lattice box of {size:.3g} points, over the budget "
            f"{LATTICE_BUDGET}")
    (i_lo, j_lo), (i_hi, j_hi) = lo.astype(int), hi.astype(int)
    box = lattice([np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1)])
    nodes = box[polygon.contains(box * step)]
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
    return GridOperator(step=float(step), nodes=nodes, matrix=mat)


def _sparse_inertia(
    matrix: sparse.csr_matrix, shift: float, norm: float
) -> tuple[int, SuperLU]:
    """Negative-pivot count and SuperLU object of a sparse LDL^T of A - shift*I.

    SuperLU with a symmetric ordering and diagonal pivots gives P(A - shift*I)P^T
    = L U with U = D L^T. Without pivoting for size, a shift near an eigenvalue of
    a leading block can give the wrong inertia, so a tiny or off-diagonal pivot or
    a large growth raises NumericsError.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

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
    return int(np.count_nonzero(pivots < 0)), lu


def count_below(op: GridOperator, threshold: float) -> int:
    """Matrix eigenvalues strictly below `threshold`: one inertia count, whose
    breakdown at or within roundoff of an eigenvalue is a NumericsError."""
    return _sparse_inertia(op.matrix, float(threshold), op.norm_estimate)[0]


def eigenvalues_below(op: GridOperator, threshold: float) -> np.ndarray:
    """All matrix eigenvalues below `threshold`, sorted.

    Spectrum slicing: bisection with inertia counts until every slice
    holds at most MAX_SLICE eigenvalues, then shift-invert Lanczos per slice
    (see _solve_slice) with a spanning completeness certificate; a slice
    short of its inertia count is redone densely on grids of dimension up
    to _DENSE_FALLBACK_MAX; grids up to _DENSE_CUTOVER take one dense solve
    instead. Either total is checked against count_below at `threshold`. A
    breakdown of that count is a ConfigError: the threshold is at or within
    roundoff of an eigenvalue. One at a split point is a NumericsError.

    Accuracy, measured against the closed-form spectrum of off-lattice
    rectangles at steps 1/64 (thresholds 200-1500) and 1/32 (3000-3900):
    within 6e-15 relative. Grids of dimension up to _DENSE_CUTOVER, and
    slices redone densely, carry eigvalsh's error instead, which is
    absolute: a small multiple of 1e-16 ||A||.
    """
    try:
        n_total = count_below(op, threshold)
    except NumericsError as exc:
        raise ConfigError(
            f"threshold {threshold} is at or within roundoff of an eigenvalue of the grid "
            "operator; choose another") from exc
    if n_total > DEFAULT_EIG_BUDGET:
        raise ResourceError(
            f"{n_total} eigenvalues below {threshold}, over the budget {DEFAULT_EIG_BUDGET}"
        )
    n = op.dim
    out, dense, stack = [], None, [(0.0, float(threshold), 0, n_total)]
    if n <= _DENSE_CUTOVER:  # one dense solve, checked below as the slices are
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        out, stack = [dense[dense < threshold]], []
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
        found = _solve_slice(op, lo, hi, k, top=c_hi == n)
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


def eigsh(*args, **kwargs):
    """scipy.sparse.linalg.eigsh, imported at the first call."""
    from scipy.sparse.linalg import eigsh as arpack_eigsh

    return arpack_eigsh(*args, **kwargs)


def _solve_slice(op: GridOperator, lo: float, hi: float, k: int, top: bool) -> np.ndarray:
    """Eigenvalues in [lo, hi) by shift-invert Lanczos.

    A slice from 0 shifts at 0 and inverts one LDL^T of A itself, whose zero
    negative pivots certify that A is positive definite; the inertia count
    puts the (k+1)-th eigenvalue at or above `hi`, so it asks for k + 1
    vectors. Shifting at 0 keeps the lowest eigenvalues accurate relative to
    their size. Any other slice shifts at its center, where A - sigma*I is
    indefinite, and leaves the factorization to eigsh's pivoted LU.

    Completeness certificate: shift-invert returns the eigenvalues closest
    to the shift, so once the returned set reaches beyond both slice ends
    every eigenvalue inside the slice is present; the `top` slice holds the
    highest eigenvalue, so none lies beyond its upper end. The vector count
    grows until that happens (the totals are still checked against the inertia
    count by the caller).
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

    if lo <= 0.0:
        negative, lu = _sparse_inertia(op.matrix, 0.0, op.norm_estimate)
        if negative:
            raise NumericsError(f"operator has {negative} negative pivots at shift 0")
        sigma, ask = 0.0, k + 1
        opinv = LinearOperator(op.matrix.shape, matvec=lu.solve, dtype=float)
    else:
        sigma, ask, opinv = 0.5 * (lo + hi), k + 8, None
    ask = min(ask, op.dim - 2)
    # fixed start vector keeps reruns byte-identical (ARPACK default is random)
    v0 = np.random.default_rng(1234).standard_normal(op.dim)
    for _attempt in range(8):
        try:
            ev = eigsh(op.matrix, k=ask, sigma=sigma, which="LM", return_eigenvectors=False,
                       tol=0, v0=v0, OPinv=opinv, maxiter=ARPACK_MAXITER)
        except ArpackNoConvergence:
            raise NumericsError(
                f"ARPACK did not converge on slice [{lo}, {hi}) with k={k}") from None
        spans_low = lo <= 0.0 or ev.min() < lo
        spans_high = top or ev.max() > hi
        if (spans_low and spans_high) or ask >= op.dim - 2:
            return np.sort(ev[(ev >= lo) & (ev < hi)])
        ask = min(ask + max(8, ask // 2), op.dim - 2)
    raise NumericsError(f"could not certify completeness of slice [{lo}, {hi})")


def fd_spectrum(op: GridOperator, threshold: float) -> Spectrum:
    """Spectrum object with finite-difference provenance."""
    ev = eigenvalues_below(op, threshold)
    return Spectrum(ev, float(threshold), f"finite-difference({op.step!r})")
