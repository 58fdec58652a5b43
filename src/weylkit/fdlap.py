"""Finite-difference Dirichlet spectra on 2-D polygons.

5-point Laplacian on the lattice step*Z^2, keeping only nodes strictly
inside the polygon (nodes on the boundary are Dirichlet-eliminated).

Red-black reduction. With the nodes coloured red (i + j even) and black
(i + j odd), step^2 A = [[4I, -E], [-E^T, 4I]], and the Schur complement
S = 4I - E^T E/4 lives on the black nodes alone. Its entries are exact
multiples of 1/4, and its spectrum lies in (0, 4]. Each eigenvalue s < 4 of
S gives the pair of eigenvalues of step^2 A

    lam' = 4s / (4 + sqrt(16 - 4s))  and  8 - lam',

and the eigenvalue c' = 4 (c = 4/step^2) has multiplicity
n_red - n_black + 2 #{s = 4}. Conversely lam' < T' if and only if
s < s(T') = T'(8 - T')/4, for T' < 4.

Eigenvalue counting below a threshold uses the inertia of S - s(T')I
(Sylvester's law) from a sparse symmetric LDL^T factorization, certified by
its growth || |L||U| ||_inf / ||S - sigma*I||_inf, or else a NumericsError.
Eigenvalue extraction slices the interval with those counts. The slice from
0 is solved by shift-invert Lanczos at shift 0 on the LDL^T of A itself.
Above it, an S of at most _DENSE_SCHUR_MAX rows of which at least a third
is still wanted gives every eigenvalue from one dense eigh, each from its
eigenvector y of S: 4/step^2 -+ ||E y||/step^2 for lam' >= 2, and through
the Rayleigh quotient of y on S, summed from nonnegative terms, below that.
Any other grid solves each slice by shift-invert Lanczos on S, which within
_NEAR_C/step^2 of c takes each eigenvalue as 4/step^2 -+ ||E y||/step^2
rather than from its eigenvalue. The eigenvalues of the matrix within 1.9e-6
relative of c are counted on S, not solved for, and certified as copies of
c by a residual of E (see _top_cluster); the slices of S are solved with
them deflated.

scipy.sparse is imported inside the functions that use it, so that importing
the package (and every command but `fd`) does not pay for it. `eigsh` is a
module-level function that imports ARPACK at its first call, and
`_solve_slice` calls it through the module global: callers that replace
`fdlap.eigsh` by name (a span tracer, a test forcing a non-convergence) then
still see every call. The split counts go through `count_below` in the same
way.
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
# interior nodes, checked before any factorization: on the unit L-shape at
# 130,208 nodes count_below peaks at 0.31 GB RSS and eigenvalues_below (78
# eigenvalues below 1500) at 0.37 GB; a count at 195,585 nodes took 0.45 GB
NODE_BUDGET = 2**17
# implicit restarts per eigsh call: about 10x the 21 that ARPACK on A took
# on the unit square at step 1/64 below 16400.384 before the top cluster
# was deflated (now 4; the first 60 fd-polygon benchmark jobs of seed 1 take
# at most 5); a slice that has not converged by then is refused in seconds,
# not minutes
ARPACK_MAXITER = 200
_DENSE_CUTOVER = 220  # below this dimension just use a dense solver
# eigenvalues of S in [4 - _TOP_WIDTH, 4] form its top cluster, counted apart
# from the slices; they give eigenvalues of step^2 A within 2 sqrt(_TOP_WIDTH)
# = 7.6e-6 of c' = 4, certified as copies of c by _top_cluster. The smallest
# pivot of S - (4 - _TOP_WIDTH)I measured 32-64 times _TOP_WIDTH on the unit
# square and two L-shapes at steps 1/32 and 1/64, far above the breakdown
# level PIVOT_TOL * _SCHUR_NORM
_TOP_WIDTH = 2.0**-36
# the top cluster's certificate (_top_cluster): its inverse-iteration shift,
# its bound on ||E V||_2 in units of step^-2 (each copy of c is returned as c,
# within 2.5e-14 relative), and its number of steps
_TOP_SHIFT = 2.0**-44
_TOP_RESIDUAL = 1e-13
_TOP_SWEEPS = 8
_SCHUR_NORM = 4.0  # spectral bound of S, the scale of its pivot tolerance
# within _NEAR_C of c' = 4 (in units of step^-2) a slice of S takes each
# eigenvalue lam' = 4 -+ ||E y|| from its eigenvector y, not through _lam
# from its eigenvalue s, which carries S's rounding times dlam'/ds =
# 2/(4 - lam'): 3e-16 to 5e-16/|4 - lam'| absolute, up to 3.6e-14 relative
# next to c, on four off-lattice rectangles at step 1/32. There ||E y||
# measured within 1.1e-16 relative (A's Lanczos: 1.5e-16); at |4 - lam'| >=
# 1/4 the map through s stays within 5e-16 relative, against a worst of
# 1.6e-15 to 5.7e-15 on each rectangle of the accuracy tests and
# BENCH_15.json, set by the lowest eigenvalues
_NEAR_C = 0.25
# above the slice from 0, an S of at most _DENSE_SCHUR_MAX rows with at least
# 1/_DENSE_SCHUR_SHARE of its dimension still wanted gives those eigenvalues
# from one dense eigh (see _dense_route). Whole extractions on L-shapes,
# eigh against the slices, at one and two BLAS threads on a 2-core x86-64 VM
# (BENCH_29.json "route_edges"): near a third wanted they are within 10% of
# each other (486 rows, 36%; 962 rows, 35%), below it the slices win or tie
# (486 rows, 30%: 111 against 119-132 ms; 816 rows, 26%: within 6%; 938
# rows, 16%: 169-182 against 251-382 ms), and half wanted the eigh takes
# 18-36% less up to 1120 rows. Over 1024 rows its peak RSS grows as n^2
# (+50 MB at 1120 rows, +150 MB at 1980) for a gain that shrinks: at 1980
# rows half wanted, 30% at two threads and 4% at one, and with a quarter
# wanted it took 30% and 75% longer. Grids that size keep the slices. The
# step-1/32 fd-polygon jobs (seeds 2901-2910), S of 337-488 rows, want 48-87%
# of it; one eigh there took 14-25 ms where 5-7 slices took 45-130 ms
_DENSE_SCHUR_MAX = 1024
_DENSE_SCHUR_SHARE = 3
# from the dense eigh, an eigenvalue s >= _VECTOR_S of S (lam' >= 2) is taken
# from its eigenvector y as 4 -+ ||E y||, one below it through _lam from y's
# Rayleigh quotient on S (see _quotients)
_VECTOR_S = 3.0
_QUOTIENT_CHUNK = 256  # columns per step of _quotients, to bound its memory
# irrational-ish split ratio keeps slice boundaries off the exact
# arithmetic coincidences common in structured grid spectra
_SPLIT_RATIO = 0.5000018437180104


@dataclass(frozen=True)
class GridOperator:
    """Sparse 5-point operator for a polygon at a fixed grid step, and its
    red-black Schur complement S (in units of step^-2) on the black nodes."""

    step: float
    nodes: np.ndarray  # (n, 2) lattice indices, lexicographic in (y, x)
    matrix: sparse.csr_matrix
    schur: sparse.csr_matrix  # 4I - E^T E/4 over the black nodes, in node order

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_black(self) -> int:
        return self.schur.shape[0]

    @property
    def scale(self) -> float:
        return 1.0 / self.step**2  # matrix = scale * (its integer stencil), exactly

    @property
    def norm_estimate(self) -> float:
        return 8.0 / self.step**2  # Gershgorin bound for the 5-point stencil


def assemble(polygon: Polygon, step: float) -> GridOperator:
    """Build the operator and its Schur complement; deterministic node order,
    Dirichlet truncation. A lattice box over LATTICE_BUDGET points or more
    than NODE_BUDGET interior nodes is a ResourceError, before any matrix is
    built."""
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
    if len(nodes) > NODE_BUDGET:
        raise ResourceError(
            f"step {step!r} leaves {len(nodes)} interior nodes, over the budget {NODE_BUDGET}")
    order = np.lexsort((nodes[:, 0], nodes[:, 1]))  # by y, then x
    nodes = nodes[order]
    # row-major keys over the lattice box are sorted in the node order; the
    # outermost column on each side of the box lies outside the polygon, and
    # key +- 1 or key +- 2 from a node wraps to another row only into one of
    # those columns, so never to a node
    nx = i_hi - i_lo + 1
    keys = (nodes[:, 1] - j_lo) * nx + (nodes[:, 0] - i_lo)
    n = len(nodes)

    def find(src, offset):
        """Node index of each key src + offset, and whether it is a node."""
        pos = np.minimum(np.searchsorted(keys, src + offset), n - 1)
        return pos, keys[pos] == src + offset

    inv = 1.0 / step**2
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    for offset in (1, -1, nx, -nx):
        pos, hit = find(keys, offset)
        rows.append(np.flatnonzero(hit))
        cols.append(pos[hit])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.full(len(rows), -inv)
    vals[:n] = 4.0 * inv
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    # S = 4I - E^T E/4 on the black nodes: (E^T E)_bb counts the neighbours
    # of b, and the entry of two black nodes counts their common neighbours
    # (all red); each pair is (offset to the other black node, offsets to
    # the common neighbours)
    black = np.flatnonzero((nodes[:, 0] + nodes[:, 1]) % 2)
    bkeys, nb = keys[black], len(black)
    deg = sum(find(bkeys, offset)[1].astype(int) for offset in (1, -1, nx, -nx))
    rows, cols, vals = [np.arange(nb)], [np.arange(nb)], [4.0 - deg / 4.0]
    pairs = [(2, (1,)), (-2, (-1,)), (2 * nx, (nx,)), (-2 * nx, (-nx,))] + [
        (dx + dy, (dx, dy)) for dx in (1, -1) for dy in (nx, -nx)]
    for offset, between in pairs:
        pos, hit = find(bkeys, offset)
        common = sum(find(bkeys, b)[1].astype(int) for b in between)
        hit &= common > 0
        rows.append(np.flatnonzero(hit))
        cols.append(np.searchsorted(black, pos[hit]))
        vals.append(common[hit] / -4.0)
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    schur = sparse.coo_matrix((vals, (rows, cols)), shape=(nb, nb)).tocsr()
    return GridOperator(step=float(step), nodes=nodes, matrix=mat, schur=schur)


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


def _schur_shift(op: GridOperator, threshold: float) -> tuple[float, float]:
    """(T', s(T')): the threshold in units of step^-2, clipped to [-1, 9]
    (outside (0, 8) no count depends on it), and T'(8 - T')/4."""
    t = min(max(threshold / op.scale, -1.0), 9.0)
    return t, t * (8.0 - t) / 4.0


def _schur_count(op: GridOperator, s: float) -> int:
    """Eigenvalues of S strictly below s, one certified inertia count."""
    return _sparse_inertia(op.schur, s, _SCHUR_NORM)[0] if op.n_black else 0


def count_below(op: GridOperator, threshold: float, top: int | None = None) -> int:
    """Matrix eigenvalues strictly below `threshold`: one inertia count of
    S - s(T')I, whose breakdown at or within roundoff of an eigenvalue is a
    NumericsError. Below c = 4/step^2 it is #{s < s(T')}; above c the
    eigenvalues at or above the threshold are the mirrors of the s <= s(T'),
    so it is n - #{s < s(T')}. Inside the top cluster's reach, s(T') >
    4 - _TOP_WIDTH, the certified count at the cluster's lower end gives it
    instead (`top`, see _top_cluster, if the caller has it), and a
    threshold within _TOP_RESIDUAL/step^2 of c is refused when c is an
    eigenvalue. Elsewhere the window of roundoff can be wider than on A
    near c: the pivot tolerance on S allows an eigenvalue lam to refuse
    thresholds up to about 8e-12/|4 - lam step^2| from it, in units of
    step^-2 (on three rectangles with an eigenvalue 3e-4 step^-2 from c,
    thresholds 1e-9 ||A|| from it were all counted; on two off-lattice
    rectangles at step 1/32, eigenvalues 0.01 to 1 step^-2 from c refused
    no threshold beyond 3.2e-13 relative of them)."""
    t, s = _schur_shift(op, float(threshold))
    if s <= 4.0 - _TOP_WIDTH:
        below = _schur_count(op, s)
        return below if t < 4.0 else op.dim - below
    top = _top_cluster(op, certify=True)[0] if top is None else top
    if abs(t - 4.0) <= _TOP_RESIDUAL and op.dim != 2 * top:
        raise NumericsError(f"threshold {threshold!r} is within roundoff of 4/step^2, "
                            f"an eigenvalue of the grid operator")
    return top if t < 4.0 else op.dim - top


def _band_low(op: GridOperator) -> float:
    """c - w, the lower end of the top cluster's band [c - w, c + w], w =
    2 sqrt(_TOP_WIDTH)/step^2: the eigenvalues of the matrix in it are those
    of S in its top cluster."""
    return op.scale * _lam(4.0 - _TOP_WIDTH)


def eigenvalues_below(op: GridOperator, threshold: float) -> np.ndarray:
    """All matrix eigenvalues below `threshold`, sorted.

    Spectrum slicing: bisection with inertia counts until every slice
    holds at most MAX_SLICE eigenvalues, then shift-invert Lanczos per slice
    (see _solve_slice) with a spanning completeness certificate; grids up to
    _DENSE_CUTOVER take one dense solve instead. Above the slice from 0, a
    small S of which most is wanted gives the rest from one dense eigh,
    each piece checked against the certified counts at its ends (see
    _slices and _dense_route). A threshold that reaches
    the top cluster's band [c - w, c + w] (c = 4/step^2, w = 2
    sqrt(_TOP_WIDTH)/step^2, 1.9e-6 relative) has the band cut out of the
    slices (see _slices): its eigenvalues are counted, not solved for. The
    count of S at the cluster's lower end and the multiplicity identity say
    how many eigenvalues of the matrix lie in the band, and _top_cluster
    puts each of them within _TOP_RESIDUAL/step^2 (2.5e-14 relative) of c,
    or raises NumericsError. Each is returned as c. The total is checked
    against count_below at `threshold`. A breakdown of that count is a
    ConfigError: the threshold is at or within roundoff of an eigenvalue.
    One at a split point is a NumericsError.

    Accuracy, measured against the closed-form spectrum of off-lattice
    rectangles at steps 1/64 (thresholds 200-1500) and 1/32 (3000-6000,
    on both sides of c): within 6e-15 relative, set by the slice from 0;
    those from the dense S measured within 6.4e-16 on the 31 grids of
    tools/fd_accuracy.py that take it. Their last bits can depend on the
    BLAS thread count, and repeat at a fixed one. Grids of dimension up to
    _DENSE_CUTOVER carry eigvalsh's error instead, which is absolute: a
    small multiple of 1e-16 ||A||.
    """
    top, cluster = None, None
    if threshold > op.scale * (4.0 - _NEAR_C):
        top, cluster = _top_cluster(op, certify=threshold > _band_low(op))
    try:
        n_total = count_below(op, threshold, top=top)
    except NumericsError as exc:
        raise ConfigError(
            f"threshold {threshold} is at or within roundoff of an eigenvalue of the grid "
            "operator; choose another") from exc
    if n_total > DEFAULT_EIG_BUDGET:
        raise ResourceError(
            f"{n_total} eigenvalues below {threshold}, over the budget {DEFAULT_EIG_BUDGET}"
        )
    if op.dim <= _DENSE_CUTOVER:  # one dense solve, checked below as the slices are
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        ev = dense[dense < threshold]
    else:
        ev = np.sort(np.concatenate(_slices(op, float(threshold), n_total, top, cluster)))
    if len(ev) != n_total:
        raise NumericsError(
            f"slice extraction found {len(ev)} eigenvalues, inertia says {n_total}"
        )
    return ev


def _slices(op: GridOperator, threshold: float, n_total: int, top: int | None,
            cluster: np.ndarray | None) -> list[np.ndarray]:
    """The eigenvalues below `threshold` in pieces, for eigenvalues_below.

    Pieces of [0, threshold) are bisected at their _SPLIT_RATIO points until
    each holds at most MAX_SLICE eigenvalues, the pieces from 0 first. With
    `top` and `cluster` given (see _top_cluster), the slices of S are solved
    with the cluster deflated, and the piece that meets the top cluster's
    band, if the threshold reaches it, is cut at the band's ends instead
    once it holds at most MAX_SLICE eigenvalues or its split point falls in
    the band: the band's eigenvalues are returned as copies of c, and no
    slice reaches them.

    Once the slice from 0 is solved, a small S of which most is still wanted
    (see _dense_route) gives every piece above it from one dense eigh (see
    _dense_piece), unbisected; a piece that meets the band is then cut at
    the band's ends whatever its count. Otherwise the bisection and the
    slices of S go on. Either way the slice from 0, its split points and
    its bytes are the same."""
    band_lo = math.inf if top is None else _band_low(op)
    band_hi = 8.0 * op.scale - band_lo
    # the counts at the band's ends: a slice that ends at one of them has
    # only the band beyond that end, which is deflated or counted apart
    ends = (None, None) if top is None else (op.dim - top, top)
    out, stack, dense = [np.empty(0)], [(0.0, threshold, 0, n_total)], None
    while stack:
        lo, hi, c_lo, c_hi = stack.pop()
        k = c_hi - c_lo
        if k == 0:
            continue
        mid = lo + _SPLIT_RATIO * (hi - lo)
        if lo < band_lo < hi and (dense is not None or k <= MAX_SLICE
                                  or band_lo <= mid <= band_hi):
            up = op.dim - top if hi > band_hi else c_hi  # the count above the band
            if not c_lo <= top <= up <= c_hi:
                raise NumericsError(f"the counts of S next to 4/step^2 disagree on "
                                    f"[{lo}, {hi})")
            out.append(np.full(up - top, 4.0 * op.scale))  # n_red - n_black + 2 #cluster
            stack.append((band_hi, hi, up, c_hi))
            stack.append((lo, band_lo, c_lo, top))
            continue
        if dense is not None:
            out.append(_dense_piece(op, dense, lo, hi, k))
            continue
        if k > MAX_SLICE:
            c_mid = count_below(op, mid, top=top)
            stack.append((mid, hi, c_mid, c_hi))
            stack.append((lo, mid, c_lo, c_mid))
            continue
        edges = (c_lo == ends[0], c_hi in (ends[1], op.dim))
        out.append(_solve_slice(op, lo, hi, k, edges, cluster))
        if lo <= 0.0 and _dense_route(op, n_total - c_hi):
            values, vectors = np.linalg.eigh(op.schur.toarray())
            dense = values, vectors, _schur_form(op)
    return out


def _dense_route(op: GridOperator, above: int) -> bool:
    """Whether the `above` eigenvalues above the slice from 0 come from one
    dense eigh of S rather than from slices of S: when S has at most
    _DENSE_SCHUR_MAX rows and they are at least 1/_DENSE_SCHUR_SHARE of
    its dimension (see _DENSE_SCHUR_MAX for the measurements at both edges)."""
    return op.n_black <= _DENSE_SCHUR_MAX and _DENSE_SCHUR_SHARE * above >= op.n_black


def _dense_piece(op: GridOperator, dense: tuple, lo: float, hi: float, k: int) -> np.ndarray:
    """Eigenvalues in [lo, hi), lo > 0, from the eigenpairs of the dense S in
    `dense`: those of S in the interval that s(lam) maps [lo, hi) to, as
    many as the certified counts at its ends say, or else a NumericsError.
    Each is taken from its eigenvector y (see _quotients): as 4 -+ ||E y||
    where s >= _VECTOR_S (lam' >= 2, on either side of c), and below that
    through _lam from y's Rayleigh quotient on S."""
    values, vectors, form = dense
    low, high, mirrored, _near = _schur_interval(op, lo, hi)
    inside = _inside(values, low, high, mirrored)
    if np.count_nonzero(inside) != k:
        raise NumericsError(f"the dense Schur complement has {np.count_nonzero(inside)} "
                            f"eigenvalues in [{lo}, {hi}), inertia says {k}")
    quotient, sv = _quotients(form, vectors[:, inside])
    by_vector = values[inside] >= _VECTOR_S
    if mirrored:
        return op.scale * np.where(by_vector, 4.0 + sv, 8.0 - _lam(quotient))
    return op.scale * np.where(by_vector, 4.0 - sv, _lam(quotient))


def _schur_form(op: GridOperator) -> tuple:
    """(rows, cols, weights, margins, E) with S = sum over its off-diagonal
    entries b < c of weight (e_b - e_c)(e_b - e_c)^T + diag(margins), and
    the coupling E: the weights -S_bc and the margins, S's row sums, are
    exact multiples of 1/4 and nonnegative (S is a diagonally dominant
    M-matrix)."""
    from scipy import sparse

    upper = sparse.triu(op.schur, k=1).tocoo()
    margins = np.asarray(op.schur.sum(axis=1)).ravel()
    return upper.row, upper.col, -upper.data, margins, _coupling(op)


def _quotients(form: tuple, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y^T S y / y^T y, ||E y|| / ||y||) for each column y of `vectors`, with
    S and E from _schur_form. Both are sums of nonnegative terms, each
    summed pairwise, so each carries a few ulps of its own size, where the
    eigenvalues of a dense eigh carry a few ulps of ||S|| = 4: at s = 0.09
    a quotient measured 1e-16 relative, eigh's eigenvalue 1.6e-15. Columns
    go _QUOTIENT_CHUNK at a time."""
    rows, cols, weights, margins, coupling = form
    quotient, sv = np.empty(vectors.shape[1]), np.empty(vectors.shape[1])
    for j in range(0, vectors.shape[1], _QUOTIENT_CHUNK):
        part = slice(j, j + _QUOTIENT_CHUNK)
        # one vector per row, C-contiguous, so that numpy sums each row pairwise
        y = np.ascontiguousarray(vectors[:, part].T)
        squares = (y * y).sum(axis=1)
        steps = np.take(y, rows, axis=1) - np.take(y, cols, axis=1)
        quotient[part] = ((steps * steps * weights).sum(axis=1)
                          + (y * y * margins).sum(axis=1)) / squares
        ey = np.ascontiguousarray((coupling @ vectors[:, part]).T)
        sv[part] = np.sqrt((ey * ey).sum(axis=1) / squares)
    return quotient, sv


def _schur_interval(op: GridOperator, lo: float,
                    hi: float) -> tuple[float, float, bool, bool]:
    """(low, high, mirrored, near): the ends of the interval of S that s(lam)
    maps [lo, hi) to, in increasing order, whether it lies above c, where
    s(lam) decreases, and whether [lo, hi) reaches within _NEAR_C/step^2 of
    c."""
    (t_lo, s_lo), (t_hi, s_hi) = _schur_shift(op, lo), _schur_shift(op, hi)
    low, high = sorted((s_lo, s_hi))
    return low, high, t_lo >= 4.0, bool(t_hi > 4.0 - _NEAR_C and t_lo < 4.0 + _NEAR_C)


def _inside(ev: np.ndarray, low: float, high: float, mirrored: bool) -> np.ndarray:
    """Which eigenvalues s of S give an eigenvalue lam of the matrix in
    [lo, hi): s in [s(lo), s(hi)) below c, s in (s(hi), s(lo)] above it."""
    return (ev > low) & (ev <= high) if mirrored else (ev >= low) & (ev < high)


def _top_cluster(op: GridOperator, certify: bool) -> tuple[int, np.ndarray]:
    """(top, V): the eigenvalues of S below its top cluster [4 - _TOP_WIDTH,
    4], and an orthonormal basis V of the cluster's eigenvectors. With
    `certify`, ||E V||_2 <= _TOP_RESIDUAL, which puts each eigenvalue of
    step^2 A that the cluster gives within _TOP_RESIDUAL of 4, or else a
    NumericsError.

    They are 4 - sigma^2/4 for the k smallest singular values sigma of the
    red-black coupling E, and step^2 A has 4 +- sigma. For a basis V of k
    orthonormal columns those sigma are all at most ||E V||_2 (minimax), so
    V is brought near the kernel of E by block inverse iteration with
    E^T E/4 + _TOP_SHIFT I = (4 + _TOP_SHIFT)I - S: the first solve, then
    steps V - (E^T E/4 + _TOP_SHIFT I)^-1 E^T (E V)/4, which take the
    residual from E itself rather than from S, whose rounding near 4 would
    be squared. The count of S at 4 - _TOP_WIDTH puts every other singular
    value above 2 sqrt(_TOP_WIDTH), so a step shrinks the rest of V by a
    factor below _TOP_SHIFT/_TOP_WIDTH = 2^-8. On lattice-aligned rectangles
    and L-shapes at steps 1/32 to 1/64 one step brought ||E V||_2 from 2e-8
    or below to 4e-16 - 1.2e-15.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    top = _schur_count(op, 4.0 - _TOP_WIDTH)
    k = op.n_black - top
    if k == 0:
        return top, np.empty((op.n_black, 0))
    coupling = _coupling(op)
    shifted = (4.0 + _TOP_SHIFT) * sparse.identity(op.n_black, format="csr") - op.schur
    try:
        lu = splu(shifted.tocsc())
    except RuntimeError as exc:
        raise NumericsError(f"factorization failed next to 4/step^2: {exc}") from exc
    basis = lu.solve(np.random.default_rng(1234).standard_normal((op.n_black, k)))
    for _sweep in range(_TOP_SWEEPS):
        basis = np.linalg.qr(basis)[0]
        residual = coupling @ basis
        if np.sqrt(np.linalg.eigvalsh(residual.T @ residual)[-1]) <= _TOP_RESIDUAL:
            return top, basis
        basis = basis - lu.solve(coupling.T @ residual) / 4.0
    if certify:
        raise NumericsError(
            f"{k} eigenvalues of the Schur complement lie within {_TOP_WIDTH:.3g} of 4, but "
            f"they are not certified to give copies of 4/step^2 = {4.0 * op.scale!r}")
    return top, np.linalg.qr(basis)[0]


def _lam(s):
    """The eigenvalue lam' = 4s/(4 + sqrt(16 - 4s)) of step^2 A below 4
    paired with the eigenvalue s of S, without cancellation."""
    return 4.0 * s / (4.0 + np.sqrt(16.0 - 4.0 * s))


def eigsh(*args, **kwargs):
    """scipy.sparse.linalg.eigsh, imported at the first call."""
    from scipy.sparse.linalg import eigsh as arpack_eigsh

    return arpack_eigsh(*args, **kwargs)


def _coupling(op: GridOperator) -> sparse.csr_matrix:
    """The red-black coupling E (red rows, black columns, entries 1) of
    step^2 A = [[4I, -E], [-E^T, 4I]]."""
    parity = (op.nodes[:, 0] + op.nodes[:, 1]) % 2
    return (op.matrix[parity == 0][:, parity == 1] != 0).astype(float).tocsr()


def _solve_slice(op: GridOperator, lo: float, hi: float, k: int,
                 edges: tuple[bool, bool], cluster: np.ndarray | None) -> np.ndarray:
    """Eigenvalues in [lo, hi) by shift-invert Lanczos.

    A slice from 0 shifts at 0 and inverts one LDL^T of A itself, whose zero
    negative pivots certify that A is positive definite; the inertia count
    puts the (k+1)-th eigenvalue at or above `hi`, so it asks for k + 1
    vectors. Shifting at 0 keeps the lowest eigenvalues accurate relative to
    their size. Any other slice is solved on S over the interval that s(lam)
    maps it to, shifted at its center, where S - sigma*I is indefinite and
    half the size of A - sigma*I; eigsh's pivoted LU factors it. Its
    eigenvalues map back through _lam below c = 4/step^2 and through
    8 - _lam above it. Within _NEAR_C/step^2 of c that map would carry S's
    rounding into lam' times dlam'/ds = 2/(4 - lam'), so there eigsh also
    returns the eigenvectors y of S, and lam' = 4 -+ sigma with the singular
    value sigma = ||E y|| of the coupling E, whose rounding is absolute.
    Given a `cluster` basis of S's top cluster (see _top_cluster), the
    inverse is projected off it: Lanczos on S did not converge where the
    vectors asked for reached into the 31 copies of s = 4 of the unit
    square at step 1/64.

    Completeness certificate: shift-invert returns the eigenvalues closest
    to the shift, so once the returned set reaches beyond both slice ends
    every eigenvalue inside the slice is present. An end flagged in `edges`
    (lo, hi) needs no reaching beyond: beyond it the spectrum ends, or
    nothing lies but the top cluster's band, and the shift is at the
    center. The vector count grows until that happens (the totals are
    still checked against the inertia count by the caller).
    """
    from scipy import sparse
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, splu

    past_low, past_high = edges
    if lo <= 0.0:
        negative, lu = _sparse_inertia(op.matrix, 0.0, op.norm_estimate)
        if negative:
            raise NumericsError(f"operator has {negative} negative pivots at shift 0")
        matrix, low, high, sigma, ask = op.matrix, lo, hi, 0.0, k + 1
        opinv = LinearOperator(op.matrix.shape, matvec=lu.solve, dtype=float)
        past_low, mirrored, near = True, False, False
    else:
        low, high, mirrored, near = _schur_interval(op, lo, hi)
        matrix = op.schur
        sigma, ask, opinv = 0.5 * (low + high), k + 8, None
        if cluster is not None and cluster.shape[1]:
            shifted = op.schur - sigma * sparse.identity(op.n_black, format="csr")
            lu = splu(shifted.tocsc())

            def deflated(x):
                x = x - cluster @ (cluster.T @ x)
                y = lu.solve(x)
                return y - cluster @ (cluster.T @ y)

            opinv = LinearOperator(op.schur.shape, matvec=deflated, dtype=float)
        if mirrored:
            past_low, past_high = past_high, past_low
    dim = matrix.shape[0]
    ask = min(ask, dim - 2)
    # fixed start vector keeps reruns byte-identical (ARPACK default is random)
    v0 = np.random.default_rng(1234).standard_normal(dim)
    for _attempt in range(8):
        try:
            ev = eigsh(matrix, k=ask, sigma=sigma, which="LM", return_eigenvectors=near,
                       tol=0, v0=v0, OPinv=opinv, maxiter=ARPACK_MAXITER)
        except ArpackNoConvergence:
            raise NumericsError(
                f"ARPACK did not converge on slice [{lo}, {hi}) with k={k}") from None
        ev, vectors = ev if near else (ev, None)
        spans_low = past_low or ev.min() < low
        spans_high = past_high or ev.max() > high
        if (spans_low and spans_high) or ask >= dim - 2:
            inside = _inside(ev, low, high, mirrored)
            if matrix is op.matrix:
                return np.sort(ev[inside])
            if near:
                coupling = _coupling(op)
                sv = np.linalg.norm(coupling @ vectors[:, inside], axis=0) / np.linalg.norm(
                    vectors[:, inside], axis=0)
                return np.sort(op.scale * (4.0 + sv if mirrored else 4.0 - sv))
            if mirrored:
                return np.sort(op.scale * (8.0 - _lam(ev[inside])))
            return op.scale * _lam(np.sort(ev[inside]))
        ask = min(ask + max(8, ask // 2), dim - 2)
    raise NumericsError(f"could not certify completeness of slice [{lo}, {hi})")


def fd_spectrum(op: GridOperator, threshold: float) -> Spectrum:
    """Spectrum object with finite-difference provenance."""
    ev = eigenvalues_below(op, threshold)
    return Spectrum(ev, float(threshold), f"finite-difference({op.step!r})")
