"""Independent oracles for every job output, run outside the timed region.

Each check returns the job's worst relative deviation from its oracle and
raises ``Mismatch`` when a deviation exceeds the tolerance of that output
type. The oracles share no numerical code with weylkit:

  disk spectra    scipy.special.jn_zeros (Fortran zero finder)
  box spectra     brute-force lattice over the full index box
  FD spectra      own 5-point assembly from the L-shape's rectangles;
                  dense eigvalsh at step 1/32, ARPACK sigma=0 at 1/64
  half-space      closed form (1/4) L_{d-1}; profile via scipy.special.jv;
                  tail via panel Gauss-Legendre plus the averaged
                  asymptotic tail
  localization    the normalization is exactly 1 and must hold within
                  tol; the scale column against l(u) in closed form
Sweep and fit columns are recomputed from the oracle spectrum with the
defining formulas, so a check compares numbers, not asymptotics.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh
from scipy.special import gamma, jn_zeros, jv

# Gate tolerances, per output type (relative unless noted).
TOL_SWEEP = 1e-9  # riesz/weyl columns; residuals relative to weyl1
TOL_FIT = 1e-6  # fitted coefficient, exponent, residual norm
TOL_FD = 1e-8  # FD eigenvalues (the solver's stated accuracy is ~1e-10)
TOL_PROFILE = 1e-9  # rho(t), relative to the bulk value
TOL_TAIL = 1e-5  # the tail value is an extrapolation; the oracle is good to ~1e-7
TOL_BC = 1e-4  # the CLI's default boundary-coefficient tolerance (absolute)
TOL_NORM = 1e-3  # the CLI's default normalization tolerance (absolute)
TOL_SCALE = 1e-12  # l(u) diagnostics column


class Mismatch(Exception):
    """An output disagrees with its oracle beyond the gate tolerance."""


def _rel(got, want, scale=None) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if want.ndim == 0:
        want = np.broadcast_to(want, got.shape)
    den = np.abs(want) if scale is None else np.abs(np.asarray(scale, dtype=float))
    if got.shape != want.shape:
        raise Mismatch(f"shape {got.shape} != oracle shape {want.shape}")
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want) / np.maximum(den, 1e-300)))


def _gate(name: str, err: float, tol: float) -> float:
    if not err <= tol:
        raise Mismatch(f"{name}: deviation {err:.3g} > tolerance {tol:g}")
    return err


# ---------------------------------------------------------------------------
# constants, from their definitions


def riesz_constant(d: int) -> float:
    """L_d = omega_d (2 pi)^-d * 2/(d+2), the first-Riesz-mean constant."""
    omega = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return omega / (2.0 * math.pi) ** d * 2.0 / (d + 2.0)


def _geometry(shape: str, params) -> tuple[int, float, float]:
    p = [float(x) for x in params]
    if shape == "disk":
        return 2, math.pi * p[0] ** 2, 2.0 * math.pi * p[0]
    return len(p), math.prod(p), 2.0 * sum(math.prod(p) / a for a in p)


# ---------------------------------------------------------------------------
# exact spectra


def disk_eigenvalues(radius: float, lam_max: float) -> np.ndarray:
    """(j_{n,k}/R)^2 < lam_max with multiplicity 1 (n = 0) or 2."""
    x_max = radius * math.sqrt(lam_max)
    out = []
    n = 0
    while True:
        k = int(x_max / math.pi) + 3
        while True:
            z = jn_zeros(n, k)
            if z[-1] >= x_max:
                break
            k *= 2
        z = z[z < x_max]
        if z.size == 0:
            break
        lam = (z / radius) ** 2
        out.append(lam if n == 0 else np.repeat(lam, 2))
        n += 1
    return np.sort(np.concatenate(out))


def box_eigenvalues(sides, lam_max: float) -> np.ndarray:
    """pi^2 sum (m_i/a_i)^2 < lam_max over the full box of indices."""
    q = lam_max / math.pi**2
    total = np.zeros(())
    for a in sides:
        m = np.arange(1, int(a * math.sqrt(q)) + 2, dtype=float)
        total = np.add.outer(total, (m / a) ** 2)
    vals = total.ravel()
    return np.sort(vals[vals < q]) * math.pi**2


# ---------------------------------------------------------------------------
# sweep / fit


def _read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _oracle_sweep(spec) -> dict:
    h_hi, h_lo, count = float(spec["h"][0]), float(spec["h"][1]), int(spec["h"][2])
    hs = np.geomspace(h_hi, h_lo, count)
    lam_max = 1.0 / h_lo**2 * (1.0 + 1e-9)
    if spec["shape"] == "disk":
        lam = disk_eigenvalues(float(spec["params"][0]), lam_max)
    else:
        lam = box_eigenvalues([float(a) for a in spec["params"]], lam_max)
    prefix = np.concatenate([[0.0], np.cumsum(lam)])
    n = np.searchsorted(lam, 1.0 / hs**2, side="left")
    riesz = n - hs**2 * prefix[n]
    d, vol, surf = _geometry(spec["shape"], spec["params"])
    weyl1 = riesz_constant(d) * vol * hs**-d
    weyl2 = weyl1 - 0.25 * riesz_constant(d - 1) * surf * hs ** (-(d - 1))
    return {"h": hs, "N": n, "riesz": riesz, "weyl1": weyl1, "weyl2": weyl2,
            "residual1": riesz - weyl1, "residual2": riesz - weyl2, "d": d, "surface": surf}


def check_sweep(job, outputs) -> float:
    rows = _read_csv(outputs[job["outputs"][0]])
    if rows[0] != ["h", "N", "riesz", "weyl1", "weyl2", "residual1", "residual2"]:
        raise Mismatch(f"unexpected sweep header {rows[0]}")
    got = np.array([[float(x) for x in r] for r in rows[1:]])
    o = _oracle_sweep(job["spec"])
    if not np.array_equal(got[:, 1], o["N"]):
        raise Mismatch("counting-function column differs from the oracle")
    errs = [_rel(got[:, 0], o["h"]), _rel(got[:, 2], o["riesz"]),
            _rel(got[:, 3], o["weyl1"]), _rel(got[:, 4], o["weyl2"], o["weyl1"]),
            _rel(got[:, 5], o["residual1"], o["weyl1"]),
            _rel(got[:, 6], o["residual2"], o["weyl1"])]
    return _gate("sweep", max(errs), TOL_SWEEP)


def check_fit(job, outputs) -> float:
    got = json.loads(outputs[job["outputs"][0]])
    o = _oracle_sweep(job["spec"])
    hs, d = o["h"], o["d"]
    # weighted least squares of residual1 on -h^{-(d-1)}, weights h^{d-1}
    w = hs ** (d - 1)
    x = -(hs ** (-(d - 1)))
    coeff = np.sum(w * w * x * o["residual1"]) / np.sum(w * w * x * x)
    rms = math.sqrt(np.mean((w * (o["residual1"] - coeff * x)) ** 2))
    usable = np.abs(o["residual2"]) > 1e-9 * np.abs(o["weyl1"])
    usable[:3] = False
    slope = np.polyfit(np.log(hs[usable]), np.log(np.abs(o["residual2"][usable])), 1)[0]
    predicted = 0.25 * riesz_constant(d - 1) * o["surface"]
    errs = [
        _rel(got["fitted_second_coefficient"], coeff, predicted),
        _rel(got["predicted_second_coefficient"], predicted),
        _rel(got["fitted_remainder_exponent"], slope, max(1.0, abs(slope))),
        _rel(got["h_range"], [hs.min(), hs.max()]),
        _rel(got["residual_norm"], rms),
    ]
    return _gate("fit", max(errs), TOL_FIT)


# ---------------------------------------------------------------------------
# finite differences


def fd_matrix(shape: dict, step: float) -> sparse.csr_matrix:
    """5-point Dirichlet Laplacian on the lattice nodes strictly inside the
    L-shape [0,a]x[0,c] minus [p,a]x[q,c] (vertices lie off the lattice)."""
    a, c, p, q = (float(shape[k]) for k in "acpq")
    xs = np.arange(1, int(a / step) + 1) * step
    ys = np.arange(1, int(c / step) + 1) * step
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = (X < a) & (Y < c) & ~((X > p) & (Y > q))
    index = -np.ones(inside.shape, dtype=np.int64)
    n = int(inside.sum())
    index[inside] = np.arange(n)
    rows, cols = [np.arange(n)], [np.arange(n)]
    for src, dst in ((index[:-1, :], index[1:, :]), (index[:, :-1], index[:, 1:])):
        both = (src >= 0) & (dst >= 0)
        rows += [src[both], dst[both]]
        cols += [dst[both], src[both]]
    r, cidx = np.concatenate(rows), np.concatenate(cols)
    vals = np.where(r == cidx, 4.0, -1.0) / step**2
    return sparse.csr_matrix((vals, (r, cidx)), shape=(n, n))


@lru_cache(maxsize=8)
def _dense_spectrum(shape_key: tuple, step: float) -> np.ndarray:
    return np.linalg.eigvalsh(fd_matrix(dict(shape_key), step).toarray())


def check_fd(job, outputs) -> float:
    spec = job["spec"]
    step, thr = float(spec["step"]), float(spec["threshold"])
    csv_name, side_name = job["outputs"]
    rows = _read_csv(outputs[csv_name])
    if rows[0] != ["lambda"]:
        raise Mismatch(f"unexpected spectrum header {rows[0]}")
    got = np.array([float(r[0]) for r in rows[1:]])
    side = json.loads(outputs[side_name])
    if side != {"provenance": f"finite-difference({step!r})", "cutoff": thr}:
        raise Mismatch(f"unexpected spectrum sidecar {side}")
    if step >= 1.0 / 32.0:
        ev = _dense_spectrum(tuple(sorted(spec["shape"].items())), step)
        want = ev[ev < thr]
    else:
        mat = fd_matrix(spec["shape"], step)
        k = min(len(got) + 4, mat.shape[0] - 2)
        v0 = np.ones(mat.shape[0])
        ev = np.sort(eigsh(mat, k=k, sigma=0.0, which="LM", return_eigenvectors=False, v0=v0))
        if ev[-1] < thr:
            raise Mismatch(f"oracle could not certify the count: {k} eigenvalues all below {thr}")
        want = ev[ev < thr]
    if len(got) != len(want):
        raise Mismatch(f"{len(got)} eigenvalues below {thr}, oracle has {len(want)}")
    return _gate("fd", _rel(got, want), TOL_FD)


# ---------------------------------------------------------------------------
# localization


def _scale(shape: str, size: float, l0: float, pts: np.ndarray) -> np.ndarray:
    if shape == "disk":
        dist = np.clip(size - np.hypot(pts[:, 0], pts[:, 1]), 0.0, None)
    else:
        dist = np.clip(np.minimum(pts, size - pts).min(axis=1), 0.0, None)
    s = np.hypot(dist, l0)
    return s / (2.0 * (s + 1.0))


def check_localize(job, outputs) -> float:
    spec = job["spec"]
    size, l0, grid = float(spec["size"]), float(spec["l0"]), int(spec["grid"])
    report = json.loads(outputs["stdout"].splitlines()[-1])
    dev = _gate("normalization", report["normalization_worst_deviation"], TOL_NORM)
    rows = _read_csv(outputs[job["outputs"][0]])
    if rows[0] != ["u1", "u2", "l", "flag"]:
        raise Mismatch(f"unexpected diagnostics header {rows[0]}")
    got = np.array([[float(x) for x in r] for r in rows[1:]])
    lo, hi = (-size - 2 * l0, size + 2 * l0) if spec["shape"] == "disk" else (-2 * l0, size + 2 * l0)
    ax = np.linspace(lo, hi, grid)
    pts = np.stack([g.ravel() for g in np.meshgrid(ax, ax, indexing="ij")], axis=1)
    if not set(np.unique(got[:, 3])) <= {0.0, 1.0}:
        raise Mismatch("diagnostics flag column holds values other than 0/1")
    err = max(_rel(got[:, :2], pts, 1.0), _rel(got[:, 2], _scale(spec["shape"], size, l0, pts)))
    return max(dev, _gate("scale column", err, TOL_SCALE))


# ---------------------------------------------------------------------------
# half-space


def _correction(d: int, t: np.ndarray) -> np.ndarray:
    """(2 pi)^-d K(d, t) = L_d Gamma(nu+1) J_nu(2t) / t^nu, nu = d/2 + 1."""
    nu = d / 2.0 + 1.0
    return riesz_constant(d) * gamma(nu + 1.0) * jv(nu, 2.0 * t) / t**nu


@lru_cache(maxsize=None)
def tail_integral(d: int, horizon: float = 3000.0, panel: float = 0.05) -> float:
    """int_0^inf t |correction(t)| dt: Gauss-Legendre on fixed panels up to
    the horizon, then the tail with |J_nu(2t)| replaced by its mean
    (2/pi) (pi t)^{-1/2}."""
    nu = d / 2.0 + 1.0
    g, w = np.polynomial.legendre.leggauss(10)
    edges = np.arange(0.0, horizon + panel / 2, panel)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    t = mid + 0.5 * panel * g[None, :]
    body = float((t * np.abs(_correction(d, t)) @ w).sum() * 0.5 * panel)
    amp = riesz_constant(d) * gamma(nu + 1.0) * 2.0 / math.pi**1.5
    return body + amp * horizon ** (1.5 - nu) / (nu - 1.5)


def check_halfspace(job, outputs) -> float:
    kind, d = job["kind"], int(job["spec"]["d"])
    target = 0.25 * riesz_constant(d - 1)
    if kind == "hs-profile":
        rows = _read_csv(outputs[job["outputs"][0]])
        if rows[0] != ["t", "rho", "bulk"]:
            raise Mismatch(f"unexpected profile header {rows[0]}")
        got = np.array([[float(x) for x in r] for r in rows[1:]])
        T, count = float(job["spec"]["T"]), int(job["spec"]["count"])
        ts = np.linspace(0.0, T, count)
        bulk = riesz_constant(d)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(ts > 0, bulk - _correction(d, ts), 0.0)
        err = max(_rel(got[:, 0], ts, 1.0), _rel(got[:, 1], rho, bulk), _rel(got[:, 2], bulk))
        return _gate("profile", err, TOL_PROFILE)
    got = json.loads(outputs[job["outputs"][0]])
    if kind == "hs-bc":
        _gate("boundary coefficient (absolute)", abs(got["value"] - target), TOL_BC)
        _gate("target", _rel(got["target"], target), 1e-14)
        _gate("achieved_tolerance", abs(got["achieved_tolerance"]
                                        - abs(got["value"] - got["target"])), 0.0)
        return _rel(got["value"], target)
    if got["horizon"] != float(job["spec"]["T"]):
        raise Mismatch(f"tail horizon {got['horizon']} != {job['spec']['T']}")
    return _gate("tail", _rel(got["value"], tail_integral(d)), TOL_TAIL)


CHECKS = {
    "sweep": check_sweep,
    "fit": check_fit,
    "fd": check_fd,
    "localize": check_localize,
    "hs-bc": check_halfspace,
    "hs-tail": check_halfspace,
    "hs-profile": check_halfspace,
}


def check(job, outputs) -> float:
    """Worst relative deviation of the job's outputs; raises Mismatch."""
    return CHECKS[job["kind"]](job, outputs)
