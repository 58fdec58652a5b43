"""Provably complete Dirichlet spectra below a cutoff.

Boxes use separation of variables (bounded lattice enumeration of
pi^2 sum (m_i/a_i)^2, the last side column by column over the sorted
partial sums of the others, then one sort; see `box_spectrum`). Disks
and balls share one builder, `_bessel_spectrum`: in dimension d the
eigenvalues are (j_{nu,k}/R)^2 for the orders nu = l + d/2 - 1,
l = 0, 1, ..., each repeated by the dimension of the degree-l spherical
harmonics,
C(l+d-1, d-1) - C(l+d-3, d-1) (the second term is 0 when l+d < 3),
that is 1, 2, 2, ... for the disk and 2l+1 for the ball. The zeros of
all orders come from batched passes over runs of consecutive orders
(`bessel.zeros_below_orders`). The Bessel evaluator stops each point on
its own terms, so a value never depends on the rest of its batch and no
zero depends on the other orders of its pass.
Eigenvalues are stored as a flat sorted float array with multiplicity.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bessel import zeros_below_orders
from .constants import constants
from .domains import Ball, Box, Disk
from .errors import ConfigError, ResourceError
from .output import csv_text, json_text, write

DEFAULT_BUDGET = 10**8  # max stored eigenvalues; read at call time


@dataclass(frozen=True)
class Spectrum:
    """Sorted Dirichlet eigenvalues (with multiplicity) below `cutoff`.

    The eigenvalues must be finite, nonnegative and nondecreasing: every
    query bisects them, and the Riesz terms 1 - h^2 lambda are then
    finite and in [0, 1].
    """

    eigenvalues: np.ndarray
    cutoff: float
    provenance: str

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if not np.isfinite(ev).all():
            raise ConfigError("spectrum has a non-finite eigenvalue")
        if (ev[1:] < ev[:-1]).any():
            raise ConfigError("spectrum eigenvalues must be in ascending order")
        if ev.size and ev[0] < 0:
            raise ConfigError(f"spectrum has a negative eigenvalue {float(ev[0])!r}")
        object.__setattr__(self, "eigenvalues", ev)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _check_budget(domain, cutoff: float, what: str) -> None:
    d = domain.dim
    try:  # Weyl's estimate of the count with room to spare; it may overflow
        estimate = 1.2 * constants(d).C_d * domain.volume * cutoff ** (d / 2) + 100
    except OverflowError:
        estimate = math.inf
    if estimate > DEFAULT_BUDGET:
        raise ResourceError(
            f"{what} would need ~{estimate:.3g} eigenvalues, over the budget {DEFAULT_BUDGET:g}"
        )


def box_spectrum(sides, cutoff: float) -> Spectrum:
    """All eigenvalues pi^2 sum (m_i/a_i)^2 < cutoff, m_i >= 1.

    The lattice search is bounded (m_i <= a_i sqrt(cutoff)/pi), hence
    provably exhaustive. The partial sums s of the first d - 1 sides are
    sorted ascending, so their rows' lengths floor(a sqrt(q - s)) in the
    last side a are nonincreasing. The rows are then written column by
    column: each run of columns m that the same leading rows reach is one
    outer sum s + (m/a)^2. That takes as many whole-array calls as there
    are distinct row lengths, at most min(rows, columns), and each value
    is fl(s + fl(m/a)^2) whatever the order; the values are then sorted.
    """
    box = Box(tuple(sides))
    if cutoff <= 0:
        raise ConfigError(f"cutoff must be positive, got {cutoff}")
    _check_budget(box, cutoff, "box spectrum")
    q = cutoff / math.pi**2  # search sum (m_i/a_i)^2 < q
    partial = np.array([0.0])
    for a in box.sides[:-1]:
        m_max = int(math.floor(a * math.sqrt(q))) + 1
        m = np.arange(1, m_max + 1)
        cand = (partial[:, None] + (m[None, :] / a) ** 2).ravel()
        partial = cand[cand < q]
    partial.sort()
    a_last = box.sides[-1]
    # row lengths, nonincreasing, and a last row of length 0
    m_max = np.append(np.floor(a_last * np.sqrt(q - partial)).astype(np.int64), 0)
    square = (np.arange(1, m_max[0] + 1) / a_last) ** 2
    vals = np.empty(m_max.sum())
    at = 0
    for n in (np.flatnonzero(m_max[1:] != m_max[:-1]) + 1).tolist():
        lo, hi = m_max[n], m_max[n - 1]  # columns lo+1..hi hold rows 0..n-1
        block = vals[at:at + n * (hi - lo)].reshape(n, hi - lo)
        np.add(partial[:n, None], square[lo:hi], out=block)
        at += block.size
    ev = vals[vals < q]
    ev.sort()
    ev *= math.pi**2
    ev = ev[ev < cutoff]  # guard against roundoff at the edge
    if ev.size > DEFAULT_BUDGET:
        raise ResourceError(
            f"box spectrum has {ev.size} eigenvalues, over budget {DEFAULT_BUDGET}")
    return Spectrum(ev, float(cutoff), "exact-box")


def _multiplicity(ell: int, d: int) -> int:
    """Dimension of the degree-ell spherical harmonics on S^{d-1}."""
    return math.comb(ell + d - 1, d - 1) - math.comb(max(ell + d - 3, 0), d - 1)


def _bessel_spectrum(ball, cutoff: float) -> Spectrum:
    """Disk or ball eigenvalues below `cutoff`. The zeros below R*sqrt(cutoff)
    of the orders nu <= R*sqrt(cutoff) come in batched passes; the spectrum
    stops at the first order without one, and no later pass runs:
    j_{nu,1} > nu and j_{nu,1} increases with nu, so no later order can
    contribute."""
    if cutoff <= 0:
        raise ConfigError(f"cutoff must be positive, got {cutoff}")
    d = ball.dim
    what = f"{type(ball).__name__.lower()} spectrum"
    _check_budget(ball, cutoff, what)
    x_max = math.sqrt(cutoff) * ball.radius
    orders = list(itertools.takewhile(lambda nu: nu <= x_max,
                                      (ell + d / 2 - 1 for ell in itertools.count())))
    zeros = list(itertools.takewhile(np.size, zeros_below_orders(orders, x_max)))
    mult = np.array([_multiplicity(ell, d) for ell in range(len(zeros))], dtype=np.intp)
    ev = np.sort(np.repeat((np.concatenate([np.empty(0), *zeros]) / ball.radius) ** 2,
                           np.repeat(mult, [zs.size for zs in zeros])))
    ev = ev[ev < cutoff]
    if ev.size > DEFAULT_BUDGET:
        raise ResourceError(f"{what} has {ev.size} eigenvalues, over budget {DEFAULT_BUDGET}")
    return Spectrum(ev, float(cutoff), "exact-bessel")


def disk_spectrum(radius: float, cutoff: float) -> Spectrum:
    """Disk eigenvalues (j_{nu,k}/R)^2 < cutoff; multiplicity 2 for nu >= 1."""
    return _bessel_spectrum(Disk(radius), cutoff)


def ball_spectrum(radius: float, cutoff: float) -> Spectrum:
    """Ball eigenvalues (j_{l+1/2,k}/R)^2 < cutoff, multiplicity 2l+1."""
    return _bessel_spectrum(Ball(radius), cutoff)


def spectrum_for(domain, cutoff: float) -> Spectrum:
    if isinstance(domain, Box):
        return box_spectrum(domain.sides, cutoff)
    if isinstance(domain, Disk):
        return disk_spectrum(domain.radius, cutoff)
    if isinstance(domain, Ball):
        return ball_spectrum(domain.radius, cutoff)
    raise ConfigError(f"no exact spectrum generator for {type(domain).__name__}")


def sidecar(csv_path) -> Path:
    """The JSON sidecar of a spectrum CSV: the same name with a .json extension."""
    csv_path = Path(csv_path)
    return csv_path.parent / f"{csv_path.stem}.json"


def save_spectrum(spectrum: Spectrum, csv_path) -> None:
    """One eigenvalue per row under header `lambda`; provenance and cutoff
    go to its `sidecar`."""
    write(csv_text(["lambda"], [spectrum.eigenvalues]), csv_path)
    write(json_text({"provenance": spectrum.provenance, "cutoff": spectrum.cutoff}),
          sidecar(csv_path))


def load_spectrum(csv_path) -> Spectrum:
    csv_path = Path(csv_path)
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["lambda"]:
        raise ConfigError(f"{csv_path} is not a spectrum CSV (expected header 'lambda')")
    ev = np.array([float(r[0]) for r in rows[1:]])
    meta = json.loads(sidecar(csv_path).read_text())
    return Spectrum(ev, float(meta["cutoff"]), str(meta["provenance"]))
