"""Bessel functions of the first kind and their positive zeros.

J_nu is evaluated for integer and half-integer orders nu >= 0 by one of
three routes chosen per point:

  * ascending power series where its largest term stays small enough that
    cancellation cannot eat the 1e-10 absolute-accuracy target;
  * upward three-term recurrence from J_0, J_1 (or J_{1/2}, J_{3/2} in the
    half-integer ladder) when x >= nu, the regime where that recurrence is
    stable; J_0, J_1 themselves come from the large-argument (Hankel)
    expansion, since the series covers every x <= 14;
  * downward (Miller) recurrence with Neumann-series normalization when
    x < nu and the series is unsafe.

The evaluator works on a batch split into consecutive groups, each with
its own order. The series and the Hankel expansion stop when the largest
term of the group (not of the batch) is negligible, and Miller rescales
per group, so a group's values are bitwise those of a `bessel_j` call on
its points alone; `bessel_j` is the one-group call. One upward recurrence
to the largest order picks up J_nu at each point's own order.

Zeros of many orders are found together, in batched passes over runs of
consecutive orders of about PASS_POINTS grid points each (one order's
grid is never split): a scan for sign changes on a unit-step grid per
order (the gap between consecutive zeros of any J_nu exceeds 3, so no
zero can be skipped), then bisection plus safeguarded Newton refinement
of every bracket of the pass at once, one group per order. Consecutive
orders are checked to interlace. Asymptotic spacing estimates are used
only to size the scan window.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, InvariantViolation

# Series is used only while its largest term stays below exp() of this,
# keeping the cancellation error near 1e5 * eps ~ 2e-11. The induced
# switchover point is close to x = 12 + 2 nu for small orders; tunable.
_SERIES_LOG_GUARD = math.log(1e5)

SCAN_STEP = 1.0  # zero scan; must stay below the minimal zero gap (> 3) to skip none
PASS_POINTS = 1 << 16  # scan-grid points per batched zero pass; bounds its memory

def _check_order(nu: float) -> float:
    nu = float(nu)
    if nu < 0 or not float(2 * nu).is_integer():
        raise ConfigError(
            f"Bessel order must be a nonnegative integer or half-integer, got {nu}"
        )
    return nu


def _pick(a, mask):
    """`a` at the points of `mask`; a scalar or None (one group) stays as is."""
    return a[mask] if isinstance(a, np.ndarray) else a


def _groups(gid):
    """(start, size) of each group in a batch sorted by group id; (None,
    None) for one group."""
    if gid is None:
        return None, None
    seg = np.flatnonzero(np.r_[True, gid[1:] != gid[:-1]])
    return seg, np.diff(seg, append=gid.size)


def _gmax(a: np.ndarray, seg):
    """Largest entry of each group: one scalar when seg is None (one group)."""
    return np.maximum.reduce(a) if seg is None else np.maximum.reduceat(a, seg)


def _count(flags) -> tuple[int, int]:
    """(groups flagged, groups) for per-group flags from `_gmax`."""
    if isinstance(flags, np.ndarray):
        return np.count_nonzero(flags), flags.size
    return int(flags), 1


def _retire(done, sizes, pos, live, finals):
    """Write the groups flagged in `done` from the leading `live` arrays to
    `finals` and drop them from every live array. `pos` holds the batch
    slots of the live points (None: all of them, in order). Returns the
    starts, sizes and slots of the groups left, and their live arrays."""
    keep = np.repeat(~done, sizes)
    if pos is None:
        pos = np.arange(keep.size)
    gone = ~keep
    for out, arr in zip(finals, live):
        out[pos[gone]] = arr[gone]
    sizes = sizes[~done]
    return np.cumsum(sizes) - sizes, sizes, pos[keep], [_pick(a, keep) for a in live]


def _placed(out, pos, arr):
    if pos is None:
        return arr
    out[pos] = arr
    return out


def _series(nu, lg, x, gid=None) -> np.ndarray:
    """Ascending series; nu and lg = lgamma(nu + 1) are scalars or per point.
    Each group stops on its own largest term. Caller guarantees
    cancellation safety and x > 0."""
    h = 0.5 * x
    log_t0 = nu * np.log(h) - lg
    term = np.where(log_t0 < -745.0, 0.0, np.exp(np.clip(log_t0, -745.0, None)))
    total = term.copy()
    h2 = h * h
    out = np.empty_like(x)
    (seg, sizes), pos = _groups(gid), None
    for k in range(300):
        term = -term * h2 / ((k + 1.0) * (nu + k + 1.0))
        total += term
        done = _gmax(np.abs(term), seg) <= 1e-17 * (_gmax(np.abs(total), seg) + 1e-300)
        n_done, groups = _count(done)
        if n_done == groups:
            break
        if n_done:
            seg, sizes, pos, (total, term, h2, nu) = _retire(
                done, sizes, pos, (total, term, h2, nu), (out,))
    return _placed(out, pos, total)


def _hankel(nu: float, x: np.ndarray, gid=None) -> np.ndarray:
    """Large-argument expansion; adequate for nu in {0, 1}, x > 14. Each
    group stops where its own terms start to grow or become negligible.
    The upward route only reaches x > 14: below that the series is safe for
    every order."""
    mu = 4.0 * nu * nu
    eight_x = 8.0 * x
    c = np.ones_like(x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    p_out, q_out = np.empty_like(x), np.empty_like(x)
    (seg, sizes), pos = _groups(gid), None
    prev = np.inf
    for m in range(1, 40):
        c = c * (mu - (2 * m - 1) ** 2) / (m * eight_x)
        mag = _gmax(np.abs(c), seg)
        grew = mag > prev  # asymptotic tail started to diverge
        n_grew, groups = _count(grew)
        if n_grew == groups:
            break
        if n_grew:
            seg, sizes, pos, (p, q, c, eight_x) = _retire(
                grew, sizes, pos, (p, q, c, eight_x), (p_out, q_out))
            mag = mag[~grew]
        prev = mag
        sign = -1.0 if (m // 2) % 2 else 1.0
        if m % 2:
            q += sign * c
        else:
            p += sign * c
        small = mag < 1e-17
        n_small, groups = _count(small)
        if n_small == groups:
            break
        if n_small:
            seg, sizes, pos, (p, q, c, eight_x) = _retire(
                small, sizes, pos, (p, q, c, eight_x), (p_out, q_out))
            prev = mag[~small]
    p, q = _placed(p_out, pos, p), _placed(q_out, pos, q)
    omega = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (np.cos(omega) * p - np.sin(omega) * q)


def _half_base(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pref = np.sqrt(2.0 / (math.pi * x))
    return pref * np.sin(x), pref * (np.sin(x) / x - np.cos(x))


def _climb(nu, x, jm1, j, order: float) -> np.ndarray:
    """Upward recurrence from jm1 = J_{order-1}, j = J_order to J_nu, with
    nu a scalar or one order per point on the same ladder."""
    if not isinstance(nu, np.ndarray):
        if nu == order - 1.0:
            return jm1
        while order < nu:
            jm1, j = j, (2.0 * order) / x * j - jm1
            order += 1.0
        return j
    # sorted by order, the points still climbing are a shrinking suffix
    perm = np.argsort(nu, kind="stable")
    nu, x, jm1, j = nu[perm], x[perm], jm1[perm], j[perm]
    res = np.empty_like(x)
    base = np.searchsorted(nu, order - 1.0, "right")
    res[:base] = jm1[:base]
    x, jm1, j = x[base:], jm1[base:], j[base:]
    while True:
        top = np.searchsorted(nu, order, "right")
        res[base:top] = j[: top - base]
        if top == nu.size:
            break
        x, jm1, j = x[top - base:], jm1[top - base:], j[top - base:]
        base = top
        jm1, j = j, (2.0 * order) / x * j - jm1
        order += 1.0
    out = np.empty_like(res)
    out[perm] = res
    return out


def _upward(nu, x: np.ndarray, gid=None) -> np.ndarray:
    """J_nu for x >= nu by upward recurrence along each point's ladder."""
    if not isinstance(nu, np.ndarray):
        if float(nu).is_integer():
            return _climb(nu, x, _hankel(0.0, x, gid), _hankel(1.0, x, gid), 1.0)
        return _climb(nu, x, *_half_base(x), 1.5)
    out = np.empty_like(x)
    whole = nu % 1.0 == 0.0
    if whole.any():
        xs, gs = x[whole], gid[whole]
        out[whole] = _climb(nu[whole], xs, _hankel(0.0, xs, gs), _hankel(1.0, xs, gs), 1.0)
    half = ~whole
    if half.any():
        xs = x[half]
        out[half] = _climb(nu[half], xs, *_half_base(xs), 1.5)
    return out


def _miller(nu: float, x: np.ndarray) -> np.ndarray:
    """Downward recurrence for x < nu; 60 guard orders give full accuracy."""
    half = not float(nu).is_integer()
    n_int = int(nu - 0.5) if half else int(nu)
    top = n_int + 64
    jp = np.zeros_like(x)
    j = np.full_like(x, 1e-30)
    neumann = np.zeros_like(x)
    target = None
    low0 = low1 = None  # orders 1/2 and 3/2 along the half-integer ladder
    for m_int in range(top, 0, -1):
        order = m_int + 0.5 if half else float(m_int)
        jp, j = j, (2.0 * order) / x * j - jp
        new_order = order - 1.0
        if new_order == nu:
            target = j.copy()
        if not half and new_order >= 2 and int(new_order) % 2 == 0:
            neumann += j
        if half and new_order == 1.5:
            low1 = j
        mx = np.max(np.abs(j))
        if mx > 1e250:
            jp *= 1e-250
            j *= 1e-250
            neumann *= 1e-250
            if target is not None:
                target *= 1e-250
            if low1 is not None:
                low1 *= 1e-250
    if half:
        low0 = j
        e0, e1 = _half_base(x)
        use0 = np.abs(e0) >= np.abs(e1)
        denom = np.where(use0, low0, low1)
        scale = np.where(use0, e0, e1) / denom
    else:
        scale = 1.0 / (2.0 * neumann + j)  # j is the unnormalized J_0
    return target * scale


def _j_groups(orders, x: np.ndarray, sizes) -> np.ndarray:
    """J at a batch of points x >= 0 split into consecutive groups: group g
    holds the next sizes[g] points, of order orders[g] (checked orders, no
    empty group). Each group's values are bitwise those of bessel_j on its
    points alone."""
    if len(orders) == 1:
        gid, nu = None, orders[0]
    else:
        gid = np.repeat(np.arange(len(orders)), sizes)
        nu = np.asarray(orders, dtype=float)[gid]
    out = np.empty_like(x)
    zero = x == 0.0
    out[zero] = _pick(nu, zero) == 0  # J_0(0) = 1, J_nu(0) = 0 otherwise
    pos = ~zero
    if pos.any():
        xp, nup, gp = x[pos], _pick(nu, pos), _pick(gid, pos)
        res = np.empty_like(xp)
        # per-point series-safety estimate of the largest series term
        h = 0.5 * xp
        kstar = np.maximum(0.0, 0.5 * (-(nup + 2.0) + np.sqrt(nup * nup + xp * xp)))
        k = np.round(kstar)
        log_max = (nup + 2 * k) * np.log(h) - gammaln(k + 1.0) - gammaln(nup + k + 1.0)
        m_series = log_max <= _SERIES_LOG_GUARD
        m_up = ~m_series & (xp >= nup)
        m_down = ~m_series & ~m_up
        if m_series.any():
            gs = _pick(gp, m_series)
            if gs is None:
                lg = math.lgamma(nu + 1.0)
            else:
                lg = np.array([math.lgamma(o + 1.0) for o in orders])[gs]
            res[m_series] = _series(_pick(nup, m_series), lg, xp[m_series], gs)
        if m_up.any():
            res[m_up] = _upward(_pick(nup, m_up), xp[m_up], _pick(gp, m_up))
        if m_down.any():
            xd, gd = xp[m_down], _pick(gp, m_down)
            if gd is None:
                res[m_down] = _miller(nu, xd)
            else:
                vals = np.empty_like(xd)
                for a, n in zip(*_groups(gd)):
                    vals[a:a + n] = _miller(orders[gd[a]], xd[a:a + n])
                res[m_down] = vals
        out[pos] = res
    return out


def bessel_j(nu: float, x) -> float | np.ndarray:
    """J_nu(x) for integer/half-integer nu >= 0 and x >= 0.

    Measured against scipy.special.jv over x in [0, 1e3]: absolute error at
    most 3.5e-11 for nu <= 600. Above that it grows near the route switch at
    x = nu: 6e-11 at nu = 700, 1.9e-10 at nu = 800, 1.1e-9 at nu = 1000.
    """
    nu = _check_order(nu)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ConfigError("Bessel argument must be nonnegative")
    out = _j_groups([nu], arr, None)
    return float(out[0]) if scalar else out


def _derivative(orders, sizes, z: np.ndarray, jz: np.ndarray) -> np.ndarray:
    """J'_nu = J_{nu-1} - nu/z J_nu per group, with J_{nu-1} from its own
    grouped pass; J'_0 = -J_1 and J_{-1/2} is taken in closed form."""
    nu = np.repeat(orders, sizes)
    jm1 = np.empty_like(z)
    half = nu == 0.5
    if half.any():
        zh = z[half]
        jm1[half] = np.sqrt(2.0 / (math.pi * zh)) * np.cos(zh)
    rest = orders != 0.5
    if rest.any():
        down = [1.0 if o == 0 else o - 1.0 for o in orders[rest]]
        jm1[~half] = _j_groups(down, z[~half], sizes[rest])
    fp = jm1 - nu / z * jz
    zero = nu == 0
    fp[zero] = -jm1[zero]
    return fp


def _refine(orders, sizes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisection, then safeguarded Newton, on every bracket at once; bracket
    group g holds the next sizes[g] brackets, of order orders[g]."""
    lo = lo.copy()
    hi = hi.copy()
    flo = _j_groups(orders, lo, sizes)
    bad = flo == 0.0
    if np.any(bad):
        lo[bad] -= 1e-9
        flo = _j_groups(orders, lo, sizes)
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        fm = _j_groups(orders, mid, sizes)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    z = 0.5 * (lo + hi)
    for _ in range(4):
        f = _j_groups(orders, z, sizes)
        fp = _derivative(orders, sizes, z, f)
        step = np.where(fp != 0.0, f / np.where(fp != 0.0, fp, 1.0), 0.0)
        z = np.clip(z - step, lo, hi)
    return z


def _check_interlacing(orders, zeros, x_max: float) -> None:
    """DLMF 10.21(i) on consecutive orders: j_{nu,k} < j_{nu+1,k} < j_{nu,k+1},
    so below any x_max J_{nu+1} has n_nu - 1 or n_nu zeros."""
    for nu, mu, a, b in zip(orders, orders[1:], zeros, zeros[1:]):
        if mu != nu + 1.0:
            continue
        n, m = a.size, b.size
        if not (n - 1 <= m <= n and np.all(a[:m] < b) and np.all(b[: n - 1] < a[1:])):
            raise InvariantViolation(
                f"zeros of J_{nu} ({n}) and J_{mu} ({m}) below {x_max} do not interlace")


def _zeros_pass(orders, x_max: float) -> list[np.ndarray]:
    """The zeros below x_max of each of `orders` (checked), from one
    concatenated scan grid and one batched refinement of its brackets."""
    zeros = [np.empty(0) for _ in orders]
    live = [i for i, nu in enumerate(orders) if x_max > nu]
    if live:
        nus = [orders[i] for i in live]
        grids = [np.arange(max(nu, 1e-3), x_max + 2.0 * SCAN_STEP, SCAN_STEP) for nu in nus]
        ends = np.cumsum([g.size for g in grids])
        grid = np.concatenate(grids)
        vals = _j_groups(nus, grid, np.diff(ends, prepend=0))
        s = np.sign(vals)
        flip = (s[:-1] * s[1:] < 0) | (vals[:-1] == 0) | (vals[1:] == 0)
        flip[ends[:-1] - 1] = False  # the pairs that straddle two orders
        idx = np.flatnonzero(flip)
        sizes = np.bincount(np.searchsorted(ends, idx, "right"), minlength=len(live))
        has = sizes > 0
        zs = np.empty(0)
        if has.any():
            zs = _refine(np.array(nus)[has], sizes[has], grid[idx], grid[idx + 1])
        for i, z in zip(live, np.split(zs, np.cumsum(sizes)[:-1])):
            z = np.unique(z)
            zeros[i] = z[z < x_max]
    return zeros


def zeros_below_orders(orders, x_max: float) -> Iterator[np.ndarray]:
    """Yield, for each nu in `orders` in turn, all positive zeros of J_nu
    strictly below x_max.

    Each scan grid starts below its first zero (which exceeds nu) and its
    step SCAN_STEP is far below the minimal gap (> 3) between consecutive
    zeros, so sign-change bracketing is exhaustive. Consecutive orders
    share one batched pass while their grids start within the same window
    of PASS_POINTS grid points, and a pass runs only when its first order
    is asked for: memory stays bounded and a caller that stops early skips
    the later passes. Raises InvariantViolation if the zeros of
    consecutive orders do not interlace.
    """
    orders = [_check_order(nu) for nu in orders]
    runs, at = {}, 0.0
    for nu in orders:
        runs.setdefault(int(at // PASS_POINTS), []).append(nu)
        at += max(x_max - nu + 2.0, 0.0)  # about the size of nu's grid
    prev_nu, prev_z = [], []
    for run in runs.values():
        zeros = _zeros_pass(run, x_max)
        _check_interlacing(prev_nu + run, prev_z + zeros, x_max)
        prev_nu, prev_z = run[-1:], zeros[-1:]
        yield from zeros


def zeros_below(nu: float, x_max: float) -> np.ndarray:
    """All positive zeros of J_nu strictly below x_max, in order: the
    one-order call of `zeros_below_orders`."""
    return next(zeros_below_orders([nu], x_max))


def bessel_zeros(nu: float, count: int) -> np.ndarray:
    """The first `count` positive zeros of J_nu; against scipy for integer orders
    <= 90, within 2.5e-12 relative (3.6e-11 absolute at j_{2,4})."""
    nu = _check_order(nu)
    if count < 1:
        raise ConfigError(f"zero count must be >= 1, got {count}")
    # McMahon-style spacing estimate sizes the window; bracketing does the rest
    upper = nu + 2.0 * nu ** (1.0 / 3.0) + math.pi * (count + 2) + 10.0
    for _ in range(8):
        zs = zeros_below(nu, upper)
        if zs.size >= count:
            return zs[:count]
        upper *= 1.6
    raise ConfigError(f"failed to locate {count} zeros of J_{nu}")
