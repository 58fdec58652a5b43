"""Bessel functions of the first kind and their positive zeros.

J_nu is evaluated for integer and half-integer orders nu >= 0 by one of
three routes chosen per point:

  * ascending power series where its largest term stays small enough that
    cancellation cannot eat the 1e-10 absolute-accuracy target;
  * upward three-term recurrence from J_0, J_1 (or J_{1/2}, J_{3/2} in the
    half-integer ladder) when x >= nu, the regime where that recurrence is
    stable; J_0, J_1 themselves come from one pass of the large-argument
    (Hankel) expansion, since the series covers every x <= 14;
  * downward (Miller) recurrence with Neumann-series normalization when
    x < nu and the series is unsafe.

The route choice estimates the largest series term with math.lgamma
values read from one table, indexed by twice the (half-)integer argument
and grown by doubling up to LGAMMA_TABLE_BUDGET entries; larger arguments
take one lgamma call per distinct value. The series' first term reads the
same table.

The evaluator takes one order per point. The series and the Hankel
expansion stop each point on its own terms, and Miller rescales each
point on its own, so a value never depends on the rest of its batch: it
is bitwise that of a `bessel_j` call on its point alone. One upward
recurrence to the largest order picks up J_nu at each point's own order.

Zeros of many orders are found together, in batched passes over runs of
consecutive orders of about PASS_POINTS grid points each (one order's
grid is never split): a scan for sign changes on a unit-step grid per
order (the gap between consecutive zeros of any J_nu exceeds 3, so no
zero can be skipped), then bisection plus safeguarded Newton refinement
of every bracket of the pass at once, each with its own order. Because a
value does not depend on its batch, the refinement evaluates the points
of several steps in one call (see `_refine`): at most 9 `_j` calls after
the scan's one, each zero bitwise that of one step at a time.
Consecutive orders are checked to interlace. Asymptotic spacing
estimates are used only to size the scan window.

Zeros found once are kept for the process, in one table that maps each
order to the largest x_max scanned so far and its zeros below it. An
order's scan grid, `arange(max(nu, 1e-3), x_max + 2 SCAN_STEP, SCAN_STEP)`,
has the same points for every x_max, and each bracket is refined on its
own, so the zeros below x <= X are bitwise a prefix of the zeros below
X. A request reads each order's entry once: an order the table covers is
served as `stored[stored < x]`, a new array, and only the other orders of
a pass are scanned. The interlacing check runs on every request, stored
zeros included, and a pass's new zeros enter the table only after they
pass it against each neighbouring order of the request: the last order
of a pass waits for the next pass's check, unless its pass is the
request's last. New zeros that would take the table over
ZERO_TABLE_BUDGET zeros are returned and not stored. A request past an
order's stored x_max extends the entry: the order's grid starts at its
last point below that x_max, and the zeros of those brackets from x_max
on are appended to the stored ones, which by the same prefix property
are bitwise a scan of the whole grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import ConfigError, InvariantViolation

# Series is used only while its largest term stays below exp() of this,
# keeping the cancellation error near 1e5 * eps ~ 2e-11. The induced
# switchover point is close to x = 12 + 2 nu for small orders; tunable.
_SERIES_LOG_GUARD = math.log(1e5)

SCAN_STEP = 1.0  # zero scan; must stay below the minimal zero gap (> 3) to skip none
PASS_POINTS = 1 << 16  # scan-grid points per batched zero pass; bounds its memory
ZERO_TABLE_BUDGET = 1 << 20  # zeros the process keeps (8 MB); a pass over it is not stored
LGAMMA_TABLE_BUDGET = 1 << 18  # lgamma(i/2) entries kept (2 MB): arguments up to 2^17

# order -> (largest x_max scanned, its certified zeros below that x_max)
_ZERO_TABLE: dict[float, tuple[float, np.ndarray]] = {}
# entry i is math.lgamma(i / 2); grown by doubling up to LGAMMA_TABLE_BUDGET
_LGAMMA = np.full(1, math.inf)


def _lgamma(a: np.ndarray) -> np.ndarray:
    """math.lgamma at integer or half-integer points a >= 1/2, bitwise: read
    from a table indexed by 2a while 2a < LGAMMA_TABLE_BUDGET, else one
    call per distinct value."""
    global _LGAMMA
    out = np.empty_like(a)
    near = 2.0 * a < LGAMMA_TABLE_BUDGET
    idx = (2.0 * a[near]).astype(np.intp)
    if idx.size and idx.max() >= _LGAMMA.size:
        size = min(LGAMMA_TABLE_BUDGET, 1 << int(idx.max()).bit_length())
        _LGAMMA = np.concatenate(
            [_LGAMMA, [math.lgamma(0.5 * i) for i in range(_LGAMMA.size, size)]])
    out[near] = _LGAMMA[idx]
    if not near.all():
        far, inv = np.unique(a[~near], return_inverse=True)
        out[~near] = np.array([math.lgamma(v) for v in far.tolist()])[inv]
    return out


def _check_order(nu: float) -> float:
    nu = float(nu)
    if nu < 0 or not float(2 * nu).is_integer():
        raise ConfigError(
            f"Bessel order must be a nonnegative integer or half-integer, got {nu}"
        )
    return nu


def _series(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ascending series, with one order per point. Each point stops on its
    own term. Caller guarantees cancellation safety and x > 0."""
    h = 0.5 * x
    log_t0 = nu * np.log(h) - _lgamma(nu + 1.0)
    term = np.where(log_t0 < -745.0, 0.0, np.exp(np.clip(log_t0, -745.0, None)))
    total = term.copy()
    h2 = h * h
    out = np.empty_like(x)
    pos = np.arange(x.size)  # batch slots of the points still summing
    for k in range(300):
        term = -term * h2 / ((k + 1.0) * (nu + k + 1.0))
        total += term
        done = np.abs(term) <= 1e-17 * (np.abs(total) + 1e-300)
        n_done = np.count_nonzero(done)
        if n_done:
            out[pos[done]] = total[done]
            if n_done == pos.size:
                return out
            keep = np.flatnonzero(~done)
            pos, term, total, h2, nu = pos[keep], term[keep], total[keep], h2[keep], nu[keep]
    out[pos] = total
    return out


def _hankel(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Large-argument expansion with one order per point, adequate for nu
    in {0, 1} and x > 14: `_upward` sums J_0 and J_1 in one pass. Each
    point stops where its own terms start to grow or become negligible,
    and its mu = 4 nu^2 enters only its own terms, so a value is bitwise
    that of a pass over its point alone. The upward route only reaches
    x > 14: below that the series is safe for every order."""
    mu = 4.0 * nu * nu
    with np.errstate(over="ignore"):  # 8x = inf above 2.2e307, where every c is then 0
        eight_x = 8.0 * x
    c = np.ones_like(x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    p_out, q_out = np.empty_like(x), np.empty_like(x)
    pos = np.arange(x.size)  # batch slots of the points still summing
    prev = np.full_like(x, np.inf)
    small = np.zeros(x.size, dtype=bool)  # the last term added was negligible
    for m in range(1, 40):
        c = c * (mu - (2 * m - 1) ** 2) / (m * eight_x)
        mag = np.abs(c)
        done = small | (mag > prev)  # or the asymptotic tail started to diverge
        n_done = np.count_nonzero(done)
        if n_done:
            p_out[pos[done]], q_out[pos[done]] = p[done], q[done]
            if n_done == pos.size:
                break
            keep = np.flatnonzero(~done)
            pos, p, q, c, mag, eight_x, mu = (
                a[keep] for a in (pos, p, q, c, mag, eight_x, mu))
        prev = mag
        acc = q if m % 2 else p
        if (m // 2) % 2:
            acc -= c
        else:
            acc += c
        small = mag < 1e-17
    p_out[pos], q_out[pos] = p, q
    omega = x - (0.5 * nu + 0.25) * math.pi
    return _amplitude(x) * (np.cos(omega) * p_out - np.sin(omega) * q_out)


def _amplitude(x: np.ndarray) -> np.ndarray:
    """sqrt(2 / (pi x)); 0 where pi x overflows (x > 5.7e307, a value < 1.1e-154)."""
    with np.errstate(over="ignore"):
        return np.sqrt(2.0 / (math.pi * x))


def _half_base(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pref = _amplitude(x)
    return pref * np.sin(x), pref * (np.sin(x) / x - np.cos(x))


def _climb(nu: np.ndarray, x, jm1, j, order: float) -> np.ndarray:
    """Upward recurrence from jm1 = J_{order-1}, j = J_order to J_nu, with
    one order per point, all on the same ladder."""
    # sorted by order, the points still climbing are a shrinking suffix
    perm = nu.argsort(kind="stable")
    nu, x, jm1, j = nu[perm], x[perm], jm1[perm], j[perm]
    # ends[i]: the number of points of order <= order - 1 + i
    ends = nu.searchsorted(np.arange(order - 1.0, nu[-1] + 1.0), "right").tolist()
    res = np.empty_like(x)
    base = ends[0]
    res[:base] = jm1[:base]
    x, jm1, j = x[base:], jm1[base:], j[base:]
    for top in ends[1:]:
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


def _upward(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu for x >= nu by upward recurrence along each point's ladder."""
    out = np.empty_like(x)
    whole = np.floor(nu) == nu
    if whole.any():
        xs = x[whole]
        j01 = _hankel(np.repeat([0.0, 1.0], xs.size), np.concatenate([xs, xs]))
        out[whole] = _climb(nu[whole], xs, j01[: xs.size], j01[xs.size:], 1.0)
    half = ~whole
    if half.any():
        xs = x[half]
        out[half] = _climb(nu[half], xs, *_half_base(xs), 1.5)
    return out


def _miller(nu: float, x: np.ndarray) -> np.ndarray:
    """Downward recurrence for x < nu; 60 guard orders give full accuracy.
    Each point is rescaled on its own."""
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
        big = np.abs(j) > 1e250
        if big.any():
            jp[big] *= 1e-250
            j[big] *= 1e-250
            neumann[big] *= 1e-250
            if target is not None:
                target[big] *= 1e-250
            if low1 is not None:
                low1[big] *= 1e-250
    if half:
        low0 = j
        e0, e1 = _half_base(x)
        use0 = np.abs(e0) >= np.abs(e1)
        denom = np.where(use0, low0, low1)
        scale = np.where(use0, e0, e1) / denom
    else:
        scale = 1.0 / (2.0 * neumann + j)  # j is the unnormalized J_0
    return target * scale


def _series_safe(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per point x > 0: is the largest term of the ascending series at most
    exp(_SERIES_LOG_GUARD)? For nu < x it is not from x = 2^500 on, so x is
    capped there, which keeps x * x finite."""
    x = np.minimum(x, 2.0**500)
    h = 0.5 * x
    kstar = np.maximum(0.0, 0.5 * (-(nu + 2.0) + np.sqrt(nu * nu + x * x)))
    k = np.round(kstar)
    log_max = (nu + 2 * k) * np.log(h) - _lgamma(k + 1.0) - _lgamma(nu + k + 1.0)
    return log_max <= _SERIES_LOG_GUARD


def _j(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J at points x >= 0, where nu holds one checked order per point. A
    point's value does not depend on the other points of the batch."""
    out = np.empty_like(x)
    zero = x == 0.0
    out[zero] = nu[zero] == 0  # J_0(0) = 1, J_nu(0) = 0 otherwise
    pos = ~zero
    if pos.any():
        xp, nup = x[pos], nu[pos]
        res = np.empty_like(xp)
        m_series = _series_safe(nup, xp)
        m_up = ~m_series & (xp >= nup)
        m_down = ~m_series & ~m_up
        if m_series.any():
            res[m_series] = _series(nup[m_series], xp[m_series])
        if m_up.any():
            res[m_up] = _upward(nup[m_up], xp[m_up])
        if m_down.any():
            for o in np.unique(nup[m_down]):  # Miller runs once per order
                at = m_down & (nup == o)
                res[at] = _miller(o, xp[at])
        out[pos] = res
    return out


def bessel_j(nu: float, x) -> float | np.ndarray:
    """J_nu(x) for integer/half-integer nu >= 0 and finite x >= 0.

    Measured against scipy.special.jv over x in [0, 1e3]: absolute error at
    most 3.5e-11 for nu <= 600. Above that it grows near the route switch at
    x = nu: 6e-11 at nu = 700, 1.9e-10 at nu = 800, 1.1e-9 at nu = 1000.
    """
    nu = _check_order(nu)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not (np.isfinite(arr) & (arr >= 0)).all():
        raise ConfigError("Bessel argument must be finite and nonnegative")
    out = _j(np.full(arr.shape, nu), arr)
    return float(out[0]) if scalar else out


def _value_and_slope(nu: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_nu(z), J'_nu(z)) per point from one `_j` call on J_nu and J_{nu-1}
    together: J'_nu = J_{nu-1} - nu/z J_nu, J'_0 = -J_1, and J_{-1/2} is
    taken in closed form."""
    n = z.size
    half = nu == 0.5
    rest = np.flatnonzero(~half)
    nr = nu[rest]
    both = _j(np.concatenate([nu, np.where(nr == 0, 1.0, nr - 1.0)]),
              np.concatenate([z, z[rest]]))
    jz = both[:n]
    jm1 = np.empty_like(z)
    jm1[rest] = both[n:]
    if half.any():
        zh = z[half]
        jm1[half] = _amplitude(zh) * np.cos(zh)
    fp = jm1 - nu / z * jz
    zero = nu == 0
    fp[zero] = -jm1[zero]
    return jz, fp


def _halve(same, mid, fm, lo, flo, hi):
    """One bisection step: keep the half whose ends differ in sign."""
    return np.where(same, mid, lo), np.where(same, fm, flo), np.where(same, hi, mid)


def _refine(nu: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray) -> np.ndarray:
    """Ten bisections, then four safeguarded Newton steps, on every bracket
    at once; nu holds each bracket's order and flo = J_nu(lo), the scan's
    value at the bracket's left end.

    A `_j` value does not depend on its batch, so the points of several
    steps share one call while every iterate keeps the bytes of one step
    at a time:
      * only a zero flo is nudged left and evaluated again;
      * a call evaluates mid = 0.5(lo + hi) and both candidates for the
        next midpoint, 0.5(lo + mid) and 0.5(mid + hi): whichever half the
        first sign test keeps, its midpoint is one of these two floats, so
        both sign tests replay in order (5 calls for 10 levels);
      * a Newton step takes J_nu and J_{nu-1} from one call;
      * a bracket whose step left z unchanged drops out, because each
        later step would recompute the same z from the same inputs.
    That is at most 9 `_j` calls, 10 if a scan value was zero.
    """
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    bad = np.flatnonzero(flo == 0.0)
    if bad.size:
        lo[bad] -= 1e-9
        flo[bad] = _j(nu[bad], lo[bad])
    n = lo.size
    nu3 = np.tile(nu, 3)
    for _ in range(5):
        mid = 0.5 * (lo + hi)
        left, right = 0.5 * (lo + mid), 0.5 * (mid + hi)
        f = _j(nu3, np.concatenate([mid, left, right]))
        same = np.sign(f[:n]) == np.sign(flo)
        lo, flo, hi = _halve(same, mid, f[:n], lo, flo, hi)
        mid, fm = np.where(same, right, left), np.where(same, f[2 * n:], f[n: 2 * n])
        lo, flo, hi = _halve(np.sign(fm) == np.sign(flo), mid, fm, lo, flo, hi)
    z = 0.5 * (lo + hi)
    act = np.arange(n)  # the brackets whose last Newton step moved z
    for _ in range(4):
        za = z[act]
        f, fp = _value_and_slope(nu[act], za)
        step = np.where(fp != 0.0, f / np.where(fp != 0.0, fp, 1.0), 0.0)
        z[act] = zn = np.clip(za - step, lo[act], hi[act])
        act = act[zn != za]
        if not act.size:
            break
    return z


def _check_interlacing(orders, zeros, x_max: float) -> None:
    """DLMF 10.21(i) on consecutive orders: j_{nu,k} < j_{nu+1,k} < j_{nu,k+1},
    so below any x_max J_{nu+1} has n_nu - 1 or n_nu zeros.

    One test over the concatenated zeros: in it, J_{nu+1}'s k-th zero sits
    n_nu places after J_nu's, so each zero of the higher order is compared
    with the two zeros of the lower order at that distance. Pairs whose
    orders do not differ by 1 are skipped; the first failing pair is named.
    """
    sizes, nus = np.array([z.size for z in zeros]), np.array(orders)
    pairs = np.flatnonzero(nus[1:] == nus[:-1] + 1.0)  # J_nu, J_{nu+1} at pairs, pairs + 1
    n, m = sizes[pairs], sizes[pairs + 1]
    bad = (m < n - 1) | (m > n)
    if pairs.size:
        flat = np.concatenate(zeros)
        ok = ~bad  # compare the zeros of the pairs with consistent counts only
        pair = np.repeat(np.flatnonzero(ok), m[ok])  # per zero of the higher order
        k = np.arange(pair.size) - np.repeat(np.cumsum(m[ok]) - m[ok], m[ok])  # its rank
        at = np.repeat(np.cumsum(sizes)[pairs[ok]], m[ok]) + k  # its place in flat
        gap = n[pair]  # J_nu's zeros k and k + 1 are gap and gap - 1 places back
        inside = (flat[at - gap] < flat[at]) & ((k >= gap - 1) | (flat[at] < flat[at - gap + 1]))
        bad[pair[~inside]] = True
    if bad.any():
        i = pairs[np.argmax(bad)]
        raise InvariantViolation(
            f"zeros of J_{orders[i]} ({sizes[i]}) and J_{orders[i + 1]} ({sizes[i + 1]}) "
            f"below {x_max} do not interlace")


def _zeros_pass(orders, x_max: float, entries) -> list[np.ndarray]:
    """The zeros below x_max of each of `orders` (checked), from one
    concatenated scan grid and one batched refinement of its brackets.

    entries[i] is None or the table's (x0, zeros below x0) for orders[i],
    with x0 < x_max. In the latter case that order's grid is cut to
    start at its last point below x0: the brackets before it hold no zero
    at or above x0, and each bracket is refined on its own, so the new
    zeros in [x0, x_max) appended to the stored ones are bitwise those of
    scanning the whole grid.
    """
    zeros = [np.empty(0) for _ in orders]
    live = [i for i, nu in enumerate(orders) if x_max > nu]
    if live:
        known = [entries[i] or (-math.inf, np.empty(0)) for i in live]
        grids = []
        for i, (x0, _) in zip(live, known):
            grid = np.arange(max(orders[i], 1e-3), x_max + 2.0 * SCAN_STEP, SCAN_STEP)
            grids.append(grid[max(grid.searchsorted(x0) - 1, 0):])
        ends = np.cumsum([g.size for g in grids])
        grid = np.concatenate(grids)
        nu = np.repeat([orders[i] for i in live], np.diff(ends, prepend=0))
        vals = _j(nu, grid)
        s = np.sign(vals)
        flip = (s[:-1] * s[1:] < 0) | (vals[:-1] == 0) | (vals[1:] == 0)
        flip[ends[:-1] - 1] = False  # the pairs that straddle two orders
        idx = np.flatnonzero(flip)
        zs = _refine(nu[idx], grid[idx], grid[idx + 1], vals[idx])
        counts = np.bincount(np.searchsorted(ends, idx, "right"), minlength=len(live))
        for i, (x0, old), z in zip(live, known, np.split(zs, np.cumsum(counts)[:-1])):
            z = np.unique(z)
            zeros[i] = np.concatenate([old, z[(z >= x0) & (z < x_max)]])
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
    the later passes. An order the zero table has scanned to x_max or
    beyond is served from it and takes no room in a pass; one scanned to
    some x0 < x_max is extended from x0 and counts only the points of its
    grid from x0 on. The interlacing check runs on every order's whole
    zeros, stored ones included. Raises InvariantViolation if the zeros of
    consecutive orders do not interlace, and then stores none of the new
    ones that the check has not passed.
    """
    orders = [_check_order(nu) for nu in orders]
    entries = {nu: _ZERO_TABLE.get(nu) for nu in orders}  # the one table read per order
    runs, at = {}, 0.0
    for nu in orders:
        runs.setdefault(int(at // PASS_POINTS), []).append(nu)
        x0 = (entries[nu] or (-math.inf,))[0]
        if not x_max <= x0:  # not stored that far
            at += max(x_max - max(nu, x0) + 2.0, 0.0)  # about the size of nu's new grid
    runs = list(runs.values())
    prev_nu, prev_z, held = [], [], {}
    for r, run in enumerate(runs):
        # a new array of the stored zeros below x_max, or None if not stored that far
        zeros = [e[1][e[1] < x_max] if e and x_max <= e[0] else None for e in map(entries.get, run)]
        miss = [i for i, z in enumerate(zeros) if z is None]
        if miss:
            new = _zeros_pass([run[i] for i in miss], x_max, [entries[run[i]] for i in miss])
            for i, z in zip(miss, new):
                zeros[i] = z
        _check_interlacing(prev_nu + run, prev_z + zeros, x_max)
        found = held | {run[i]: zeros[i] for i in miss}
        # a run's last order is stored once it interlaces with the next run too
        held = {run[-1]: found.pop(run[-1])} if r + 1 < len(runs) and run[-1] in found else {}
        if found:
            _store(found, x_max)
        prev_nu, prev_z = run[-1:], zeros[-1:]
        yield from zeros


def _store(found: dict[float, np.ndarray], x_max: float) -> None:
    """Keep copies of certified zeros below x_max, replacing the entries of
    their orders, unless that takes the table over its budget."""
    kept = sum(z.size for nu, (_, z) in _ZERO_TABLE.items() if nu not in found)
    if kept + sum(z.size for z in found.values()) <= ZERO_TABLE_BUDGET:
        _ZERO_TABLE.update((nu, (x_max, z.copy())) for nu, z in found.items())


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
    # McMahon-style spacing estimate sets the window; bracketing does the rest
    upper = nu + 2.0 * nu ** (1.0 / 3.0) + math.pi * (count + 2) + 10.0
    for _ in range(8):
        zs = zeros_below(nu, upper)
        if zs.size >= count:
            return zs[:count]
        upper *= 1.6
    raise ConfigError(f"failed to locate {count} zeros of J_{nu}")
