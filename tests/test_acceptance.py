"""Acceptance suite: one check per shipped capability, each printing a
single PASS/FAIL line with its runtime. Runnable under pytest or directly
(`python tests/test_acceptance.py`).
"""

import math
import sys
import time
from functools import lru_cache

import numpy as np

from weylkit.constants import TWO_PI, constants, phase_space_integral
from weylkit.domains import Box, Disk, HalfSpace, lshape_polygon, square
from weylkit.fdlap import assemble, count_below, eigenvalues_below
from weylkit.functionals import berezin_check, fit_second_term, sweep
from weylkit.halfspace import (
    boundary_coefficient,
    cosine_integral,
    density_profile,
    tail_bound_check,
)
from weylkit.localization import (
    ScaleFunction,
    mapped_volume_mc,
    normalization_check,
    scale_integral_slopes,
    surface_defect_slope,
)
from weylkit.spectra import box_spectrum, disk_spectrum

H_GRID = tuple(float(h) for h in np.geomspace(0.1, 0.003, 20))
CUTOFF = 1.01 / min(H_GRID) ** 2
SEED = 20240


@lru_cache(maxsize=None)
def square_sweep():
    dom = square(1.0)
    spec = box_spectrum((1.0, 1.0), CUTOFF)
    return dom, spec, sweep(dom, spec, H_GRID)


@lru_cache(maxsize=None)
def disk_sweep():
    dom = Disk(1.0)
    spec = disk_spectrum(1.0, CUTOFF)
    return dom, spec, sweep(dom, spec, H_GRID)


@lru_cache(maxsize=None)
def box12_sweep():
    dom = Box((1.0, 2.0))
    spec = box_spectrum((1.0, 2.0), CUTOFF)
    return dom, spec, sweep(dom, spec, H_GRID)


def _report(num: str, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.2f}s) {detail}", flush=True)


# ---------------------------------------------------------------------------


def _criterion_1():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 7):
        c = constants(d)
        worst = max(
            worst,
            abs(c.C_d - phase_space_integral(d, 0) / TWO_PI**d) / c.C_d,
            abs(c.L_d - phase_space_integral(d, 1) / TWO_PI**d) / c.L_d,
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    return ok, elapsed, f"constants vs quadrature oracle, d=1..6: worst rel dev {worst:.2e}"


def test_criterion_1_constants_cross_check():
    ok, elapsed, detail = _criterion_1()
    _report("1", ok, elapsed, detail)
    assert ok, detail


def _criterion_2():
    t0 = time.perf_counter()
    dom, spec, sw = square_sweep()
    rep = fit_second_term(sw)
    target = 2.0 / (3.0 * math.pi)
    rel = abs(rep.fitted_second_coefficient - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel < 0.05 and elapsed < 60.0
    return ok, elapsed, (
        f"unit square ({len(spec)} eigenvalues): fitted {rep.fitted_second_coefficient:.6f} "
        f"vs 2/(3 pi)={target:.6f}, rel dev {rel:.3%}"
    )


def test_criterion_2_square_two_term():
    ok, elapsed, detail = _criterion_2()
    _report("2", ok, elapsed, detail)
    assert ok, detail


def _criterion_3():
    t0 = time.perf_counter()
    dom, spec, sw = disk_sweep()
    rep = fit_second_term(sw)
    target = 1.0 / 3.0
    rel = abs(rep.fitted_second_coefficient - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel < 0.05 and elapsed < 300.0
    return ok, elapsed, (
        f"unit disk ({len(spec)} eigenvalues incl. zero-finding): fitted "
        f"{rep.fitted_second_coefficient:.6f} vs 1/3, rel dev {rel:.3%}"
    )


def test_criterion_3_disk_two_term():
    ok, elapsed, detail = _criterion_3()
    _report("3", ok, elapsed, detail)
    assert ok, detail


def _criterion_4():
    t0 = time.perf_counter()
    dom, _spec, sw = disk_sweep()
    rep = fit_second_term(sw)
    bound = -(2.0 / 3.0) - 0.2
    elapsed = time.perf_counter() - t0
    ok = rep.fitted_remainder_exponent >= bound
    return ok, elapsed, (
        f"disk remainder exponent {rep.fitted_remainder_exponent:.3f} >= {bound:.4f} "
        "(decay no slower than the alpha=1 guarantee)"
    )


def test_criterion_4_remainder_order():
    ok, elapsed, detail = _criterion_4()
    _report("4", ok, elapsed, detail)
    assert ok, detail


def _criterion_5():
    t0 = time.perf_counter()
    msgs = []
    ok = True
    cases = zip(("unit square", "unit disk", "box 1x2"), (square_sweep(), disk_sweep(), box12_sweep()))
    for name, (dom, spec, sw) in cases:
        margins = berezin_check(spec, dom, H_GRID)  # raises if any negative
        h_min, margin_min = margins[-1]
        scaled = margin_min * h_min ** (dom.dim - 1)
        target = 0.25 * constants(dom.dim - 1).L_d * dom.surface
        rel = abs(scaled - target) / target
        ok = ok and rel < 0.10
        msgs.append(f"{name}: all margins > 0, margin*h={scaled:.5f} vs {target:.5f} ({rel:.2%})")
    elapsed = time.perf_counter() - t0
    return ok, elapsed, "; ".join(msgs)


def test_criterion_5_berezin():
    ok, elapsed, detail = _criterion_5()
    _report("5", ok, elapsed, detail)
    assert ok, detail


def _criterion_6():
    t0 = time.perf_counter()
    bc2 = boundary_coefficient(2, 200.0)
    bc3 = boundary_coefficient(3, 200.0)
    t2 = 1.0 / (6.0 * math.pi)
    t3 = 0.25 * constants(2).L_d  # = 1/(32 pi)
    dev2 = abs(bc2 - t2)
    dev3 = abs(bc3 - t3)
    # dual evaluation at 15 (d, t) pairs; each call raises beyond 1e-8
    for d in (2, 3, 4):
        for t in (0.1, 1.0, 5.0, 10.0, 50.0):
            cosine_integral(d, t)
    elapsed = time.perf_counter() - t0
    ok = dev2 < 1e-4 and dev3 < 1e-4
    return ok, elapsed, (
        f"boundary coefficient: d=2 dev {dev2:.2e} from 1/(6 pi); d=3 dev {dev3:.2e} "
        f"from (1/4)L_2={t3:.6f}; dual evaluation clean at 15 (d,t) pairs"
    )


def test_criterion_6_halfspace_identity():
    ok, elapsed, detail = _criterion_6()
    _report("6", ok, elapsed, detail)
    assert ok, detail


def _criterion_7():
    t0 = time.perf_counter()
    wall = density_profile(2, 0.0)
    bulk_dev = abs(density_profile(2, 100.0) - constants(2).L_d)
    tails = [tail_bound_check(2, 100.0), tail_bound_check(2, 400.0)]
    stable = abs(tails[0] - tails[1])
    elapsed = time.perf_counter() - t0
    ok = wall == 0.0 and bulk_dev < 1e-3 and all(map(math.isfinite, tails)) and stable < 1e-3
    return ok, elapsed, (
        f"rho(0)={wall!r}, |rho(100)-L_2|={bulk_dev:.2e}, t-weighted tail "
        f"{tails[1]:.6f} stable to {stable:.2e} between horizons 100 and 400"
    )


def test_criterion_7_halfspace_density():
    ok, elapsed, detail = _criterion_7()
    _report("7", ok, elapsed, detail)
    assert ok, detail


def _collar_samples(domain, l0, n_in, n_out, rng):
    ts = rng.uniform(0.0, 1.0, size=max(n_in, n_out))
    deltas_in = rng.uniform(0.05 * l0, 0.95 * l0, size=n_in)
    deltas_out = rng.uniform(0.05 * l0, 0.95 * l0, size=n_out)
    pts = []
    if isinstance(domain, Box):
        a = domain.sides
        for k in range(n_in):
            side = k % 4
            t = ts[k]
            d = deltas_in[k]
            pts.append(
                [
                    (d, t * a[1]),
                    (a[0] - d, t * a[1]),
                    (t * a[0], d),
                    (t * a[0], a[1] - d),
                ][side]
            )
        for k in range(n_out):
            side = k % 4
            t = ts[k]
            d = deltas_out[k]
            pts.append(
                [
                    (-d, t * a[1]),
                    (a[0] + d, t * a[1]),
                    (t * a[0], -d),
                    (t * a[0], a[1] + d),
                ][side]
            )
    elif isinstance(domain, Disk):
        for k in range(n_in):
            th = 2 * math.pi * ts[k]
            r = domain.radius - deltas_in[k]
            pts.append((r * math.cos(th), r * math.sin(th)))
        for k in range(n_out):
            th = 2 * math.pi * ts[k]
            r = domain.radius + deltas_out[k]
            pts.append((r * math.cos(th), r * math.sin(th)))
    else:  # half-space wall at x_d = 0
        for k in range(n_in):
            pts.append((2.0 * ts[k] - 1.0, deltas_in[k]))
        for k in range(n_out):
            pts.append((2.0 * ts[k] - 1.0, -deltas_out[k]))
    return np.array(pts)


def _uniform_samples(domain, n, rng, margin=0.4):
    if isinstance(domain, Box):
        lo = np.zeros(2) - margin
        hi = np.asarray(domain.sides) + margin
    elif isinstance(domain, Disk):
        lo = np.full(2, -domain.radius - margin)
        hi = np.full(2, domain.radius + margin)
    else:
        lo = np.array([-1.0, -margin])
        hi = np.array([1.0, 1.0])
    return rng.uniform(lo, hi, size=(n, 2))


def _criterion_8():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    domains = {"square": square(1.0), "disk": Disk(1.0), "halfspace": HalfSpace(2)}
    worst_norm = 0.0
    for name, dom in domains.items():
        for l0 in (0.1, 0.05):
            sf = ScaleFunction(dom, l0)
            xs = np.concatenate(
                [
                    _uniform_samples(dom, 40, rng),
                    _collar_samples(dom, l0, 30, 30, rng),
                ]
            )
            assert len(xs) == 100
            for x in xs:
                val = normalization_check(sf, x, tol=1e-3)
                worst_norm = max(worst_norm, abs(val - 1.0))
    norm_ok = worst_norm < 1e-3

    bounds_ok = True
    for dom in domains.values():
        for l0 in (0.1, 0.05):
            sf = ScaleFunction(dom, l0)
            u = _uniform_samples(dom, 100000, rng, margin=0.8)
            l = np.asarray(sf.scale(u))
            dist = np.asarray(dom.distance_to_complement(u))
            b1 = np.all(l >= l0 / 4 - 1e-15)
            b2 = np.all(l >= 0.25 * np.minimum(dist, 1.0) - 1e-15)
            b3 = np.all(l <= 0.5 + 1e-15)
            touch = np.asarray(dom.distance_to_boundary(u)) <= l
            b4 = np.all(l[touch] <= l0 / math.sqrt(3.0) + 1e-14)
            bounds_ok = bounds_ok and b1 and b2 and b3 and b4

    l0s = (0.2, 0.1, 0.05, 0.025)
    s1, s2_neg_d = scale_integral_slopes(Disk(1.0), -2.0, l0s)
    _, s2_zero = scale_integral_slopes(Disk(1.0), 0.0, l0s)
    slopes_ok = abs(s1 + 1.0) < 0.15 and abs(s2_neg_d + 1.0) < 0.15 and abs(s2_zero - 1.0) < 0.15

    elapsed = time.perf_counter() - t0
    ok = norm_ok and bounds_ok and slopes_ok and elapsed < 600.0
    return ok, elapsed, (
        f"normalization worst |dev| {worst_norm:.2e} over 600 points (3 domains x 2 l0 "
        f"x 100 incl. collars); scale bounds hold at 1e5 points/domain: {bounds_ok}; "
        f"U-integral slopes {s1:.3f}/{s2_neg_d:.3f}/{s2_zero:.3f} vs -1/-1/+1"
    )


def test_criterion_8_localization():
    ok, elapsed, detail = _criterion_8()
    _report("8", ok, elapsed, detail)
    assert ok, detail


def _criterion_9():
    t0 = time.perf_counter()
    from weylkit.localization import holder_chart

    ch = holder_chart(0.5, 1.0, 0.2)
    est, se = mapped_volume_mc(ch, [-0.1, 0.0], [0.1, 0.2], n=10**6, seed=SEED)
    vol_dev = abs(est - 0.04)
    mc_ok = vol_dev <= 3.0 * se
    slopes = {a: surface_defect_slope(1.0, a, [0.2, 0.1, 0.05]) for a in (0.5, 1.0)}
    slope_ok = all(abs(slopes[a] - (1.0 + 2.0 * a)) < 0.2 for a in slopes)
    elapsed = time.perf_counter() - t0
    ok = mc_ok and slope_ok
    return ok, elapsed, (
        f"MC volume {est:.6f} vs 0.04 within {vol_dev / se:.2f} stderr at 1e6 samples; "
        f"defect slopes alpha=0.5: {slopes[0.5]:.3f} (want 2), alpha=1: {slopes[1.0]:.3f} (want 3)"
    )


def test_criterion_9_straightening():
    ok, elapsed, detail = _criterion_9()
    _report("9", ok, elapsed, detail)
    assert ok, detail


def _criterion_10a():
    t0 = time.perf_counter()
    from weylkit.domains import Polygon

    grids = (
        assemble(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 1 / 32),
        assemble(lshape_polygon(1.0), 1 / 32),
    )
    rng = np.random.default_rng(SEED)
    ok = True
    checked = 0
    for op in grids:
        assert op.dim <= 2000
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        for thr in rng.uniform(dense[0] * 0.5, dense[-1] * 1.05, 20):
            ok = ok and count_below(op, float(thr)) == int((dense < thr).sum())
            checked += 1
    elapsed = time.perf_counter() - t0
    return ok, elapsed, (
        f"inertia vs dense-solver counts: {checked} thresholds on grids of dim "
        f"{[op.dim for op in grids]}, all equal: {ok}"
    )


def test_criterion_10_inertia_oracle():
    ok, elapsed, detail = _criterion_10a()
    _report("10a", ok, elapsed, detail)
    assert ok, detail
    assert elapsed < 120.0, f"criterion 10a took {elapsed:.1f}s"


def _criterion_10b():
    t0 = time.perf_counter()
    op = assemble(lshape_polygon(1.0), 1 / 64)
    ev = eigenvalues_below(op, 200.0)
    count = len(ev)
    target = constants(2).C_d * 0.75 * 200.0
    rel = abs(count - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel < 0.15
    return ok, elapsed, (
        f"L-shape count below 200 at step 1/64: {count} vs leading-order "
        f"{target:.2f}, rel dev {rel:.1%} (boundary correction "
        f"-C_1 |dOmega| sqrt(200)/4 = {-0.25 * constants(1).C_d * 4.0 * math.sqrt(200.0):.2f} "
        "is 38% of the leading term at this threshold)"
    )


def test_criterion_10_lshape_weyl_count():
    ok, elapsed, detail = _criterion_10b()
    _report("10b", ok, elapsed, detail)
    assert ok, detail


CRITERIA = [
    ("1", _criterion_1),
    ("2", _criterion_2),
    ("3", _criterion_3),
    ("4", _criterion_4),
    ("5", _criterion_5),
    ("6", _criterion_6),
    ("7", _criterion_7),
    ("8", _criterion_8),
    ("9", _criterion_9),
    ("10a", _criterion_10a),
    ("10b", _criterion_10b),
]


def main() -> int:
    failures = 0
    for num, fn in CRITERIA:
        ok, elapsed, detail = fn()
        _report(num, ok, elapsed, detail)
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
