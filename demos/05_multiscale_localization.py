"""Multiscale localization over the unit disk.

The ball radius l(u) shrinks from 1/2 in the bulk to ~l0 near the
boundary. The partition functions phi_u built over this scale satisfy
int phi_u^2(x) l(u)^{-d} du = 1 at every x, which is checked here by
adaptive quadrature at interior, collar, and exterior points.
"""

from pathlib import Path

import numpy as np

from weylkit import (
    Disk,
    ScaleFunction,
    dump_diagnostics,
    normalization_check,
    scale_integral_slopes,
)

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

domain = Disk(1.0)
sf = ScaleFunction(domain, l0=0.1)

print("scale along a radius (l0 = 0.1):")
for r in (0.0, 0.5, 0.8, 0.95, 1.0, 1.05):
    u = np.array([[r, 0.0]])
    print(f"  |u|={r:4.2f}  d(u)={float(sf.domain.distance_to_complement(u)[0]):6.3f}  l(u)={float(sf.scale(u)[0]):.5f}")

print("\nnormalization of the partition family at selected points:")
for label, x in (
    ("deep interior", np.array([0.0, 0.0])),
    ("collar, inside", np.array([0.95, 0.0])),
    ("on the boundary", np.array([1.0, 0.0])),
    ("outside, within l0", np.array([1.05, 0.0])),
):
    val = normalization_check(sf, x, tol=1e-3)
    print(f"  {label:20s} integral = {val:.6f}  (|dev| {abs(val - 1):.1e})")

print("\ncollar-integral scalings against l0 (log-log slopes):")
s1, s2 = scale_integral_slopes(domain, -2.0, [0.2, 0.1, 0.05, 0.025])
print(f"  interior integral of l^-2: slope {s1:+.3f} (theory -1)")
print(f"  collar integral of l^-2:   slope {s2:+.3f} (theory -1)")
_, s2 = scale_integral_slopes(domain, 0.0, [0.2, 0.1, 0.05, 0.025])
print(f"  collar measure:            slope {s2:+.3f} (theory +1)")

g = np.linspace(-1.2, 1.2, 41)
pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
dump_diagnostics(sf, pts, OUT / "localization_diag.csv")
print(f"\nwrote {OUT/'localization_diag.csv'} (columns u1,u2,l,flag)")
