"""Two-term asymptotics on the unit disk, the smooth-boundary case.

Disk eigenvalues are squares of Bessel zeros j_{nu,k} with multiplicity 2
for nu >= 1. The boundary coefficient of the Riesz mean is
(1/4) L_1 * 2 pi = 1/3 exactly, and the Berezin-Li-Yau margin
L_2 |Omega| h^-2 - Tr(H)_- stays positive at every h while its rescaled
limit recovers the boundary term.
"""

import numpy as np

from weylkit import Disk, berezin_check, disk_spectrum, fit_second_term, sweep

h_grid = np.geomspace(0.1, 0.005, 16)
cutoff = 1.01 / h_grid.min() ** 2
domain = Disk(1.0)
spectrum = disk_spectrum(1.0, cutoff)
print(f"spectrum: {len(spectrum)} eigenvalues below {cutoff:.0f} (zero-finding included)")
print(f"first five: {np.round(spectrum.eigenvalues[:5], 4)}")

result = sweep(domain, spectrum, h_grid)
report = fit_second_term(result)
print(f"\nfitted second coefficient:  {report.fitted_second_coefficient:.6f}")
print(f"predicted value (exact 1/3): {report.predicted_second_coefficient:.6f}")

margins = berezin_check(spectrum, domain, h_grid)
print("\nBerezin margins (all must be positive); margin*h tends to 1/3:")
for h, m in margins[:: max(1, len(margins) // 6)]:
    print(f"  h={h:8.5f}  margin={m:12.5f}  margin*h={m * h:.6f}")
