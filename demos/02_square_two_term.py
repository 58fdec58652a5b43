"""Two-term Riesz-mean asymptotics on the unit square.

Enumerates the exact spectrum pi^2 (m^2 + n^2) below the sweep cutoff,
evaluates the Riesz mean along a logarithmic h grid, and fits the
boundary coefficient from the one-term residuals. The fitted value should
land on (1/4) L_1 |boundary| = 2/(3 pi) ~ 0.21221.
"""

from pathlib import Path

import numpy as np

from weylkit import box_spectrum, fit_second_term, square, sweep, sweep_to_csv, fit_to_json
from weylkit.output import write

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

h_grid = np.geomspace(0.1, 0.005, 16)
cutoff = 1.01 / h_grid.min() ** 2
domain = square(1.0)
spectrum = box_spectrum(domain.sides, cutoff)
print(f"spectrum: {len(spectrum)} eigenvalues below {cutoff:.0f}")

result = sweep(domain, spectrum, h_grid)
print(f"\n{'h':>9} {'N':>7} {'riesz':>12} {'residual1':>12} {'residual2':>12}")
for r in result.records:
    print(f"{r.h:9.5f} {r.n_below:7d} {r.riesz:12.4f} {r.residual1:12.4f} {r.residual2:12.5f}")

report = fit_second_term(result)
print(f"\nfitted second coefficient:    {report.fitted_second_coefficient:.6f}")
print(f"predicted (1/4) L_1 |bdry|:   {report.predicted_second_coefficient:.6f}")
print(f"remainder exponent (log-log): {report.fitted_remainder_exponent:+.3f}")

write(sweep_to_csv(result), OUT / "square_sweep.csv")
write(fit_to_json(report), OUT / "square_fit.json")
print(f"\nwrote {OUT/'square_sweep.csv'} and {OUT/'square_fit.json'}")
