"""Accuracy of weylkit's finite-difference spectra against the exact sine spectrum.

    python3 tools/fd_accuracy.py --src path/to/src [--src other/src]

On a rectangle the nodes strictly inside form an m x n grid, and the
5-point Laplacian's eigenvalues are known in closed form,
(4/h^2)(sin^2(pi j/2(m+1)) + sin^2(pi k/2(n+1))). For each grid below,
``weylkit.fdlap.eigenvalues_below`` of each --src tree runs in a fresh
process with BLAS/OpenMP capped at one thread, and this prints one row per
grid: the worst relative error of each tree against the closed form,
evaluated with mpmath at 40 digits. With two trees it also prints how
many eigenvalues differ between them and the worst error of those, first
tree -> second. The grids are the 24 of ``oracle.grids`` in BENCH_15.json,
the rectangles of the accuracy tests in tests/test_fd.py (steps 1/32 and
1/64), 16 more step-1/32 grids next to c = 4/h^2 = 4096, and the unit
square at step 1/64 below 16400.384, whose 63 copies of c are counted.

The exit code is 1 when a run fails or the second tree is farther from
the closed form than the first on some grid, 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent

# step-1/32 rectangles (corner, sides) of the accuracy tests
RECTANGLES = [((0.011, 0.007), (0.83, 0.95)), ((0.02, 0.03), (1.01, 0.66)),
              ((-0.004, 0.015), (0.91, 1.04)), ((0.003, -0.006), (0.97, 0.89))]
TEST_COARSE = [(0, 3000.0), (1, 3900.0), (2, 3500.0), (3, 4300.0), (0, 4500.0), (1, 5200.0),
               (2, 6000.0)]
NEXT_TO_C = (3895.7, 3990.3, 4071.9, 4094.1)
TEST_FINE = [((0.002, 0.003), (1.003, 0.845), 244.0), ((-0.003, 0.002), (1.005, 0.907), 252.0),
             ((-0.005, 0.006), (1.003, 1.015), 263.0), ((0.009, -0.003), (0.919, 0.861), 205.0),
             ((0.001, 0.01), (1.038, 0.987), 299.0)]

WORKER = """
import json, sys
import numpy as np
from weylkit.domains import Polygon
from weylkit.errors import WeylkitError
from weylkit.fdlap import assemble, eigenvalues_below

for grid in json.load(sys.stdin):
    (x0, y0), (a, b) = grid["corner"], grid["sides"]
    op = assemble(Polygon([(x0, y0), (x0 + a, y0), (x0 + a, y0 + b), (x0, y0 + b)]),
                  grid["step"])
    shape = [len(np.unique(op.nodes[:, axis])) for axis in (0, 1)]
    try:
        values = [float(v).hex() for v in eigenvalues_below(op, grid["threshold"])]
    except WeylkitError as exc:
        values = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"shape": shape, "dim": op.dim, "values": values}), flush=True)
"""


def grids() -> list[dict]:
    """Every grid of the table: label, step (a float and its text), corner,
    sides and threshold."""
    def grid(label, step, corner, sides, threshold):
        return {"label": label, "step_text": step, "step": float(Fraction(step)),
                "corner": list(corner), "sides": list(sides), "threshold": threshold}

    bench = json.loads((ROOT / "BENCH_15.json").read_text())["oracle"]["grids"]
    out = [grid("BENCH_15", g["step"], g["corner"], g["sides"], g["threshold"]) for g in bench]
    out += [grid("test", "1/32", *RECTANGLES[r], t) for r, t in TEST_COARSE]
    out += [grid("test", "1/64", corner, sides, t) for corner, sides, t in TEST_FINE]
    out += [grid("next to c", "1/32", *rect, t) for t in NEXT_TO_C for rect in RECTANGLES]
    out.append(grid("unit square", "1/64", (0.0, 0.0), (1.0, 1.0), 16400.384))
    return out


def exact_spectrum(m: int, n: int, step: float, threshold: float) -> list:
    """The closed-form eigenvalues below `threshold` of the m x n grid, as
    sorted 40-digit mpmath numbers."""
    with mpmath.workdps(40):
        scale = 4 / mpmath.mpf(step) ** 2
        one_d = [[scale * mpmath.sin(mpmath.pi * j / (2 * (size + 1))) ** 2
                  for j in range(1, size + 1)] for size in (m, n)]
        return sorted(x + y for x in one_d[0] for y in one_d[1] if x + y < threshold)


def run_tree(src: str, table: list[dict]) -> list[dict]:
    """Each grid's node shape, dimension and eigenvalues (or its error) from
    the tree at `src`, in one fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(table), env=env,
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def worst_error(values: list[float], exact: list) -> float:
    """The largest |value - exact| / exact, in float64."""
    with mpmath.workdps(40):
        return max((float(abs(v - e) / e) for v, e in zip(values, exact)), default=0.0)


def report(table: list[dict], runs: list[list[dict]]) -> tuple[list[str], bool]:
    """The table's rows, and whether the last tree stays as close as the
    first on every grid with every run succeeding."""
    heads = ["grid (step, threshold, nodes, eigenvalues)"] + [f"worst, tree {i + 1}"
                                                             for i in range(len(runs))]
    if len(runs) == 2:
        heads += ["eigenvalues that moved", "worst of those, tree 1 -> tree 2"]
    rows = ["| " + " | ".join(heads) + " |", "|" + "---|" * len(heads)]
    ok = True
    for i, grid in enumerate(table):
        results = [run[i] for run in runs]
        m, n = results[0]["shape"]
        exact = exact_spectrum(m, n, grid["step"], grid["threshold"])
        cells = [f"{grid['label']} {grid['step_text']}, {grid['threshold']:g}, "
                 f"{results[0]['dim']}, {len(exact)}"]
        values = []
        for result in results:
            if isinstance(result["values"], str) or len(result["values"]) != len(exact):
                cells.append(str(result["values"])[:60] if isinstance(result["values"], str)
                             else f"{len(result['values'])} eigenvalues")
                values.append(None)
                ok = False
                continue
            values.append([float.fromhex(v) for v in result["values"]])
            cells.append(f"{worst_error(values[-1], exact):.3g}")
        if len(runs) == 2 and None not in values:
            moved = [j for j, (a, b) in enumerate(zip(*values)) if a != b]
            cells.append(str(len(moved)))
            cells.append("-" if not moved else " -> ".join(
                f"{worst_error([v[j] for j in moved], [exact[j] for j in moved]):.3g}"
                for v in values))
            ok &= worst_error(values[1], exact) <= worst_error(values[0], exact)
        elif len(runs) == 2:
            cells += ["-", "-"]
        rows.append("| " + " | ".join(cells) + " |")
    return rows, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a weylkit source tree (the directory holding weylkit/); "
                             "once or twice")
    args = parser.parse_args()
    if len(args.src) > 2:
        parser.error("at most two --src trees")
    table = grids()
    rows, ok = report(table, [run_tree(src, table) for src in args.src])
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
