"""Write the CLI outputs of the first benchmark jobs for one weylkit tree.

    python3 tools/outputs.py --src path/to/src --out DIR

For each workload in bench/workloads.py, the first JOBS jobs of
``job_stream(workload, SEED)`` run in turn through the benchmark's own job
runner (bench/run.py) on ``weylkit.cli.main``, imported from --src, in this
one process with BLAS/OpenMP capped at one thread. Each job runs in
DIR/<workload>/ with its ``{work}`` directory set to ".", so the files it
writes land there and no path in them depends on DIR. Next to them,
<id>-<kind>.stdout holds the job's standard output, its error, if any, and
what it wrote to standard error (a warning or a log line, say).

Run it once per source tree, each into its own DIR, and compare with
``diff -rq DIR_A DIR_B``: every file named there is an output that
differs. bench/ is only read. Because a workload's jobs share one
process, later disk and half-space jobs read the Bessel zeros that
earlier ones stored (see ``weylkit.bessel``), so an empty diff also
checks the warm-table bytes; the tier-1 tests, which start each test
with an empty table, cover the cold path.

    python3 tools/outputs.py --compare BASE HEAD

names each file that is only in one of the two directories or differs,
and for a differing CSV or JSON file the cells or fields that differ, per
column or field path, with the largest distance in units in the last place
(ulps) between two numbers.
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import struct
import sys
import warnings
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
JOBS = 30  # per workload
SEED = 1


def _ordinal(x: float) -> int:
    """Integers in the order of the doubles, one apart for adjacent doubles."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _cells(path: Path) -> dict:
    """{(column or field path, row): value} of a CSV or JSON file."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        return {(name, r): value for r, row in enumerate(rows) for name, value in zip(header, row)}
    cells = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{key}[{i}]")
        else:
            cells[(key, 0)] = node

    walk(json.loads(text), "")
    return cells


def _ulps(a, b):
    """ulps between two numbers (CSV cells are text), or None if either is not one."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    return abs(_ordinal(x) - _ordinal(y)) if x == x and y == y else None


def compare(base: Path, head: Path) -> list[str]:
    """Report lines for every file that differs between two output trees."""
    names = sorted({p.relative_to(root) for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        a, b = base / name, head / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: only in {'base' if a.exists() else 'head'}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        if name.suffix not in (".csv", ".json"):
            lines.append(f"{name}: differs")
            continue
        ca, cb = _cells(a), _cells(b)
        stats = defaultdict(lambda: [0, 0])  # column -> [cells that differ, largest ulps]
        for key in [*ca, *(k for k in cb if k not in ca)]:
            if ca.get(key) != cb.get(key):
                ulps = _ulps(ca.get(key), cb.get(key))
                stat = stats[key[0]]
                stat[0] += 1
                stat[1] = max(stat[1], ulps if ulps is not None else float("inf"))
        parts = [f"{col} {n} (max {u} ulp)" for col, (n, u) in stats.items()]
        lines.append(f"{name}: {', '.join(parts) or 'same cells, other bytes'}")
    lines.append(f"{len(lines)} of {len(names)} files differ")
    return lines


def write_job(job, run, main) -> None:
    """Run one job in the current directory through the benchmark's runner
    module `run`, and write its output files and <id>-<kind>.stdout there."""
    run._materialize(job, ".")
    stderr = io.StringIO()
    # a fresh warnings registry per job shows each job's warnings as its own process would
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        rec = run.run_job(job, ".", main)
    stdout = rec["outputs"].pop("stdout")
    for name, data in rec["outputs"].items():
        Path(name.replace("{work}", ".")).write_bytes(data)
    Path(f"{job['id']:03d}-{job['kind']}.stdout").write_text(
        f"{stdout}error {rec['error']}\nstderr {stderr.getvalue()!r}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="directory that holds the weylkit package")
    parser.add_argument("--out", help="directory for the outputs (created)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="report the outputs that differ between two --out directories")
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*map(Path, args.compare))))
        return 0
    if not (args.src and args.out):
        parser.error("--src and --out are required unless --compare is given")
    out = Path(args.out).resolve()
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]
    # BLAS/OpenMP thread caps must be in the environment before numpy loads
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"))
    # weylkit from --src first, so that bench/run.py, which puts its own
    # tree's src/ on the path, finds it already loaded
    from weylkit import cli
    import run
    from workloads import WORKLOADS, job_stream

    here = os.getcwd()
    for workload in WORKLOADS:
        (out / workload).mkdir(parents=True, exist_ok=True)
        os.chdir(out / workload)
        try:
            for job in itertools.islice(job_stream(workload, SEED), JOBS):
                write_job(job, run, cli.main)
        finally:
            os.chdir(here)
        print(f"{workload}: {JOBS} jobs -> {out / workload}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
