"""Write the CLI outputs of the first benchmark jobs for one weylkit tree.

    python3 tools/outputs.py --src path/to/src --out DIR

For each workload in bench/workloads.py, the first JOBS jobs of
``job_stream(workload, SEED)`` run in turn through the benchmark's own job
runner (bench/run.py) on ``weylkit.cli.main``, imported from --src, in this
one process with BLAS/OpenMP capped at one thread. Each job runs in
DIR/<workload>/ with its ``{work}`` directory set to ".", so the files it
writes land there and no path in them depends on DIR. Next to them,
<id>-<kind>.stdout holds the job's standard output and its error, if any.

Run it once per source tree, each into its own DIR, and compare with
``diff -rq DIR_A DIR_B``: every file named there is an output that
differs. bench/ is only read.
"""

import argparse
import itertools
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
JOBS = 30  # per workload
SEED = 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that holds the weylkit package")
    parser.add_argument("--out", required=True, help="directory for the outputs (created)")
    args = parser.parse_args()
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
                run._materialize(job, ".")
                rec = run.run_job(job, ".", cli.main)
                stdout = rec["outputs"].pop("stdout")
                for name, data in rec["outputs"].items():
                    Path(name.replace("{work}", ".")).write_bytes(data)
                Path(f"{job['id']:03d}-{job['kind']}.stdout").write_text(
                    f"{stdout}error {rec['error']}\n")
        finally:
            os.chdir(here)
        print(f"{workload}: {JOBS} jobs -> {out / workload}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
