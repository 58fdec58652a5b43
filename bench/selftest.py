"""Self-test of the benchmark's job generator, oracles and runner.

    python3 bench/selftest.py

Checks, for every workload:
  * the same seed gives the same job list, and another seed another one;
  * every argv parses with ``weylkit.cli.build_parser()`` and every number
    in it is a plain decimal (no exponent, no numpy repr);
  * a tiny-size traced run passes the oracle gate, and each job's traced
    and untraced outputs are byte-identical (the runner compares them);
  * the runner computes every metric BENCHMARK.json names.
Prints one line per check and exits 1 if any fails.
"""

import itertools
import json
import os
import re
import shutil
import sys

import run  # pins the thread caps and puts src/ on sys.path first
from workloads import WORKLOADS, job_stream

from weylkit import cli

PLAIN = re.compile(r"-?\d+(\.\d+)?")


def _numbers(token: str):
    for part in re.split(r"[:,]", token):
        try:
            float(part)
        except ValueError:
            continue
        yield part


def check_generator(workload: str) -> list[str]:
    problems = []
    take = lambda seed: list(itertools.islice(job_stream(workload, seed), 24))  # noqa: E731
    first, again, other = take(11), take(11), take(12)
    if json.dumps(first) != json.dumps(again):
        problems.append("same seed gave different job lists")
    if json.dumps(first) == json.dumps(other):
        problems.append("different seeds gave the same job list")
    parser = cli.build_parser()
    for job in first:
        argv = [a.replace("{work}", "w") for a in job["argv"]]
        try:
            parser.parse_args(argv)
        except SystemExit:
            problems.append(f"argv does not parse: {argv}")
        bad = [n for a in argv for n in _numbers(a) if not PLAIN.fullmatch(n)]
        if bad:
            problems.append(f"numbers not plain decimals in {argv}: {bad}")
    return problems


def check_smoke(workload: str, spec: dict) -> list[str]:
    work_dir = run.RESULTS / f"selftest-{os.getpid()}"
    work_dir.mkdir(parents=True)
    work = os.path.relpath(work_dir, run.ROOT)
    try:
        records, probes, peak, tracer = run.measure(workload, 5, 2.0, True, work, "tiny")
        run.gate(records)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = [f"job {r['job']['id']} ({r['job']['kind']}): {r['error']}"
                for r in records if r["error"] is not None]
    end_to_end, _, _ = run.summarize(records, probes, ([1.0], [1.0]), peak, None)
    _, _, layers = run.summarize(records, probes, ([1.0], [1.0]), peak, tracer)
    for group, have in (("end_to_end", end_to_end), ("per_layer", layers)):
        missing = [m["name"] for m in spec[group] if m["name"] not in have]
        if missing:
            problems.append(f"{group} metrics not computed: {missing}")
    return problems


def main() -> int:
    os.chdir(run.ROOT)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    failed = False
    for workload in WORKLOADS:
        for name, problems in (("generator", check_generator(workload)),
                               ("tiny traced run", check_smoke(workload, spec))):
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload}: {name}")
            for p in problems:
                print(f"       {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
