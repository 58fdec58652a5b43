"""Closed-loop CLI benchmark for weylkit.

One client runs one job at a time; each job is one in-process
``weylkit.cli.main(argv)`` call from a seeded stream (see workloads.py).
A fixed host-speed probe runs between jobs; each job is also reported
divided by the median of the two probes before and the two after it.
Every output is checked against an independent oracle (oracles.py) after
the timed loop.

    python3 bench/run.py --workload exact-fit --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn, one process each.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every job
twice, plain and traced (spans.py), in alternating order, requires the two
outputs to be byte-identical, and prints the per-layer metrics and the
tracing overhead. Metric names and units come from BENCHMARK.json. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The full record (provenance, per-job rows, spans) goes to
``.bench_runs/<workload>-s<seed>-t<trace>.json``.
"""

import os

# BLAS/OpenMP thread caps must be in the environment before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_runs"
SETUP_SAMPLES = 5
PROBE_NOMINAL_S = 0.008  # host speed that jobs_per_s_norm is quoted at
# every end-to-end metric the runner prints; BENCHMARK.json bounds a subset
UNITS = {"setup_s": "s", "setup_s_raw": "s", "jobs_per_s": "1/s", "jobs_per_s_norm": "1/s", "job_s_p50": "s",
         "job_s_tail": "s", "job_norm_p50": "ratio", "job_norm_tail": "ratio",
         "peak_rss_mb": "MB", "fail_ratio": "ratio", "max_rel_err": "ratio"}

SETUP_CODE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from weylkit import cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(3)
print(repr(time.perf_counter() - t0))
"""


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds: set-up children are killed and reaped


signal.signal(signal.SIGTERM, _terminate)


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "weylkit" / "cli.py").is_file():
    _fail(f"no weylkit sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import L2_BYTES, WORKLOADS, job_stream, warmup_jobs  # noqa: E402
from weylkit import cli  # noqa: E402

# ---------------------------------------------------------------------------
# host-speed probe

_PROBE_SMALL = 2.0 * np.cos(np.linspace(0.5, 1.5, 64))
_PROBE_BAND = np.sin(np.arange(64 * 2048, dtype=float)).reshape(64, 2048)
_PROBE_LARGE = np.sin(np.arange(120_000, dtype=float))
_PROBE_STREAM = np.sin(np.arange(1_000_000, dtype=float))
# work arrays, updated in place so the allocator state the jobs leave
# behind cannot move the probe's time
_PROBE_BAND_BUF = np.empty_like(_PROBE_BAND)
_PROBE_BUF = np.empty_like(_PROBE_LARGE)
_PROBE_STREAM_BUF = np.empty_like(_PROBE_STREAM)


def _probe_task() -> int:
    acc = 0
    for i in range(30_000):
        acc += (i * i) % 7
    a, b = np.ones_like(_PROBE_SMALL), np.zeros_like(_PROBE_SMALL)
    for _ in range(1200):  # Chebyshev recurrence, bounded since |c| < 2
        a, b = _PROBE_SMALL * a - b, a
    band, n = _PROBE_BAND_BUF, _PROBE_BAND.shape[1]
    band[:] = _PROBE_BAND
    for _ in range(8):  # row-slice updates on a 1 MB band, as in an LDL^T sweep
        for k in range(1, 64):
            band[k, k:] -= 1e-3 * band[k - 1, :n - k]
    _PROBE_BUF[:] = _PROBE_LARGE
    _PROBE_BUF.sort()
    np.sqrt(np.abs(_PROBE_BUF, out=_PROBE_BUF), out=_PROBE_BUF)
    np.cumsum(_PROBE_BUF, out=_PROBE_BUF)
    np.multiply(_PROBE_STREAM, 1.0001, out=_PROBE_STREAM_BUF)  # 16 MB of streaming
    np.add(_PROBE_STREAM_BUF, _PROBE_STREAM, out=_PROBE_STREAM_BUF)
    return acc + int(_PROBE_BUF[-1] > 0) + int(np.isfinite(a).all() and np.isfinite(band[-1, -1]))


def probe() -> float:
    """Host speed: median time of three runs of a fixed ~8 ms task in parts
    shaped like the jobs: a pure interpreter loop, a recurrence over a small
    array (the Bessel loops), row-slice updates of a band (the inertia
    count), whole-array work within L2 and a stream through memory beyond
    it (the quadrature). The median drops one-off scheduler stalls."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        if _probe_task() < 0:  # consumes the result
            raise RuntimeError("probe checksum")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# jobs


def _materialize(job, work: str) -> None:
    for name, text in job.get("files", {}).items():
        Path(name.replace("{work}", work)).write_text(text)


def run_job(job, work: str, main) -> dict:
    """One CLI call; its outputs are read back (and removed) untimed."""
    argv = [a.replace("{work}", work) for a in job["argv"]]
    buf = io.StringIO()
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception as exc:  # an uncaught exception fails the job, not the run
        code, error = None, f"uncaught {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if error is None and code != 0:
        error = f"exit code {code}: {buf.getvalue().strip()[:200]}"
    outputs = {"stdout": buf.getvalue()}
    for name in job["outputs"]:
        path = Path(name.replace("{work}", work))
        try:
            outputs[name] = path.read_bytes()
            path.unlink()
        except OSError:
            error = error or f"missing output {name}"
    return {"seconds": seconds, "cpu_s": cpu, "error": error, "outputs": outputs}


def measure_setup(workload: str, work: str) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import of weylkit plus the workload's warm-up jobs.

    Returns the raw times and the same times rescaled to the nominal host
    speed by the mean of the probes just before and just after each one.
    """
    jobs = warmup_jobs(workload)
    for job in jobs:
        _materialize(job, work)
    argvs = json.dumps([[a.replace("{work}", work) for a in j["argv"]] for j in jobs])
    raw, norm = [], []
    before = probe()
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), argvs],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
        after = probe()
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        norm.append(raw[-1] * PROBE_NOMINAL_S / (0.5 * (before + after)))
        before = after
    # the first start warms the file cache and writes bytecode; it is not counted
    del raw[0], norm[0]
    # the measuring process finishes the same lazy set-up before timing
    for job in jobs:
        run_job(job, work, cli.main)
    return raw, norm


def measure(workload: str, seed: int, seconds: float, traced: bool, work: str,
            scale: str = "full"):
    """Closed loop until `seconds` have passed; the last job runs to its end."""
    stream = job_stream(workload, seed, scale)
    tracer = Tracer() if traced else None
    traced_main = tracer.wrap("cli", cli.main) if traced else None
    records = []
    probes = [probe()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        job = next(stream)
        _materialize(job, work)
        if traced:
            runs = {}
            for with_trace in ((False, True) if job["id"] % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.job = job["id"]
                    tracer.install()
                try:
                    runs[with_trace] = run_job(job, work, traced_main if with_trace else cli.main)
                finally:
                    if with_trace:
                        tracer.uninstall()
            rec = runs[True]
            rec["untraced_s"] = runs[False]["seconds"]
            rec["error"] = rec["error"] or runs[False]["error"]
            if rec["error"] is None and runs[True]["outputs"] != runs[False]["outputs"]:
                rec["error"] = "traced and untraced outputs differ"
        else:
            rec = run_job(job, work, cli.main)
        probes.append(probe())
        rec["job"] = job
        records.append(rec)
    # job i ran between probes i and i+1; its reference is the median of
    # probes i-1 .. i+2, two on each side where the run has them
    for i, rec in enumerate(records):
        rec["probe_s"] = statistics.median(probes[max(0, i - 1):i + 3])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, probes, peak_rss_mb, tracer


def gate(records) -> None:
    """Oracle check of every job that ran cleanly (outside the timed loop)."""
    for rec in records:
        rec["rel_err"] = None
        if rec["error"] is not None:
            continue
        try:
            rec["rel_err"] = oracles.check(rec["job"], rec["outputs"])
        except oracles.Mismatch as exc:
            rec["error"] = f"oracle: {exc}"
        except Exception as exc:  # a broken output can break the parser too
            rec["error"] = f"oracle raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# statistics and provenance


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it."""
    return max(1, math.floor(100.0 * (1.0 - 10.0 / n)))


def quantile(values, p: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(records, probes, setup, peak_rss_mb, tracer):
    """(end-to-end metrics, gate summary, per-layer metrics or {}).

    `setup` is the pair (raw, normalized) of set-up samples."""
    n = len(records)
    times = [rec["seconds"] for rec in records]
    norms = [rec["seconds"] / rec["probe_s"] for rec in records]
    p_tail = tail_percentile(n)
    errs = [rec["rel_err"] for rec in records if rec["rel_err"] is not None]
    failed = sum(rec["error"] is not None for rec in records)
    end_to_end = {
        "setup_s": statistics.median(setup[1]),
        "setup_s_raw": statistics.median(setup[0]),
        "jobs_per_s": n / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": quantile(times, p_tail),
        "jobs_per_s_norm": n / (PROBE_NOMINAL_S * sum(norms)),
        "job_norm_p50": statistics.median(norms),
        "job_norm_tail": quantile(norms, p_tail),
        "peak_rss_mb": peak_rss_mb,
    }
    summary = {
        "jobs": n,
        "failed": failed,
        "fail_ratio": failed / n,
        "max_rel_err": max(errs) if errs else None,
        "tail_percentile": p_tail,
        "host_probe_iqr_over_median": iqr(probes) / statistics.median(probes),
        "jobs_cpu_s": sum(rec["cpu_s"] for rec in records),
    }
    layers = {}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["run.cpu_s"] = summary["jobs_cpu_s"]
        layers["host.probe_s_p50"] = statistics.median(probes)
        layers["host.probe_s_iqr"] = iqr(probes)
        layers["trace.overhead"] = statistics.median(
            rec["seconds"] / rec["untraced_s"] for rec in records) - 1.0
    return end_to_end, summary, layers


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tree = hashlib.sha256()
    for path in sorted((SRC / "weylkit").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "commit": _commit(), "src_sha256": tree.hexdigest(),
        "loop": "closed, 1 client, 1 job at a time, in-process cli.main",
    }


def input_properties(records) -> dict:
    seen = set()
    reused = 0
    for rec in records:
        reused += rec["job"]["domain"] in seen
        seen.add(rec["job"]["domain"])
    props = [rec["job"]["props"] for rec in records]
    eigs = [p["eigenvalues"] for p in props if "eigenvalues" in p]
    dofs = [p["dofs"] for p in props if "dofs" in p]
    out = {"jobs": len(records), "domain_reuse_share": reused / len(records),
           "kinds": dict(sorted(Counter(r["job"]["kind"] for r in records).items()))}
    if eigs:
        big = sum(p["spectrum_bytes"] > L2_BYTES for p in props if "spectrum_bytes" in p)
        out.update(eigenvalues_min=min(eigs), eigenvalues_max=max(eigs),
                   spectra_over_l2_share=big / len(eigs), l2_bytes=L2_BYTES)
    if dofs:
        out.update(fd_dofs_min=min(dofs), fd_dofs_max=max(dofs))
    return out


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    traced = bool(args.trace)
    if args.workload == "all":  # one process per workload, run in turn
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode for w in WORKLOADS]
        return max(codes)

    RESULTS.mkdir(exist_ok=True)
    work_dir = RESULTS / f"work-{os.getpid()}"
    work_dir.mkdir()
    work = os.path.relpath(work_dir, ROOT)
    os.chdir(ROOT)
    try:
        setup = measure_setup(args.workload, work)
        records, probes, peak_rss_mb, tracer = measure(
            args.workload, args.seed, args.seconds, traced, work)
        gate(records)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    end_to_end, summary, layers = summarize(records, probes, setup, peak_rss_mb, tracer)
    n, failed, p_tail = summary["jobs"], summary["failed"], summary["tail_percentile"]
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    source = layers if traced else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "provenance": provenance(args.workload, args.seed, args.seconds, traced),
        "setup_samples_s": {"raw": setup[0], "normalized": setup[1]},
        "end_to_end": end_to_end, "summary": summary, "per_layer": layers,
        "inputs": input_properties(records),
        "jobs": [{"id": r["job"]["id"], "kind": r["job"]["kind"], "domain": r["job"]["domain"],
                  "argv": r["job"]["argv"], "props": r["job"]["props"],
                  "seconds": r["seconds"], "cpu_s": r["cpu_s"], "probe_s": r["probe_s"],
                  "untraced_s": r.get("untraced_s"), "rel_err": r["rel_err"],
                  "error": r["error"]} for r in records],
    }
    if traced:
        record["spans"] = {"fields": ["name", "start", "end", "parent", "job"],
                           "rows": tracer.spans}
    out_path = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]} | UNITS
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {n} jobs, {failed} failed, "
          f"tail = p{p_tail} of {n} jobs; record in {os.path.relpath(out_path, ROOT)}")
    for rec in records:
        if rec["error"] is not None:
            print(f"#   job {rec['job']['id']} ({rec['job']['kind']}) FAILED: {rec['error']}")
    for name, value in source.items():
        print(f"  {name:40s} {value:.6g} {units.get(name, '')}")
    for name, value in summary.items():
        print(f"  {name:40s} {value} {units.get(name, '')}")
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
