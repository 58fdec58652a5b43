"""Report the CLI's cold start: import time and the scipy each command loads.

    python3 tools/startup.py [--src path/to/src] [--runs 5]

Prints Markdown: the median wall time of RUNS fresh
``python -c "import weylkit.cli"`` processes, then, for one small argv of
each command run in a fresh process, the public scipy subpackages loaded
once it has finished (``scipy.X`` packages whose name has no leading
underscore). It checks nothing: tests/test_startup.py does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SQUARE = '{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}'

# one small argv per command; run in a directory that holds sq.json
COMMANDS = [
    ["constants", "--d", "3"],
    ["sweep", "--domain", "box:1,1,1", "--h", "log:0.2:0.05:6"],
    ["fit", "--domain", "disk:1", "--h", "log:0.2:0.02:12"],
    ["halfspace", "--check", "dual"],
    ["localize", "--domain", "disk:1", "--l0", "0.1", "--grid", "8",
     "--check-normalization", "1", "--out", "d.csv"],
    ["fd", "--polygon", "sq.json", "--step", "0.0625", "--threshold", "300", "--out", "o.csv"],
]

# in a fresh interpreter: import the package and the CLI, run the argv (none
# for a bare import), then print its exit code and the subpackages loaded
_PROBE = """
import contextlib, io, json, sys
import weylkit, weylkit.cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = weylkit.cli.main(argv) if argv else 0
loaded = sorted(name[6:] for name, mod in sys.modules.items()
                if name.startswith("scipy.") and name.count(".") == 1
                and not name[6:].startswith("_") and hasattr(mod, "__path__"))
print(json.dumps([code, loaded]))
"""


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def footprint(argv: list[str], cwd, src: Path = SRC) -> tuple[int, list[str]]:
    """(exit code, scipy subpackages loaded) of `argv` in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], cwd=cwd,
                          env=_env(src), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"probe of {argv} failed: {proc.stderr.strip()[-300:]}")
    code, loaded = json.loads(proc.stdout)
    return code, loaded


def import_seconds(runs: int, src: Path = SRC) -> list[float]:
    """Wall times of `runs` fresh `python -c "import weylkit.cli"` processes."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import weylkit.cli"], env=_env(src), check=True)
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    src = args.src.resolve()
    times = import_seconds(args.runs, src)
    print("### Cold start")
    print(f'`python -c "import weylkit.cli"`: median {statistics.median(times):.3f} s '
          f"of {len(times)} runs ({', '.join(f'{t:.3f}' for t in times)})")
    print()
    print("| argv | exit | scipy subpackages loaded |")
    print("|---|---|---|")
    with tempfile.TemporaryDirectory() as work:
        Path(work, "sq.json").write_text(SQUARE)
        for argv in [[], *COMMANDS]:
            code, loaded = footprint(argv, work, src)
            shown = " ".join(argv) if argv else "(import only)"
            print(f"| `{shown}` | {code} | {', '.join(loaded) or 'none'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
