"""Report the CLI's cold start: each command's wall time and the scipy it loads.

    python3 tools/startup.py [--src path/to/src] [--runs 5]

Prints a Markdown table: for a bare import of the CLI and one small argv
of each command, the median wall time of RUNS fresh processes that import
weylkit and its CLI and run the argv, and the public scipy subpackages
loaded once it has finished (``scipy.X`` packages whose name has no
leading underscore). It checks nothing: tests/test_startup.py does.
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
    ["halfspace", "--d", "3", "--check", "boundary-coefficient", "--T", "200"],
    ["halfspace", "--check", "profile", "--T", "30", "--out", "p.csv"],
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
    return _probe(argv, cwd, src)[1:]


def _probe(argv: list[str], cwd, src: Path) -> tuple[float, int, list[str]]:
    """(wall time, exit code, scipy subpackages loaded) of one fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], cwd=cwd,
                          env=_env(src), capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe of {argv} failed: {proc.stderr.strip()[-300:]}")
    code, loaded = json.loads(proc.stdout)
    return seconds, code, loaded


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    src = args.src.resolve()
    print("### Cold start")
    print()
    print(f"| argv | exit | median s of {args.runs} | scipy subpackages loaded |")
    print("|---|---|---|---|")
    with tempfile.TemporaryDirectory() as work:
        Path(work, "sq.json").write_text(SQUARE)
        for argv in [[], *COMMANDS]:
            runs = [_probe(argv, work, src) for _ in range(args.runs)]
            _, code, loaded = runs[-1]
            seconds = statistics.median(r[0] for r in runs)
            shown = " ".join(argv) if argv else "(import only)"
            print(f"| `{shown}` | {code} | {seconds:.3f} | {', '.join(loaded) or 'none'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
