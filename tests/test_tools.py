import ast
import importlib.util
import json
import logging
import sys
import types
import warnings
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parent.parent / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def test_ordinal_counts_ulps():
    assert outputs._ulps("1.0", "1.0000000000000002") == 1
    assert outputs._ulps(0.0, -0.0) == 0
    assert outputs._ulps(5e-324, -5e-324) == 2
    assert outputs._ulps(1.0, 1.0 + 2**-50) == 4
    assert outputs._ulps("x", "1.0") is None


def test_compare_names_cells_and_ulps(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for root in (base, head):
        (root / "w").mkdir(parents=True)
    csv_base = "h,N,riesz\r\n0.5,3,0.25\r\n0.25,7,1.5\r\n"
    (base / "w" / "s.csv").write_text(csv_base, newline="")
    (head / "w" / "s.csv").write_text(
        "h,N,riesz\r\n0.5,3,0.25000000000000006\r\n0.25,7,1.5000000000000002\r\n", newline="")
    fit = {"a": 1.0, "h_range": [0.01, 0.1], "b": "text"}
    (base / "w" / "f.json").write_text(json.dumps(fit))
    (head / "w" / "f.json").write_text(json.dumps({**fit, "h_range": [0.01, 0.1 + 2**-56]}))
    (base / "w" / "same.csv").write_text(csv_base, newline="")
    (head / "w" / "same.csv").write_text(csv_base, newline="")
    (base / "w" / "0-fit.stdout").write_text("error None\n")
    (head / "w" / "0-fit.stdout").write_text("error x\n")
    (head / "w" / "new.json").write_text("{}")
    assert outputs.compare(base, head) == [
        "w/0-fit.stdout: differs",
        "w/f.json: h_range[1] 1 (max 1 ulp)",
        "w/new.json: only in head",
        "w/s.csv: riesz 2 (max 1 ulp)",
        "4 of 5 files differ",
    ]


def test_write_job_records_stderr(tmp_path, monkeypatch):
    """Each job's output files are written, and its .stdout file holds its
    standard output, error and standard error, warnings and log lines
    included, also for a warning that an earlier job raised already."""
    monkeypatch.chdir(tmp_path)
    # log records and warnings as a plain process shows them: to stderr,
    # each warning once per place (pytest would capture both itself)
    monkeypatch.setattr(logging.root, "handlers", [])
    monkeypatch.setattr(warnings, "showwarning",
                        lambda *args: sys.stderr.write(warnings.formatwarning(*args[:4])))
    warnings.simplefilter("default")

    def run_job(job, work, main):  # the contract of bench/run.py's run_job
        code = main(job["argv"])
        return {"error": None if code == 0 else f"exit code {code}",
                "outputs": {"stdout": "printed\n", "{work}/o.csv": b"a,b\r\n"}}

    def main(argv):
        logging.getLogger("weylkit.example").warning("log %s", argv[0])
        warnings.warn("careful", RuntimeWarning)
        print("to stderr", file=sys.stderr)
        return len(argv) - 1

    run = types.SimpleNamespace(_materialize=lambda job, work: None, run_job=run_job)
    for i, argv in enumerate((["fd"], ["fd", "x"])):
        outputs.write_job({"id": i, "kind": "fd", "argv": argv}, run, main)
        assert (tmp_path / "o.csv").read_bytes() == b"a,b\r\n"
    for i, error in enumerate(("None", "exit code 1")):
        text = (tmp_path / f"00{i}-fd.stdout").read_text()
        head, stderr = text.split("\nstderr ")
        assert head == f"printed\nerror {error}"
        stderr = ast.literal_eval(stderr)
        assert stderr.startswith("log fd\n")
        assert "RuntimeWarning: careful" in stderr
        assert stderr.endswith("to stderr\n")
