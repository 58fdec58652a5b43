import ast
import importlib.util
import json
import logging
import math
import sys
import types
import warnings
from pathlib import Path

def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


outputs = _tool("outputs")
code_lines = _tool("code_lines")
fd_accuracy = _tool("fd_accuracy")


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


_MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """One-line docstring."""
    s = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring
    over two lines."""

    y = 1
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path, capsys):
    """import, def, the two lines of the string, the two of the return,
    class and y: 8 code lines of 21."""
    assert code_lines.code_lines(_MODULE) == 8
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    (base / "a.py").write_text(_MODULE)
    (base / "gone.py").write_text("x = 1\n")
    (head / "a.py").write_text(_MODULE + "z = 2\n")
    (head / "new.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(head), str(base)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.py                             8 ->     9  +1",
        "gone.py                          1 ->     0  -1",
        "new.py                           0 ->     0  +0",
        "total                            9 ->     9  +0",
    ]
    assert code_lines.report(head) == ["a.py                             9",
                                       "new.py                           0",
                                       "total                            9"]


def test_fd_accuracy_grids_and_exact_spectrum():
    """53 grids: BENCH_15.json's 24, the 12 test rectangles, 16 next to c
    and the unit square; the 40-digit sine spectrum agrees with its float64
    closed form to a few ulps."""
    grids = fd_accuracy.grids()
    assert len(grids) == 53
    assert [g["label"] for g in grids].count("BENCH_15") == 24
    assert grids[-1]["threshold"] == 16400.384 and grids[-1]["step"] == 1 / 64
    exact = fd_accuracy.exact_spectrum(3, 2, 0.25, 100.0)
    one_d = [[4 * math.sin(math.pi * j / (2 * (size + 1))) ** 2 / 0.25**2
              for j in range(1, size + 1)] for size in (3, 2)]
    want = sorted(x + y for x in one_d[0] for y in one_d[1] if x + y < 100.0)
    assert len(exact) == len(want) == 5
    assert all(abs(float(e) - w) <= 4 * math.ulp(w) for e, w in zip(exact, want))


def test_fd_accuracy_report_names_moves_and_regressions():
    """One 3 x 2 grid below 100: equal trees move nothing; a second tree
    8 ulps farther on the largest eigenvalue fails the verdict; a failed
    run fails it too."""
    grid = {"label": "toy", "step_text": "1/4", "step": 0.25, "corner": [0, 0],
            "sides": [1, 0.75], "threshold": 100.0}
    exact = [float(e) for e in fd_accuracy.exact_spectrum(3, 2, 0.25, 100.0)]
    run = {"shape": [3, 2], "dim": 6, "values": [v.hex() for v in exact]}
    rows, ok = fd_accuracy.report([grid], [[run], [run]])
    assert ok and rows[2].endswith("| 0 | - |")
    worse = dict(run, values=[v.hex() for v in exact[:-1] + [exact[-1] + 8 * math.ulp(exact[-1])]])
    rows, ok = fd_accuracy.report([grid], [[run], [worse]])
    assert not ok and "| 1 |" in rows[2]
    failed = dict(run, values="NumericsError: slice extraction found 3 eigenvalues")
    rows, ok = fd_accuracy.report([grid], [[run], [failed]])
    assert not ok and "NumericsError" in rows[2]


def test_fd_accuracy_runs_a_tree(tmp_path):
    """run_tree runs eigenvalues_below of the tree in a fresh process: the
    unit square at step 1/8 below 200, a 7 x 7 grid on the dense route."""
    grid = {"label": "toy", "step_text": "1/8", "step": 0.125, "corner": [0.0, 0.0],
            "sides": [1.0, 1.0], "threshold": 200.0}
    (result,) = fd_accuracy.run_tree(str(Path(fd_accuracy.__file__).parent.parent / "src"),
                                     [grid])
    exact = fd_accuracy.exact_spectrum(7, 7, 0.125, 200.0)
    assert result["shape"] == [7, 7] and result["dim"] == 49
    assert len(result["values"]) == len(exact) == 15
    assert fd_accuracy.worst_error([float.fromhex(v) for v in result["values"]], exact) < 1e-14
