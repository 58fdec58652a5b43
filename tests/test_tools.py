import importlib.util
import json
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
