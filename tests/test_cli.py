import contextlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import bessel, cli, errors, fdlap, halfspace, localization
from weylkit.cli import main, parse_domain, parse_h_grid
from weylkit.domains import Box, Disk
from weylkit.errors import ConfigError


def test_parse_domain():
    assert isinstance(parse_domain("square:1"), Box)
    assert parse_domain("box:1,2").sides == (1.0, 2.0)
    assert isinstance(parse_domain("disk:0.5"), Disk)
    for bad in ("square", "cube:1", "disk:abc", "box:1,-2", "box:1,nan", "disk:nan", "disk:inf"):
        with pytest.raises(ConfigError):
            parse_domain(bad)


def test_parse_h_grid():
    grid = parse_h_grid("log:0.1:0.01:5")
    assert len(grid) == 5
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(0.01)
    assert all(a > b for a, b in zip(grid, grid[1:]))
    for bad in ("lin:1:0.1:5", "log:0.1:0.2:5", "log:0.1:0.01", "log:a:b:5", "log:inf:0.05:5",
                "log:nan:0.05:5"):
        with pytest.raises(ConfigError):
            parse_h_grid(bad)


def test_constants_command(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["constants", "--d", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["omega_d"] == pytest.approx(math.pi)
    assert data["C_d"] == pytest.approx(1 / (4 * math.pi))
    assert data["L_d"] == pytest.approx(1 / (8 * math.pi))


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--domain", "square:1", "--h", "log:0.1:0.02:6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,N,riesz,weyl1,weyl2,residual1,residual2"
    assert len(lines) == 7


def test_fit_command(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--domain", "square:1", "--h", "log:0.1:0.008:10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["fitted_second_coefficient"] == pytest.approx(2 / (3 * math.pi), rel=0.1)
    assert data["h_range"] == [pytest.approx(0.008), pytest.approx(0.1)]


def test_halfspace_command(tmp_path):
    out = tmp_path / "bc.json"
    assert main(
        ["halfspace", "--d", "2", "--check", "boundary-coefficient", "--T", "200", "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert data["value"] == pytest.approx(1 / (6 * math.pi), abs=1e-4)
    assert data["achieved_tolerance"] < 1e-4


def test_halfspace_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    assert main(
        ["halfspace", "--check", "profile", "--T", "20", "--count", "11", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho,bulk"
    assert len(lines) == 12


def test_localize_command(tmp_path):
    out = tmp_path / "diag.csv"
    assert main(["localize", "--domain", "disk:1", "--l0", "0.1", "--grid", "12", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u1,u2,l,flag"
    assert len(lines) == 145


def test_localize_empty_grid(tmp_path):
    for domain in ("disk:1", "square:1", "box:1,0.5,0.7"):
        out = tmp_path / "diag.csv"
        assert main(["localize", "--domain", domain, "--l0", "0.1", "--grid", "0", "--out", str(out)]) == 0
        assert out.read_bytes().count(b"\r\n") == 1  # the header only


def test_fd_command(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    out = tmp_path / "spec.csv"
    assert main(
        ["fd", "--polygon", str(poly), "--step", "0.0625", "--threshold", "120", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda"
    sidecar = json.loads((tmp_path / "spec.json").read_text())
    assert sidecar["provenance"] == "finite-difference(0.0625)"
    assert sidecar["cutoff"] == 120
    # continuum below 120: 2pi^2, 5pi^2 x2, 8pi^2, 10pi^2 x2; FD shifts down
    assert len(lines) - 1 == 6


def _unit_box(dim: int) -> str:
    return "box:" + ",".join(["1"] * dim)


def test_config_error_exit_code(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    fd, out = ["fd", "--polygon", str(poly)], ["--out", str(tmp_path / "o.csv")]
    missing = tmp_path / "missing"
    for argv in (
        ["sweep", "--domain", "pentagon:1", "--h", "log:0.1:0.02:5"],
        ["--threads", "2", "constants", "--d", "2"],  # unknown flag
        ["nosuchcmd"],
        ["constants"],  # missing required option
        ["sweep", "--domain", "box:1,nan", "--h", "log:0.1:0.02:5"],
        ["sweep", "--domain", "disk:nan", "--h", "log:0.1:0.02:5"],
        ["sweep", "--domain", "disk:1", "--h", "log:inf:0.05:5"],
        ["halfspace", "--check", "profile", "--count", "-1"],
        ["halfspace", "--T", "nan"],
        ["halfspace", "--tol", "inf"],
        ["halfspace", "--check", "tail", "--T", "0"],
        ["halfspace", "--check", "tail", "--T", "-3"],
        ["localize", "--domain", "disk:1", "--l0", "0.1", "--grid", "-3", *out],
        ["localize", "--domain", "disk:1", "--l0", "0.1", "--check-normalization", "-1", *out],
        ["localize", "--domain", "disk:1", "--l0", "nan", *out],
        [*fd, "--step", "nan", "--threshold", "100", *out],
        [*fd, "--step", "0.1", "--threshold", "nan", *out],
        [*fd, "--step", "0.1", "--threshold", "inf", *out],
        ["constants", "--d", "2", "--out", str(missing / "c.json")],  # unwritable --out
        # dimensions whose L_d is subnormal in float64
        ["constants", "--d", "285"],
        *(["halfspace", "--d", "281", "--check", check, *out]
          for check in ("boundary-coefficient", "profile", "tail", "dual")),
        ["sweep", "--domain", _unit_box(285), "--h", "log:0.1:0.02:5"],
        # smallest h whose square underflows to 0 or overflows
        ["fit", "--domain", "square:1", "--h", "log:1:1e-170:6"],
        ["fit", "--domain", "square:1", "--h", "log:1e300:1e200:6"],
        [*fd, "--step", "0.25", "--threshold", "50", "--out", str(missing / "s.csv")],
    ):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["exit_code"] == 2
        assert err["type"] == "ConfigError"
        if argv[-1].startswith(str(missing)):
            assert str(missing) in err["message"]


@pytest.mark.parametrize("argv, kind, code, message", [
    pytest.param(["constants", "--d", "283"], "ConfigError", 2,
                 "dimension 283 is too large: L_d is subnormal in float64 for d > 224",
                 id="constants-d283"),
    pytest.param(["halfspace", "--d", "281", "--check", "dual"], "ConfigError", 2,
                 "dimension 281 is too large: L_d is subnormal in float64 for d > 224",
                 id="halfspace-d281"),
    pytest.param(["sweep", "--domain", _unit_box(283), "--h", "log:0.1:0.02:5"], "ConfigError", 2,
                 "dimension 283 is too large: L_d is subnormal in float64 for d > 224",
                 id="box-283-sides"),
    pytest.param(["sweep", "--domain", _unit_box(200), "--h", "log:0.1:0.02:5"], "ResourceError", 4,
                 "box spectrum would need ~inf eigenvalues, over the budget 1e+08",
                 id="box-200-sides"),
    pytest.param(["sweep", "--domain", "square:1", "--h", "log:1:1e-170:6"], "ConfigError", 2,
                 "smallest h 1e-170 has h^2 = 0.0, not positive and finite",
                 id="h2-underflow"),
    pytest.param(["sweep", "--domain", "square:1", "--h", "log:1e300:1e200:6"], "ConfigError", 2,
                 "smallest h 1e+200 has h^2 = inf, not positive and finite",
                 id="h2-overflow"),
    # h^2 = 1e-320 is subnormal, not 0: the grid is accepted and the budget refuses it
    pytest.param(["fit", "--domain", "square:1", "--h", "log:1:1e-160:6"], "ResourceError", 4,
                 "box spectrum would need ~inf eigenvalues, over the budget 1e+08",
                 id="h2-subnormal"),
    pytest.param(["halfspace", "--check", "profile"], "ConfigError", 2,
                 "profile check needs --out for its CSV", id="profile-without-out"),
    pytest.param(["localize", "--domain", "disk:1", "--l0", "0.1"], "ConfigError", 2,
                 "localize needs --out for the diagnostics CSV", id="localize-without-out"),
    pytest.param(["halfspace", "--check", "boundary-coefficient", "--T", "20", "--tol", "1e-12"],
                 "ConvergenceError", 4,
                 "boundary coefficient only converged to 3.22e-07 > tol 1e-12 within t_max=20.0",
                 id="boundary-coefficient-tol"),
])
def test_float_limit_errors(capsys, argv, kind, code, message):
    assert main(argv) == code
    assert capsys.readouterr().out == json.dumps(
        {"error": {"type": kind, "message": message, "exit_code": code}}) + "\n"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--domain", _unit_box(6), "--l0", "0.5"],
                 "localize grid of 64^6 points is over the budget 2097152", id="box-6-sides"),
    pytest.param(["--domain", _unit_box(70), "--l0", "0.5", "--grid", "2"],
                 "localize grid of 2^70 points is over the budget 2097152", id="box-70-sides"),
    pytest.param(["--domain", "box:1,0.5,0.7", "--l0", "0.1", "--grid", "129"],
                 "localize grid of 129^3 points is over the budget 2097152", id="box-129^3"),
])
def test_localize_grid_budget(tmp_path, capsys, argv, message):
    """grid^dim is checked before any point is made: exit 4, no file."""
    out = tmp_path / "d.csv"
    assert main(["localize", *argv, "--out", str(out)]) == 4
    assert capsys.readouterr().out == json.dumps(
        {"error": {"type": "ResourceError", "message": message, "exit_code": 4}}) + "\n"
    assert not out.exists()


def test_localize_many_sides(tmp_path):
    """More than numpy's 64 array dimensions: one point on a 70-side box
    (was a meshgrid ValueError traceback), and an empty grid."""
    out = tmp_path / "d.csv"
    for grid, rows in (("1", 2), ("0", 1)):
        assert main(["localize", "--domain", _unit_box(70), "--l0", "0.5", "--grid", grid,
                     "--out", str(out)]) == 0
        lines = out.read_bytes().split(b"\r\n")[:-1]
        assert len(lines) == rows
    assert lines[0] == b",".join([b"u%d" % i for i in range(1, 71)] + [b"l", b"flag"])


def test_localize_grid_budget_edge(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_GRID_BUDGET", 27)
    argv = ["localize", "--domain", "box:1,0.5,0.7", "--l0", "0.3", "--out", str(tmp_path / "d.csv")]
    assert main([*argv, "--grid", "3"]) == 0
    assert main([*argv, "--grid", "4"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ResourceError"


_TINY_L0 = "l0 = {} is too small: (l0/4)^{} is subnormal, and l >= l0/4 must keep l^2 and l^-{} " \
           "finite and positive"
_FAR = "localize needs a bounding box within 2^300 of the origin, got a corner at {!r}"


@pytest.mark.parametrize("domain, l0, message", [
    # grad l's 2 s (s + 1)^2 overflowed from s ~ 4.5e102 with a RuntimeWarning
    pytest.param("disk:1e140", "0.1", _FAR.format(1e140), id="disk-1e140"),
    pytest.param(f"disk:{math.nextafter(2.0**300, math.inf)!r}", "0.1",
                 _FAR.format(math.nextafter(2.0**300, math.inf)), id="disk-past-2^300"),
    pytest.param("box:1,3e90", "0.1", _FAR.format(3e90), id="box-3e90"),
    # l^2 underflowed to 0: a divide warning and a false invariant violation
    pytest.param("square:1e-200", "1e-300", _TINY_L0.format(1e-300, 2, 2), id="l0-1e-300"),
    pytest.param("square:1", repr(math.nextafter(2.0**-509, 0)),
                 _TINY_L0.format(math.nextafter(2.0**-509, 0), 2, 2), id="l0-below-2^-509"),
    pytest.param("box:1", repr(math.nextafter(2.0**-509, 0)),
                 _TINY_L0.format(math.nextafter(2.0**-509, 0), 2, 1), id="l0-below-2^-509-1d"),
    pytest.param("box:1,1,1", repr(4 * 2.0**-341), _TINY_L0.format(4 * 2.0**-341, 3, 3),
                 id="l0-4*2^-341-3d"),
])
def test_localize_scale_errors(tmp_path, capsys, monkeypatch, domain, l0, message):
    """Scales that leave the float range exit 2 with one JSON error line and
    no output file, before any point is made."""
    def unused(*args):
        raise AssertionError("point made past the scale bounds")

    monkeypatch.setattr(cli.domains, "lattice", unused)
    monkeypatch.setattr(localization, "lattice", unused)
    out = tmp_path / "d.csv"
    assert main(["localize", "--domain", domain, "--l0", l0, "--check-normalization", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().out == json.dumps(
        {"error": {"type": "ConfigError", "message": message, "exit_code": 2}}) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("domain, l0", [
    pytest.param(f"disk:{2.0**300!r}", "0.1", id="disk-2^300"),
    pytest.param("square:1", repr(2.0**-509), id="l0-2^-509"),
    pytest.param("box:1", repr(2.0**-509), id="l0-2^-509-1d"),
    pytest.param("box:1,1,1", repr(4 * 2.0**-340), id="l0-4*2^-340-3d"),
])
def test_localize_scale_bounds_edge(tmp_path, domain, l0):
    """At the bounds the diagnostics run, with no warning (tier-1 turns
    warnings into errors)."""
    out = tmp_path / "d.csv"
    assert main(["localize", "--domain", domain, "--l0", l0, "--grid", "3", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("domain, l0", [
    # gave totals of 1.0019 and 0.9625: exit 3 for an invariant that holds
    pytest.param("disk:1e12", "0.1", id="disk-1e12"),
    pytest.param("disk:1e13", "0.1", id="disk-1e13"),
    pytest.param("disk:1", "1e-12", id="l0-1e-12"),
])
def test_localize_refuses_cells_below_rounding(tmp_path, capsys, monkeypatch, domain, l0):
    """A normalization point whose finest cells would span fewer than
    MIN_CELL_ULPS ulps of its coordinates exits 2 before its seed is made."""
    def unused(*args):
        raise AssertionError("seeded below the rounding bound")

    monkeypatch.setattr(localization, "lattice", unused)
    assert main(["localize", "--domain", domain, "--l0", l0, "--grid", "2",
                 "--check-normalization", "3", "--out", str(tmp_path / "d.csv")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith("x = [")
    assert f"is too far out for l0 = {l0}: " in err["message"]


def test_count_budget_edge(tmp_path, monkeypatch, capsys):
    """A profile's --count and an h grid's COUNT are points a command
    evaluates: at the budget they run, past it they exit 4 before any array
    is made, as do counts far past it."""
    profile = ["halfspace", "--check", "profile", "--T", "4", "--out", str(tmp_path / "p.csv")]
    sweep = ["sweep", "--domain", "square:1", "--h"]
    monkeypatch.setattr(cli, "_GRID_BUDGET", 5)
    assert main([*profile, "--count", "5"]) == 0
    assert main([*sweep, "log:0.3:0.05:5"]) == 0
    capsys.readouterr()

    def unused(*args):
        raise AssertionError("array made past the budget")

    monkeypatch.setattr(cli.np, "linspace", unused)
    monkeypatch.setattr(cli.np, "geomspace", unused)
    for argv, message in (
        ([*profile, "--count", "6"], "profile of 6 points is over the budget 5"),
        ([*sweep, "log:0.3:0.05:6"], "h grid of 6 points is over the budget 5"),
        ([*profile, "--count", str(10**12)], f"profile of {10**12} points is over the budget 5"),
        (["fit", "--domain", "disk:1", "--h", f"log:0.3:0.05:{10**12}"],
         f"h grid of {10**12} points is over the budget 5"),
    ):
        assert main(argv) == 4
        assert capsys.readouterr().out == json.dumps(
            {"error": {"type": "ResourceError", "message": message, "exit_code": 4}}) + "\n"


def test_fd_out_never_overwrites_the_polygon(tmp_path, monkeypatch, capsys):
    """--out clob.csv would write its sidecar to clob.json, and --out
    clob.json the CSV itself: both are refused before assembly, naming both
    paths, and the polygon file is unchanged."""
    poly = tmp_path / "clob.json"
    text = json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    poly.write_text(text)

    def fail(*args, **kwargs):
        raise AssertionError("assembled before --out was checked")

    monkeypatch.setattr(cli, "assemble", fail)
    (tmp_path / "sub").mkdir()
    for out in ("clob.csv", "clob.json", "sub/../clob.csv"):
        argv = ["fd", "--polygon", str(poly), "--step", "0.25", "--threshold", "50",
                "--out", str(tmp_path / out)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError"
        assert err["message"] == (f"fd would overwrite --polygon {poly} with --out "
                                  f"{tmp_path / out} or its .json sidecar")
        assert poly.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clob.json", "sub"]


def test_fd_out_json_is_refused(tmp_path, monkeypatch, capsys):
    """--out spec.json would have its CSV overwritten by its sidecar, which is
    the same file: refused before assembly, and nothing is written."""
    poly = tmp_path / "sq.json"
    text = json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    poly.write_text(text)

    def fail(*args, **kwargs):
        raise AssertionError("assembled before --out was checked")

    monkeypatch.setattr(cli, "assemble", fail)
    out = tmp_path / "spec.json"
    argv = ["fd", "--polygon", str(poly), "--step", "0.25", "--threshold", "50", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().out == json.dumps({"error": {
        "type": "ConfigError",
        "message": f"fd --out {out} would be overwritten by its own .json sidecar; name the "
                   "spectrum CSV with another extension",
        "exit_code": 2}}) + "\n"
    assert poly.read_text() == text
    assert [p.name for p in tmp_path.iterdir()] == ["sq.json"]


@pytest.mark.parametrize("sides, cells", [(4, 26), (70, 26)])
def test_normalization_seed_budget(tmp_path, monkeypatch, capsys, sides, cells):
    """The normalization seed is checked before its cells or rules are
    made: exit 4 with a JSON error (70 sides was a meshgrid ValueError
    traceback; 4 sides asked for ~2.9e8 points)."""
    def unused(*args):
        raise AssertionError("seeded past the budget")

    monkeypatch.setattr(localization, "_tensor_rule", unused)
    monkeypatch.setattr(localization, "_normalization_integrand", unused)
    argv = ["localize", "--domain", _unit_box(sides), "--l0", "0.1", "--grid", "0",
            "--check-normalization", "1", "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 4
    message = (f"normalization seed of {cells}^{sides} cells x 5^{sides} points is over the "
               "budget 4194304")
    assert capsys.readouterr().out == json.dumps(
        {"error": {"type": "ResourceError", "message": message, "exit_code": 4}}) + "\n"


def test_normalization_seed_budget_edge(tmp_path, monkeypatch, capsys):
    """The drawn point of the disk seeds 28^2 cells x 5^2 points: at the
    budget it runs."""
    argv = ["localize", "--domain", "disk:1", "--l0", "0.1", "--grid", "0",
            "--check-normalization", "1", "--out", str(tmp_path / "d.csv")]
    monkeypatch.setattr(localization, "SEED_POINT_BUDGET", 28**2 * 5**2)
    assert main(argv) == 0
    monkeypatch.setattr(localization, "SEED_POINT_BUDGET", 28**2 * 5**2 - 1)
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["error"]["type"] == "ResourceError"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["constants", "--d", "225"], "dimension 225", id="constants-d225"),
    pytest.param(["constants", "--d", "100000"], "dimension 100000", id="constants-d100000"),
    pytest.param(["halfspace", "--d", "100000", "--check", "dual"], "dimension 100000",
                 id="halfspace-d100000"),
    pytest.param(["sweep", "--domain", _unit_box(225), "--h", "log:0.1:0.02:5"],
                 "dimension 225", id="box-225-sides"),
])
def test_dimension_limit_fails_fast(capsys, argv, message):
    """The limit is checked before any exact arithmetic (one evaluation
    takes about 0.4 s at d = 2000 and 43 s at d = 20000)."""
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == json.dumps({"error": {
        "type": "ConfigError",
        "message": f"{message} is too large: L_d is subnormal in float64 for d > 224",
        "exit_code": 2}}) + "\n"


def test_largest_dimension_is_accepted(capsys):
    assert main(["constants", "--d", "224"]) == 0
    assert json.loads(capsys.readouterr().out)["L_d"] == 3.467034311839876e-308
    assert main(["halfspace", "--d", "224", "--check", "dual"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 224
    # past the constants, a 224-side box meets the eigenvalue budget, as 200 sides do
    assert main(["sweep", "--domain", _unit_box(224), "--h", "log:0.1:0.02:5"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "box spectrum would need ~inf eigenvalues, over the budget 1e+08")


@pytest.mark.parametrize("check", ["boundary-coefficient", "tail"])
def test_halfspace_horizon_budget(capsys, check):
    """A horizon past the budget is refused before any array is made (it
    was a 14.9 GiB allocation error at T = 1e9)."""
    start = time.perf_counter()
    assert main(["halfspace", "--d", "2", "--check", check, "--T", "1e9"]) == 4
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == json.dumps({"error": {
        "type": "ResourceError",
        "message": "horizon t_max=1000000000.0 scans Bessel zeros up to 2 t_max = 2000000000.0, "
                   "over the budget 131072",
        "exit_code": 4}}) + "\n"


def test_halfspace_horizon_budget_edge(monkeypatch, capsys):
    argv = ["halfspace", "--check", "boundary-coefficient", "--T", "50"]
    monkeypatch.setattr(halfspace, "HORIZON_BUDGET", 100)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(halfspace, "HORIZON_BUDGET", 99)
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "horizon t_max=50.0 scans Bessel zeros up to 2 t_max = 100.0, over the budget 99")


def test_empty_out_path(tmp_path, monkeypatch, capsys):
    """--out "" prints to stdout where --out is optional; where a file is
    required, it names the directory "." and fails before anything is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poly.json").write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    assert main(["constants", "--d", "2", "--out", ""]) == 0
    assert capsys.readouterr().out == (
        '{\n  "omega_d": 3.141592653589793,\n  "C_d": 0.07957747154594767,\n'
        '  "L_d": 0.039788735772973836\n}\n'
    )
    for argv in (
        ["sweep", "--domain", "square:1", "--h", "log:0.1:0.02:6"],
        ["fit", "--domain", "square:1", "--h", "log:0.1:0.008:10"],
        ["halfspace", "--check", "boundary-coefficient", "--T", "50"],
        ["halfspace", "--check", "tail", "--T", "20"],
        ["halfspace", "--check", "dual"],
    ):
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert main([*argv, "--out", ""]) == 0
        assert capsys.readouterr().out == expected
    for argv in (
        ["halfspace", "--check", "profile", "--T", "4", "--count", "3"],
        ["localize", "--domain", "disk:1", "--l0", "0.1", "--grid", "3",
         "--check-normalization", "1"],
        ["fd", "--polygon", "poly.json", "--step", "0.25", "--threshold", "50"],
    ):
        assert main([*argv, "--out", ""]) == 2
        assert capsys.readouterr().out == (
            '{"error": {"type": "ConfigError", "message": "[Errno 21] Is a directory: \'.\'", '
            '"exit_code": 2}}\n'
        )
    assert [p.name for p in tmp_path.iterdir()] == ["poly.json"]


def test_failed_profile_leaves_no_csv(tmp_path, capsys, monkeypatch):
    out = tmp_path / "profile.csv"
    argv = ["halfspace", "--check", "profile", "--T", "-5", "--count", "5", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().out == (
        '{"error": {"type": "ConfigError", "message": "t must be nonnegative, got -1.25", '
        '"exit_code": 2}}\n'
    )
    assert not out.exists()
    # a dual-evaluation failure at t = 2.5, made cheap by shifting the Bessel route
    real = halfspace._cosine_bessel
    monkeypatch.setattr(halfspace, "_cosine_bessel", lambda d, t: real(d, t) + 1e-6)
    argv = ["halfspace", "--check", "profile", "--T", "10", "--count", "5", "--out", str(out)]
    assert main(argv) == 4
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "NumericsError"
    assert err["message"].startswith("cosine integral routes disagree at d=2, t=2.5: quadrature ")
    assert not out.exists()


def _mostly(valid, invalid):
    """Draws a valid value four times as often as an invalid one."""
    return st.sampled_from(valid * 4 + invalid)


_HS_ARGS = st.fixed_dictionaries({
    "--d": _mostly(["2", "3", "5"], ["1", "x"]),
    "--check": _mostly(["boundary-coefficient", "profile", "tail", "dual"], ["nope"]),
    "--T": _mostly(["0.5", "4", "12"], ["-3", "0", "1e-3", "nan", "inf"]),
    "--count": _mostly(["0", "1", "4"], ["-1", "2.5"]),
    "--tol": _mostly(["1e-4"], ["0", "-1", "inf"]),
})
_LOC_ARGS = st.fixed_dictionaries({
    "--domain": _mostly(["disk:1", "square:0.8", "box:1,0.5", "box:1,0.5,0.7"],
                        ["disk:-1", "cube:1", "polygon:missing.json"]),
    "--l0": _mostly(["0.1", "0.5", "1"], ["0", "-1", "2", "nan"]),
    "--grid": _mostly(["0", "1", "5"], ["-2", "x"]),
    "--check-normalization": _mostly(["0", "1"], ["-1"]),
    "--tol": _mostly(["1e-3"], ["0", "nan"]),
})
_ALWAYS = ("--domain", "--l0", "--grid", "--T")  # required, or large by default


@st.composite
def _argvs(draw):
    """halfspace or localize argvs: the other flags left out at random, each
    value mostly valid, and --out writable, unwritable or absent. Sizes
    stay small; normalization runs in 2-D only."""
    command, options = draw(st.sampled_from([("halfspace", _HS_ARGS), ("localize", _LOC_ARGS)]))
    drawn = draw(options)
    if drawn.get("--domain", "").count(",") == 2:
        drawn["--check-normalization"] = "0"
    argv = [command]
    for flag, value in drawn.items():
        if flag in _ALWAYS or draw(st.booleans()):
            argv += [flag, value]
    out = draw(_mostly([["--out", "{tmp}/o.csv"]], [["--out", "{tmp}/no/o.csv"], []]))
    return argv + out


def _run_as_a_user(argv):
    """(exit code, stdout, stderr) of main(argv), with log records and
    warnings written to stderr as a plain process writes them (under pytest
    they would otherwise go to its own capture)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(stderr)
    logging.getLogger().addHandler(handler)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda *args: stderr.write(warnings.formatwarning(*args[:4]))
            code = main(argv)
    finally:
        logging.getLogger().removeHandler(handler)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_argvs())
def test_cli_fuzz_exits_with_json_error(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr = _run_as_a_user([a.replace("{tmp}", tmp) for a in argv])
    assert code in (0, 2, 3, 4)
    assert stderr == ""
    if code:
        lines = stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["exit_code"] == code


_POLYGON_FILES = {  # --polygon file contents, valid first
    "square": '{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}',
    "lshape": '{"vertices": [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]}',
    "triangle": '{"vertices": [[0, 0], [1.5, 0], [0.2, 1.1]]}',
    "nan": '{"vertices": [[0, 0], [1, 0], [1, NaN], [0, 1]]}',
    "huge": '{"vertices": [[0, 0], [1e308, 0], [1e308, 1e308], [0, 1e308]]}',
    "big": '{"vertices": [[0, 0], [1e150, 0], [1e150, 1e150], [0, 1e150]]}',
    "ragged": '{"vertices": [[0, 0], [1, 0, 5], [1, 1], [0, 1]]}',
    "strings": '{"vertices": [["a", "b"], ["c", "d"], ["e", "f"]]}',
    "nested": '{"vertices": [[{}, 0], [1, 0], [1, 1]]}',
    "inf": '{"vertices": [[0, 0], [1e400, 0], [1, 1]]}',
    "bigint": '{"vertices": [[0, 0], [1%s, 0], [1, 1]]}' % ("0" * 400),
    "line": '{"vertices": [[0, 0], [1, 0], [2, 0]]}',
    "scalar": '{"vertices": 5}',
    "list": "[[0, 0], [1, 0], [1, 1]]",
    "text": "not json",
}
_SWEEP_ARGS = st.fixed_dictionaries({
    "--domain": _mostly(["square:1", "disk:1", "box:1,0.5", "box:1,0.5,0.7"],
                        ["disk:0", "box:1,inf", "cube:1", "polygon:{tmp}/p.json"]),
    # smallest h >= 0.02 where valid
    "--h": _mostly(["log:0.2:0.02:12", "log:0.3:0.05:6", "log:0.1:0.02:8"],
                   ["log:0.05:0.1:5", "lin:1:0.1:5", "log:0.1:0.02:0", "log:nan:0.05:5",
                    "log:1:1e-170:6", "log:1:1e-160:6"]),
})
_CONSTANTS_ARGS = st.fixed_dictionaries({
    "--d": _mostly(["1", "2", "3", "10"], ["0", "-1", "x", "283", "100000"]),
})
_FD_ARGS = st.fixed_dictionaries({
    "--polygon": _mostly(["{tmp}/p.json"], ["{tmp}/missing.json"]),
    "--step": _mostly(["0.25", "0.125", "0.0625"], ["0", "-1", "nan", "inf", "1e-300", "x"]),
    # 64 is an eigenvalue of the square at step 0.25
    "--threshold": _mostly(["50", "200", "600", "64"], ["nan", "inf", "-5", "0"]),
})


@st.composite
def _more_argvs(draw):
    """sweep, fit, constants or fd argvs, with a drawn polygon file for fd
    and polygon domains; --out as in _argvs. Sizes stay small: h >= 0.02
    and step >= 1/16 where they are valid."""
    command, options = draw(st.sampled_from(
        [("sweep", _SWEEP_ARGS), ("fit", _SWEEP_ARGS), ("constants", _CONSTANTS_ARGS),
         ("fd", _FD_ARGS)]))
    argv = [command]
    for flag, value in draw(options).items():
        if draw(st.integers(0, 9)):  # a required flag is left out now and then
            argv += [flag, value]
    out = draw(_mostly([["--out", "{tmp}/o.csv"]], [["--out", "{tmp}/no/o.csv"], []]))
    polygon = draw(_mostly(["square", "lshape", "triangle"], list(_POLYGON_FILES)[3:]))
    return argv + out, _POLYGON_FILES[polygon]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_more_argvs())
@example((["fd", "--polygon", "{tmp}/p.json", "--step", "0.25", "--threshold", "64",
           "--out", "{tmp}/o.csv"], _POLYGON_FILES["square"]))  # a threshold at an eigenvalue
def test_cli_fuzz_more_commands(case):
    argv, polygon = case
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/p.json", "w") as f:
            f.write(polygon)
        code, stdout, stderr = _run_as_a_user([a.replace("{tmp}", tmp) for a in argv])
    assert code in (0, 2, 3, 4)
    assert stderr == ""  # no traceback, warning or log line
    if code:
        lines = stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["exit_code"] == code


_SQUARE = "[[0, 0], [1, 0], [1, 1], [0, 1]]"
_NOT_FINITE = "polygon vertices and the area they enclose must be finite"
_NOT_NUMBERS = "polygon vertices do not convert to float64: "


@pytest.mark.parametrize("vertices, step, code, message", [
    pytest.param("[[0, 0], [1, 0], [1, NaN], [0, 1]]", "0.25", 2, _NOT_FINITE, id="nan-vertex"),
    pytest.param("[[0, 0], [1e308, 0], [1e308, 1e308], [0, 1e308]]", "0.25", 2, _NOT_FINITE,
                 id="1e308-vertices"),
    pytest.param("[[0, 0], [1, 0, 5], [1, 1], [0, 1]]", "0.25", 2, _NOT_NUMBERS, id="ragged"),
    pytest.param('[["a", "b"], ["c", "d"], ["e", "f"]]', "0.25", 2,
                 _NOT_NUMBERS + "could not convert string to float: 'a'", id="strings"),
    pytest.param("[[0, 0], [1%s, 0], [1, 1]]" % ("0" * 400), "0.25", 2,
                 _NOT_NUMBERS + "int too large to convert to float", id="400-digit-int"),
    pytest.param(_SQUARE, "1e-300", 4,
                 "step 1e-300 makes a lattice box of inf points, over the budget 1048576",
                 id="step-1e-300"),
    pytest.param(_SQUARE, "1e-4", 4,
                 "step 0.0001 makes a lattice box of 1e+08 points, over the budget 1048576",
                 id="step-1e-4"),
    pytest.param("[[0, 0], [1e150, 0], [1e150, 1e150], [0, 1e150]]", "0.25", 4,
                 "step 0.25 makes a lattice box of 1.6e+301 points, over the budget 1048576",
                 id="1e150-vertices"),
    pytest.param(_SQUARE, "inf", 2, "grid step must be positive and finite, got inf",
                 id="step-inf"),
])
def test_fd_input_errors(tmp_path, capsys, monkeypatch, vertices, step, code, message):
    """Bad polygon files exit 2 and oversized lattices exit 4, each with one
    JSON error line and no output file, and no lattice point is made. The
    parent gave tracebacks, RuntimeWarnings for --step inf, and a
    lattice of gigabytes for --step 1e-4."""
    def unused(*args):
        raise AssertionError("lattice made past the budget")

    monkeypatch.setattr(fdlap, "lattice", unused)
    poly = tmp_path / "p.json"
    poly.write_text('{"vertices": %s}' % vertices)
    out = tmp_path / "o.csv"
    assert main(["fd", "--polygon", str(poly), "--step", step, "--threshold", "100",
                 "--out", str(out)]) == code
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == ("ConfigError" if code == 2 else "ResourceError")
    assert err["exit_code"] == code
    assert err["message"].startswith(message)
    assert not out.exists()


def test_fd_lattice_budget_edge(tmp_path, monkeypatch, capsys):
    """The unit square at step 1/4 makes a 7 x 7 lattice box: at the budget it runs."""
    poly = tmp_path / "p.json"
    poly.write_text('{"vertices": %s}' % _SQUARE)
    argv = ["fd", "--polygon", str(poly), "--step", "0.25", "--threshold", "100",
            "--out", str(tmp_path / "o.csv")]
    monkeypatch.setattr(fdlap, "LATTICE_BUDGET", 49)
    assert main(argv) == 0
    monkeypatch.setattr(fdlap, "LATTICE_BUDGET", 48)
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "step 0.25 makes a lattice box of 49 points, over the budget 48")


def test_fd_node_budget_edge(tmp_path, monkeypatch, capsys):
    """The unit square at step 1/4 keeps 9 interior nodes: at the node budget
    it runs, past it it exits 4 before any factorization."""
    poly = tmp_path / "p.json"
    poly.write_text('{"vertices": %s}' % _SQUARE)
    argv = ["fd", "--polygon", str(poly), "--step", "0.25", "--threshold", "100",
            "--out", str(tmp_path / "o.csv")]
    monkeypatch.setattr(fdlap, "NODE_BUDGET", 9)
    assert main(argv) == 0
    capsys.readouterr()

    def unused(*args, **kwargs):
        raise AssertionError("factorization past the budget")

    monkeypatch.setattr(fdlap, "_sparse_inertia", unused)
    monkeypatch.setattr(fdlap, "NODE_BUDGET", 8)
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "ResourceError", "exit_code": 4,
        "message": "step 0.25 leaves 9 interior nodes, over the budget 8"}


def test_polygon_domain_spec_errors(tmp_path, capsys):
    """A polygon file that Polygon refuses reports its own ConfigError
    (was "bad domain spec" with numpy's message)."""
    poly = tmp_path / "p.json"
    poly.write_text(_POLYGON_FILES["strings"])
    argv = ["localize", "--domain", f"polygon:{poly}", "--l0", "0.1", "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        _NOT_NUMBERS + "could not convert string to float: 'a'")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: weylkit" in capsys.readouterr().out


def test_localize_rejects_polygon(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    argv = ["localize", "--domain", f"polygon:{poly}", "--l0", "0.1", "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == "localize supports square/box/disk domains only"


def test_convergence_error_exit_code(capsys):
    assert main(["halfspace", "--check", "boundary-coefficient", "--T", "4"]) == 4
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConvergenceError"


def test_every_error_class_has_its_exit_code():
    assert {cls.__name__: cls.exit_code for cls in (
        errors.WeylkitError, errors.ConfigError, errors.CompletenessError, errors.DomainError,
        errors.InvariantViolation, errors.ResourceError, errors.ConvergenceError,
        errors.NumericsError, errors.FitError)} == {
        "WeylkitError": 1, "ConfigError": 2, "CompletenessError": 2, "DomainError": 2,
        "InvariantViolation": 3, "ResourceError": 4, "ConvergenceError": 4,
        "NumericsError": 4, "FitError": 4}


def test_reruns_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["sweep", "--domain", "disk:1", "--h", "log:0.3:0.05:5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    assert main(["sweep", "--domain", "disk:1", "--h", "log:0.3:0.05:5"]) == 0
    assert capsys.readouterr().out.encode() == a.read_bytes()

    fa = tmp_path / "fa.json"
    fb = tmp_path / "fb.json"
    for out in (fa, fb):
        assert main(["fit", "--domain", "square:1", "--h", "log:0.1:0.008:10", "--out", str(out)]) == 0
    assert fa.read_bytes() == fb.read_bytes()

    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    sa = tmp_path / "sa.csv"
    sb = tmp_path / "sb.csv"
    for out in (sa, sb):
        assert main(
            ["fd", "--polygon", str(poly), "--step", str(1 / 24), "--threshold", "900", "--out", str(out)]
        ) == 0
    assert sa.read_bytes() == sb.read_bytes()


def test_one_process_runs_commands_as_fresh_ones(tmp_path, monkeypatch):
    """main builds its parser once per process: commands run in turn in one
    process, with argument errors and refusals between them, exit, print and
    write exactly what each does in a fresh process."""
    monkeypatch.chdir(tmp_path)
    Path("sq.json").write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    argvs = [
        ["constants", "--d", "3"],
        ["sweep", "--domain", "disk:1", "--h", "log:0.3:0.05:5", "--out", "s.csv"],
        ["fit", "--domain", "disk:1", "--h", "log:0.3"],  # bad h grid: exit 2
        ["fd", "--polygon", "sq.json", "--step", "0.25", "--threshold", "64"],  # no --out
        ["sweep", "--domain", "disk:1", "--h", "log:0.3:0.05:5", "--bogus", "1"],
        ["fd", "--polygon", "sq.json", "--step", "0.25", "--threshold", "50", "--out", "f.csv"],
        ["constants"],  # --d is required
        ["fit", "--domain", "square:1", "--h", "log:0.1:0.008:10"],
        # later disk and half-space jobs read zeros an earlier one stored
        ["fit", "--domain", "disk:1.2", "--h", "log:0.2:0.015:8"],
        ["sweep", "--domain", "disk:0.9", "--h", "log:0.2:0.03:6", "--out", "d1.csv"],
        ["sweep", "--domain", "disk:1.1", "--h", "log:0.2:0.04:6", "--out", "d2.csv"],
        ["halfspace", "--d", "3", "--check", "boundary-coefficient", "--T", "400"],
        ["halfspace", "--d", "3", "--check", "tail", "--T", "400"],
        ["halfspace", "--d", "3", "--check", "boundary-coefficient", "--T", "250"],
        ["halfspace", "--d", "3", "--check", "tail", "--T", "250"],
    ]
    made = ("s.csv", "f.csv", "f.json", "d1.csv", "d2.csv")

    def outputs():
        files = {name: Path(name).read_bytes() for name in made if Path(name).exists()}
        for name in files:
            os.remove(name)
        return files

    in_process = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        in_process.append((code, buf.getvalue(), outputs()))
    # the smaller disks and horizons were served from these scans
    assert bessel._ZERO_TABLE[0.0][0] > 80.0 and bessel._ZERO_TABLE[2.5][0] == 800.0
    src = Path(cli.__file__).resolve().parents[1]
    fresh = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "weylkit.cli", *argv],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.stderr == ""
        fresh.append((proc.returncode, proc.stdout, outputs()))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 2, 2, 0, 2, 0] + [0] * 7
    assert in_process == fresh
