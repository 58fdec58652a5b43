import contextlib
import io
import json
import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import halfspace
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
        # dimensions whose Gamma function overflows in float64
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


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["constants", "--d", "283"], 2,
                 "dimension 283 is too large: Gamma(d/2 + 1) overflows",
                 id="constants-d283"),
    pytest.param(["halfspace", "--d", "281", "--check", "dual"], 2,
                 "dimension 281 is too large: Gamma(d/2 + 2) overflows",
                 id="halfspace-d281"),
    pytest.param(["sweep", "--domain", _unit_box(283), "--h", "log:0.1:0.02:5"], 2,
                 "dimension 283 is too large: Gamma(d/2 + 1) overflows",
                 id="box-283-sides"),
    pytest.param(["sweep", "--domain", _unit_box(200), "--h", "log:0.1:0.02:5"], 4,
                 "box spectrum would need ~inf eigenvalues, over the budget 1e+08",
                 id="box-200-sides"),
    pytest.param(["sweep", "--domain", "square:1", "--h", "log:1:1e-170:6"], 2,
                 "smallest h 1e-170 has h^2 = 0.0, not positive and finite",
                 id="h2-underflow"),
    pytest.param(["sweep", "--domain", "square:1", "--h", "log:1e300:1e200:6"], 2,
                 "smallest h 1e+200 has h^2 = inf, not positive and finite",
                 id="h2-overflow"),
    # h^2 = 1e-320 is subnormal, not 0: the grid is accepted and the budget refuses it
    pytest.param(["fit", "--domain", "square:1", "--h", "log:1:1e-160:6"], 4,
                 "box spectrum would need ~inf eigenvalues, over the budget 1e+08",
                 id="h2-subnormal"),
])
def test_float_limit_errors(capsys, argv, code, message):
    assert main(argv) == code
    kind = "ConfigError" if code == 2 else "ResourceError"
    assert capsys.readouterr().out == json.dumps(
        {"error": {"type": kind, "message": message, "exit_code": code}}) + "\n"


def test_empty_out_path(tmp_path, monkeypatch, capsys):
    """--out "" prints to stdout where --out is optional; where a file is
    required, it names the directory "." and fails before anything is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poly.json").write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    assert main(["constants", "--d", "2", "--out", ""]) == 0
    assert capsys.readouterr().out == (
        '{\n  "omega_d": 3.1415926535897922,\n  "C_d": 0.07957747154594765,\n'
        '  "L_d": 0.03978873577297382\n}\n'
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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_argvs())
def test_cli_fuzz_exits_with_json_error(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if code:
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["exit_code"] == code


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
