"""Start-up cost: each CLI command imports only the scipy subpackages it runs.

Measured with ``python -X importtime`` on a 2-core host, after numpy (0.16 s
on its own): importing scipy.integrate costs about 0.4 s, scipy.sparse.linalg
0.2-0.3 s and scipy.special 0.17-0.27 s, against 0.04-0.07 s for
``weylkit.cli`` and tens of milliseconds of work in a typical command. Only
``fd`` needs scipy (its sparse solvers), so a stray scipy import in any
other command fails here instead of slowing it down.
"""

import importlib.util
from pathlib import Path

import pytest

import weylkit

_spec = importlib.util.spec_from_file_location(
    "startup", Path(__file__).resolve().parent.parent / "tools" / "startup.py")
startup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(startup)
SRC = Path(weylkit.__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, allowed", [
    pytest.param([], [], id="import"),
    pytest.param(["fit", "--domain", "box:1,1,1", "--h", "log:0.2:0.02:12"], [], id="fit-box"),
    pytest.param(["sweep", "--domain", "disk:1", "--h", "log:0.2:0.05:6"], [],
                 id="sweep-disk"),
    pytest.param(["halfspace", "--d", "3", "--check", "boundary-coefficient", "--T", "200"], [],
                 id="halfspace-boundary-coefficient"),
    pytest.param(["halfspace", "--d", "3", "--check", "tail", "--T", "400"], [],
                 id="halfspace-tail"),
    pytest.param(["halfspace", "--check", "profile", "--T", "30", "--out", "p.csv"], [],
                 id="halfspace-profile"),
    pytest.param(["halfspace", "--check", "dual"], [], id="halfspace-dual"),
    pytest.param(["localize", "--domain", "disk:1", "--l0", "0.1", "--grid", "8",
                  "--check-normalization", "1", "--out", "d.csv"], [], id="localize"),
])
def test_command_loads_only_its_scipy(tmp_path, argv, allowed):
    assert startup.footprint(argv, tmp_path, SRC) == (0, allowed)


def test_fd_loads_neither_special_nor_integrate(tmp_path):
    (tmp_path / "sq.json").write_text(startup.SQUARE)
    argv = ["fd", "--polygon", "sq.json", "--step", "0.0625", "--threshold", "300",
            "--out", "o.csv"]
    code, loaded = startup.footprint(argv, tmp_path, SRC)
    assert code == 0
    assert "sparse" in loaded  # the command did reach its solver
    assert not {"special", "integrate"} & set(loaded)
