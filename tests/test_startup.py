"""Start-up cost: each CLI command imports only the scipy subpackages it runs.

Importing scipy.integrate costs about 0.4 s and scipy.special or
scipy.sparse.linalg about 0.25 s, against tens of milliseconds of work in a
typical command, so a stray module-level scipy import fails here instead of
slowing every command down.
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
    pytest.param(["sweep", "--domain", "disk:1", "--h", "log:0.2:0.05:6"], ["special"],
                 id="sweep-disk"),
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
