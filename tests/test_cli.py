import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plapext import cli


def write(path, text):
    path.write_text(text)
    return str(path)


BARRIER_CFG = """\
[operator]
p = 3
n = 2
coefficient = plap

[source]
name = zero

[barrier]
family = lemma1
R = 10
a = 1
f_sup = 0

[radii]
r_min = 0.1
r_max = 10
count = 100
spacing = geom
"""

COUNTER_CFG = """\
[counterexample]
p = 3
n = 2
r_max = 1e6
samples = 200
"""


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return header, data


def test_barrier_subcommand_writes_closed_form(tmp_path):
    cfg = write(tmp_path / "b.cfg", BARRIER_CFG)
    out = tmp_path / "out"
    assert cli.run("barrier", cfg, out, quiet=True) == 0
    header, data = read_csv(out / "barrier.csv")
    assert header[:2] == ["r", "value"]
    r, v = data[:, 0], data[:, 1]
    assert np.allclose(v, 2.0 * np.sqrt(r), rtol=1e-8)
    assert (out / "manifest.json").exists()


def test_counterexample_subcommand(tmp_path):
    cfg = write(tmp_path / "c.cfg", COUNTER_CFG)
    out = tmp_path / "out"
    assert cli.run("counterexample", cfg, out, quiet=True) == 0
    rep = json.loads((out / "counterexample.json").read_text())
    assert rep["has_limit"] is False
    assert rep["oscillation"] == 2.0
    assert rep["ratio_variation"] < 10.0


def test_solve_radial_exterior(tmp_path):
    cfg = write(tmp_path / "e.cfg", """\
[operator]
p = 3
n = 2

[source]
name = powerdecay:1.0:1.0

[geometry]
R_in = 1.0
R_out = inf

[boundary]
u_in = 0.0
""")
    out = tmp_path / "out"
    assert cli.run("solve-radial", cfg, out, quiet=True) == 0
    summary = json.loads((out / "summary.json").read_text())
    # the saturating closed form: limit = sqrt(2) from u_in = 0 at R_in = 1
    assert summary["limit_at_infinity"] == pytest.approx(np.sqrt(2.0),
                                                         abs=1e-8)


def test_solve_annulus_2d(tmp_path):
    cfg = write(tmp_path / "a.cfg", """\
[operator]
p = 3
n = 2

[source]
name = powerdecay:0.5:1.0

[geometry]
R_in = 1.0
R_out = 2.0

[boundary]
u_in = 1.0
u_out = 0.0

[mesh]
dim = 2
radial = 12
angular = 12
""")
    out = tmp_path / "out"
    assert cli.run("solve-annulus", cfg, out, quiet=True) == 0
    header, data = read_csv(out / "solution.csv")
    assert header == ["r", "theta", "u"]
    assert np.max(np.abs(data[:, 2])) <= 1.0 + 1e-9


def test_rearrange_subcommand(tmp_path):
    cfg = write(tmp_path / "r.cfg", """\
[rearrange]
n = 2
values = 3, 1, 2
measures = 1, 1, 1
""")
    out = tmp_path / "out"
    assert cli.run("rearrange", cfg, out, quiet=True) == 0
    _, data = read_csv(out / "decreasing.csv")
    assert list(data[:, 1]) == [3.0, 2.0, 1.0]


def test_missing_config_gives_config_error(tmp_path):
    assert cli.run("barrier", tmp_path / "missing.cfg", tmp_path / "o") == 2


def test_bad_section_gives_config_error(tmp_path):
    cfg = write(tmp_path / "bad.cfg", "[operator]\np = 3\nn = 2\n")
    assert cli.run("barrier", cfg, tmp_path / "o", quiet=True) == 2


def test_unknown_subcommand_gives_config_error(tmp_path):
    cfg = write(tmp_path / "b.cfg", BARRIER_CFG)
    assert cli.run("frobnicate", cfg, tmp_path / "o", quiet=True) == 2


def test_invalid_operator_gives_config_error(tmp_path):
    cfg = write(tmp_path / "b.cfg",
                BARRIER_CFG.replace("p = 3", "p = 0.5"))
    assert cli.run("barrier", cfg, tmp_path / "o", quiet=True) == 2


def test_nonconvergence_exit_code(tmp_path):
    cfg = write(tmp_path / "a.cfg", """\
[operator]
p = 4
n = 2

[source]
name = powerdecay:1.0:1.0

[geometry]
R_in = 1.0
R_out = 2.0

[boundary]
u_in = 1.0
u_out = 0.0

[mesh]
dim = 2
radial = 10
angular = 10

[solver]
max_iter = 1
tol = 1e-14
""")
    assert cli.run("solve-annulus", cfg, tmp_path / "o", quiet=True) == 3


FLAT_START = """\
[operator]
p = 4
n = 2

[source]
name = powerdecay:1:1

[geometry]
R_in = 1
R_out = {R_out}

[mesh]
{mesh}
"""


def test_flat_start_stagnation_exits_3(tmp_path, capsys):
    # zero traces with a source start flat; no double of the flux constant
    # meets tol = 1e-22, so the bracket collapses and the solve must not
    # pass
    cfg = write(tmp_path / "a.cfg", FLAT_START.format(
        R_out=8, mesh="dim = 1\ncells = 48") + "\n[solver]\ntol = 1e-22\n")
    assert cli.run("solve-annulus", cfg, tmp_path / "o", quiet=True) == 3
    err = capsys.readouterr().err
    assert "solver status stagnated: gradient norm" in err
    assert not (tmp_path / "o" / "summary.json").exists()


def test_radial_flat_start_exits_0(tmp_path):
    # the same start at the default tol: flux shooting solves it
    cfg = write(tmp_path / "a.cfg", FLAT_START.format(
        R_out=8, mesh="dim = 1\ncells = 48"))
    assert cli.run("solve-annulus", cfg, tmp_path / "o", quiet=True) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["status"] == "converged" and summary["scale"] == 1.0
    assert summary["grad_norm"] <= 1e-10


def test_polar_flat_start_exits_0(tmp_path):
    # solve-annulus takes constant traces only, so a polar solve starts
    # from its radial solution and takes no Newton step
    cfg = write(tmp_path / "a.cfg", FLAT_START.format(
        R_out=4, mesh="dim = 2\nradial = 16\nangular = 16"))
    assert cli.run("solve-annulus", cfg, tmp_path / "o", quiet=True) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["status"] == "converged" and summary["iterations"] == 0
    assert summary["grad_norm"] <= 1e-10


def test_unknown_solver_method_gives_config_error(tmp_path):
    cfg = write(tmp_path / "a.cfg", """\
[operator]
p = 3
n = 2

[geometry]
R_in = 1.0
R_out = 2.0

[boundary]
u_in = 1.0

[solver]
method = picard
""")
    assert cli.run("solve-annulus", cfg, tmp_path / "o", quiet=True) == 2


def test_non_monotone_phi_gives_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "m.cfg", """\
[operator]
p = 1.2
n = 2
coefficient = smooth-bump

[geometry]
R_in = 1.0
R_out = 2.0

[boundary]
u_in = 1.0
""")
    assert cli.run("solve-radial", cfg, tmp_path / "o", quiet=True) == 2
    assert "(iii) phi strictly increasing" in capsys.readouterr().err


EXTERIOR_AT_ORIGIN_CFG = """\
[operator]
p = 3
n = 2

[source]
name = powerdecay:1.0:1.0

[geometry]
R_in = 0
R_out = inf
"""


@pytest.mark.parametrize("subcommand, text", [
    ("solve-radial", EXTERIOR_AT_ORIGIN_CFG),
    ("asymptotics", EXTERIOR_AT_ORIGIN_CFG),
    ("barrier", BARRIER_CFG.replace("r_min = 0.1", "r_min = 0")),
    ("solve-radial", """\
[operator]
p = 3
n = 2

[geometry]
R_in = 1.0
R_out = 2.0

[boundary]
u_in = 1.0

[output]
samples = 2
"""),
], ids=["exterior-from-0", "asymptotics-from-0", "geom-radii-from-0",
        "two-samples"])
def test_degenerate_configs_give_config_error(tmp_path, subcommand, text):
    cfg = write(tmp_path / "d.cfg", text)
    assert cli.run(subcommand, cfg, tmp_path / "o", quiet=True) == 2


@pytest.mark.parametrize("p, n", [(2.5, 3), (2.0, 2), (3.0, 2)])
def test_asymptotics_limit_for_p_at_most_n(tmp_path, p, n):
    # p <= n takes the exterior-norm Harnack correction, at the fixed theta
    # the artifact records; p > n artifacts keep their fields
    cfg = write(tmp_path / "x.cfg", f"""\
[operator]
p = {p}
n = {n}
coefficient = plap

[source]
name = powerdecay:1:1

[geometry]
R_in = 1.0
R_out = inf

[boundary]
u_in = 1.0
""")
    assert cli.run("asymptotics", cfg, tmp_path / "a", quiet=True) == 0
    assert cli.run("solve-radial", cfg, tmp_path / "r", quiet=True) == 0
    rep = json.loads((tmp_path / "a" / "asymptotics.json").read_text())
    radial = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert rep["limit_estimate"] == pytest.approx(
        radial["limit_at_infinity"], rel=1e-8)
    assert rep["checks"]["harnack"] and rep["checks"]["envelope"]
    if p <= n:
        assert rep["harnack_theta"] == cli.HARNACK_THETA
    else:
        assert "harnack_theta" not in rep


def test_manifest_has_checksums_and_versions(tmp_path):
    cfg = write(tmp_path / "c.cfg", COUNTER_CFG)
    out = tmp_path / "out"
    cli.run("counterexample", cfg, out, quiet=True)
    man = json.loads((out / "manifest.json").read_text())
    assert "versions" in man and "artifacts" in man
    assert "counterexample.json" in man["artifacts"]
    assert len(man["artifacts"]["counterexample.json"]) == 64  # sha256 hex


def test_manifest_digests_are_those_of_the_files_on_disk(tmp_path):
    # the writers return the bytes they wrote and the manifests hash those;
    # a suite run covers its own manifest, the sub-directories' manifests
    # and suite_summary.json
    write(tmp_path / "b.cfg", BARRIER_CFG)
    write(tmp_path / "r.cfg", "[rearrange]\nn = 2\nvalues = 3, 1, 2\n"
                              "measures = 1, 1, 1\n")
    cfg = write(tmp_path / "suite.cfg", "[suite]\nexperiments = b, r\n"
                "[b]\nsubcommand = barrier\nconfig = b.cfg\n"
                "[r]\nsubcommand = rearrange\nconfig = r.cfg\n")
    out = tmp_path / "out"
    assert cli.run("suite", cfg, out, quiet=True) == 0

    def on_disk(directory):
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in directory.iterdir()
                if f.is_file() and f.name != "manifest.json"}
    suite = json.loads((out / "suite_summary.json").read_text())
    for directory in (out, out / "b", out / "r"):
        man = json.loads((directory / "manifest.json").read_text())
        assert man["artifacts"] == on_disk(directory)
        if directory != out:
            assert suite[directory.name]["artifacts"] == on_disk(directory)
    assert sorted(on_disk(out / "r")) == ["decreasing.csv", "profile.csv",
                                          "summary.json"]


def test_single_subcommand_determinism(tmp_path):
    cfg = write(tmp_path / "c.cfg", COUNTER_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cli.run("counterexample", cfg, out1, quiet=True)
    cli.run("counterexample", cfg, out2, quiet=True)
    assert (out1 / "counterexample.json").read_bytes() \
        == (out2 / "counterexample.json").read_bytes()


def test_main_argparse_roundtrip(tmp_path):
    cfg = write(tmp_path / "c.cfg", COUNTER_CFG)
    code = cli.main(["counterexample", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0


def test_importing_the_cli_leaves_scipy_interpolate_unloaded():
    # a fresh process: the radial solvers' fallback spline is numpy's own
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, plapext.cli; "
         "print(sorted(m for m in sys.modules if m.startswith("
         "'scipy.interpolate')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
