import json
import math

import numpy as np
import pytest

from conebilliards.cli import main
from conebilliards.errors import ConeBilliardsError, DimensionMismatch, InvalidState, NonpositiveMass


@pytest.fixture
def cone_file(tmp_path):
    path = tmp_path / "orthant.json"
    path.write_text(json.dumps({"dim": 2, "normals": [[1, 0], [0, 1]]}))
    return str(path)


def test_bounds_structured(cone_file, capsys):
    assert main(["bounds", "--cone", cone_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_min"] == pytest.approx(1.0)
    assert doc["bound_wedge"] == 2
    assert set(doc) == {
        "lambda_min", "d", "delta", "psi", "charge_SQ", "charge_phi", "bfk_C",
        "bound_main", "bound_dd", "bound_sevryuk", "bound_bfk", "bound_wedge",
        "bound_tridiagonal", "tridiagonal_applicable",
    }


def test_bounds_csv(cone_file, capsys):
    assert main(["bounds", "--cone", cone_file, "--format", "csv"]) == 0
    header, values = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("lambda_min,d,delta,psi")
    row = dict(zip(header.split(","), values.split(",")))
    assert float(row["bound_main"]) == 8.0


def test_bounds_rejects_non_finite_normals(tmp_path):
    # json reads NaN and Infinity, so a cone file can carry them
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dim": 2, "normals": [[1, math.nan], [0, 1]]}))
    with pytest.raises(ConeBilliardsError):
        main(["bounds", "--cone", str(path)])


@pytest.mark.parametrize(
    "doc",
    [
        {"normals": [[1, 0], [0, 1]]},
        {"dim": 2},
        {"dim": "x", "normals": [[1, 0], [0, 1]]},
        {"dim": 2.7, "normals": [[1, 0], [0, 1]]},
        {"dim": True, "normals": [[1.0]]},
        {"dim": 2, "normals": [[1, 0], [0]]},
        {"dim": 2, "normals": [[1, "x"], [0, 1]]},
        {"dim": 2, "normals": [[1, None], [0, 1]]},
        [[1, 0], [0, 1]],
    ],
    ids=["no-dim", "no-normals", "dim-text", "dim-fraction", "dim-bool", "ragged",
         "text-entry", "null-entry", "top-level-list"],
)
def test_bounds_rejects_malformed_cone_documents(tmp_path, doc):
    # each escaped as a bare KeyError, ValueError or TypeError, or (a
    # fractional dim) was silently truncated
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatch):
        main(["bounds", "--cone", str(path)])


def test_simulate_with_audit(cone_file, capsys):
    code = main(
        ["simulate", "--cone", cone_file, "--q", "1,2", "--v=-2,-1", "--audit"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["events"]) == 2
    assert doc["terminal"] == "Escaped"
    assert doc["audit"]["all_passed"] is True


def test_simulate_audit_with_fewer_walls_than_dimensions(tmp_path, capsys):
    path = tmp_path / "two_walls_in_r3.json"
    path.write_text(json.dumps({"dim": 3, "normals": [[1, 0, 0], [0, 1, 0]]}))
    code = main(["simulate", "--cone", str(path), "--q", "1,2,3", "--v=-2,-1,0.5", "--audit"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["events"]) == 2
    assert doc["audit"]["all_passed"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("v", ["0,0", "inf,0"])
def test_simulate_rejects_zero_or_non_finite_velocity(cone_file, v):
    # Validated before v is scaled to unit speed, so no 0/0 or inf/inf
    # warning comes first.
    with pytest.raises(ConeBilliardsError):
        main(["simulate", "--cone", cone_file, "--q", "1,2", f"--v={v}"])


def test_simulate_round_trips_doubles(cone_file, capsys):
    main(["simulate", "--cone", cone_file, "--q", "1,2", "--v=-2,-1"])
    doc = json.loads(capsys.readouterr().out)
    v = doc["initial"]["v"]
    norm = math.hypot(*v)
    assert abs(norm - 1.0) < 1e-12


def test_ensemble_writes_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "ensemble", "--walls", "2", "--dim", "2", "--trials", "3",
            "--seed", "21", "--out", str(out), "--paths", "10",
        ]
    )
    assert code == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == 4


def test_ensemble_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(
            [
                "ensemble", "--walls", "2", "--dim", "2", "--trials", "2",
                "--seed", "77", "--out", str(out), "--paths", "5",
            ]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_search(cone_file, capsys):
    assert main(["search", "--cone", cone_file, "--budget", "200", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_n"] == 2
    assert len(doc["q"]) == 2


def test_wedge_with_search(capsys):
    theta = str(math.pi / 3)
    assert main(["wedge", "--theta", theta, "--search", "--budget", "1500"]) == 0
    out = capsys.readouterr().out
    assert "sharp_bound = 3" in out
    assert "best_n = 3" in out
    table = [l for l in out.splitlines() if l and l[0] in "-0123456789"]
    pts = np.array([[float(x) for x in line.split()] for line in table])
    assert pts.shape == (5, 2)


def test_hardball_conjugacy(capsys):
    code = main(
        [
            "hardball", "--masses", "1,1,1", "--positions", "0,1,3",
            "--velocities=1,0,-1", "--conjugacy",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["events"]) == 3
    assert doc["conjugacy"]["matched"] is True
    assert doc["conjugacy"]["pair_sequence"] == doc["conjugacy"]["wall_sequence"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "flags, error",
    [
        (["--positions", "0,1", "--velocities=inf,-1"], InvalidState),
        (["--positions", "0,nan", "--velocities=1,-1"], InvalidState),
        (["--masses", "1,nan", "--positions", "0,1", "--velocities=1,-1"], NonpositiveMass),
        (["--positions", "0,1", "--velocities=1,-1", "--max-events", "-2"], InvalidState),
    ],
)
def test_hardball_rejects_invalid_input(flags, error):
    # Rejected before any arithmetic, so no NaN reaches the output.
    if "--masses" not in flags:
        flags = ["--masses", "1,1", *flags]
    with pytest.raises(error):
        main(["hardball", *flags])


def test_every_command_runs_without_scipy(tmp_path):
    # The runtime needs numpy alone.  With scipy unimportable, each of the
    # six commands runs, bounds on an n = 17 cone among them, where delta
    # comes from the flip ascent past the sign-vertex formula.  A
    # floating-point warning or any output on stderr fails.
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent(
        f"""
        import json
        import sys
        sys.modules["scipy"] = None
        from conebilliards import random_cone
        from conebilliards.cli import main

        tmp = {str(tmp_path)!r}
        cone = random_cone(17, 17, 20241, 17000)
        with open(tmp + "/cone17.json", "w") as fh:
            json.dump({{"dim": cone.dim, "normals": cone.normals.tolist()}}, fh)
        with open(tmp + "/orthant.json", "w") as fh:
            json.dump({{"dim": 2, "normals": [[1, 0], [0, 1]]}}, fh)
        for argv in (
            ["bounds", "--cone", tmp + "/cone17.json", "--format", "csv"],
            ["simulate", "--cone", tmp + "/orthant.json", "--q", "1,2", "--v=-2,-1", "--audit"],
            ["ensemble", "--walls", "3", "--dim", "3", "--trials", "2", "--seed", "7",
             "--out", tmp + "/rows.csv", "--paths", "10"],
            ["search", "--cone", tmp + "/orthant.json", "--budget", "200", "--seed", "1"],
            ["wedge", "--theta", "1.0", "--search", "--budget", "200"],
            ["hardball", "--masses", "1,1,1", "--positions", "0,1,3", "--velocities=1,0,-1",
             "--conjugacy"],
        ):
            assert main(argv) == 0, argv
        """
    )
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.startswith("lambda_min,d,delta,")
