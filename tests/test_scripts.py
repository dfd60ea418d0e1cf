"""Smoke runs of the scripts in scripts/, at small sizes."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import convergence_study  # noqa: E402
import manipulation_scan  # noqa: E402


def test_convergence_study_runs(capsys):
    convergence_study.main(["--n", "10", "100"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("closed-form value")
    assert [line.split()[0] for line in out[2:]] == ["10", "100"]


def test_manipulation_scan_runs(capsys):
    manipulation_scan.main(["--points", "4", "--grid-points", "60"])
    out = capsys.readouterr().out
    assert out.startswith("L(z) sign change at z = ")
    assert out.count("first profitable z") == 3
