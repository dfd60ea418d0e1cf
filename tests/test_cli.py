import json
import math
import warnings
from pathlib import Path

import pytest

from ouexec import cli, continuous, discrete
from ouexec.errors import NumericalError, StandingAssumptionWarning

E = 2.718281828459045


def _write_config(tmp_path: Path, name: str, **overrides) -> Path:
    cfg = {"alpha": 1.0, "beta": 1.0, "sigma": 0.2, "F": 0.0, "t": 1.0,
           "w": 0.0, "phi": 3.0, "s": E}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _check_z_score(mc: dict, analytic: float) -> None:
    # z = (mean - analytic) / std_error, null without sampling error; the 3-SE flag agrees
    if mc["std_error"] == 0.0:
        assert mc["z_score"] is None
        return
    assert mc["z_score"] == pytest.approx((mc["mean_cash"] - analytic) / mc["std_error"],
                                          rel=1e-12)
    assert mc["within_3_std_errors"] == (abs(mc["z_score"]) <= 3.0)


def _read_dir(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_solve_outputs(tmp_path):
    cfg = _write_config(tmp_path, "c.json", grid_points=200)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"schedule.csv", "schedule.json", "zeta.svg",
                     "holdings.svg", "strategy.csv"}
    meta = json.loads((out / "schedule.json").read_text())
    assert meta["closed_form"] is True
    assert meta["regime"] == "large_holdings"
    assert meta["p_star"] + meta["density_integral"] + meta["q_star"] == \
        pytest.approx(3.0, abs=1e-9)
    header = (out / "schedule.csv").read_text().splitlines()[0]
    assert header == "r,xi_star,zeta_star,eta_star,expected_price"


def test_solve_gap_reports_no_closed_form(tmp_path):
    cfg = _write_config(tmp_path, "c.json", phi=1.5)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"schedule.json"}
    meta = json.loads((out / "schedule.json").read_text())
    assert meta["closed_form"] is False
    assert meta["regime"] == "gap"
    assert math.isfinite(meta["value"])


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_standing_assumption_warns_once_at_the_caller(tmp_path, command):
    # z = 0 <= 2y: the command classifies, then schedule() does; both warnings point
    # at this file's calling line, so the default filter shows one
    cfg = _write_config(tmp_path, "c.json", s=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert [(w.category, w.filename) for w in caught] == [(StandingAssumptionWarning, __file__)]


def test_converge_outputs(tmp_path):
    cfg = _write_config(tmp_path, "c.json", n_list=[1, 5, 25])
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,lambda_hat,psi_0,psi_last,objective,err_vs_continuous"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    errs = [float(row.split(",")[-1]) for row in lines[1:]]
    assert errs[0] > errs[1] > errs[2]
    assert (out / "convergence.svg").exists()


def test_converge_writes_a_nan_row_for_a_failed_n(tmp_path, monkeypatch):
    solve = discrete.solve_lambda_hat

    def failing_at_5(params, state, n, tol=1e-10):
        if n == 5:
            raise NumericalError("synthetic failure")
        return solve(params, state, n, tol=tol)

    monkeypatch.setattr(discrete, "solve_lambda_hat", failing_at_5)
    cfg = _write_config(tmp_path, "c.json", n_list=[1, 5, 25])
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[2] == "5,nan,nan,nan,nan,nan"
    assert "nan" not in lines[1] + lines[3]


def test_simulate_flags_override_config(tmp_path):
    cfg = _write_config(tmp_path, "c.json", grid_points=100,
                        paths=50, steps=100, seed=3)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                   "--paths", "400", "--seed", "8"])
    assert rc == 0
    meta = json.loads((out / "simulate.json").read_text())
    assert meta["paths"] == 400
    assert meta["seed"] == 8
    assert meta["steps"] == 100
    assert "elapsed" not in meta
    assert meta["within_3_std_errors"] in (True, False)
    assert "z_score" in meta
    _check_z_score(meta, meta["analytic_value"])


def test_simulate_rounds_steps_up(tmp_path):
    cfg = _write_config(tmp_path, "c.json", grid_points=100,
                        paths=50, steps=150, seed=0)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "simulate.json").read_text())
    assert meta["steps"] == 200  # rounded to a multiple of 100 cells


def test_verify_outputs(tmp_path):
    cfg = _write_config(tmp_path, "c.json", grid_points=100, paths=400,
                        steps=100, seed=1, n_list=[4, 16], delta_list=[0.1])
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == "method,value,detail"
    methods = [row.split(",")[0] for row in lines[1:]]
    assert methods == ["continuous", "discrete", "brute_force",
                       "delta_family", "monte_carlo"]
    meta = json.loads((out / "verify.json").read_text())
    assert meta["discrete"]["n"] == 16
    assert meta["brute_force"]["n"] == 4
    assert abs(meta["discrete_minus_continuous"]) < 0.05
    assert meta["delta_family"][0]["value"] < meta["continuous_value"]
    assert "z_score" in meta["monte_carlo"]
    _check_z_score(meta["monte_carlo"], meta["continuous_value"])


def test_verify_brute_force_falls_back_to_four_periods(tmp_path):
    # no n in n_list has n t <= 4, so the oracle runs at n = int(4 / t) = 8
    cfg = _write_config(tmp_path, "c.json", t=0.5, grid_points=100, paths=50,
                        steps=100, n_list=[100])
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[3].startswith("brute_force,") and lines[3].endswith(",n=8")
    meta = json.loads((out / "verify.json").read_text())
    assert meta["brute_force"]["n"] == 8
    assert len(meta["brute_force"]["allocation"]) == 4


def test_verify_gap_simulates_the_period_allocation(tmp_path):
    # gap: the n = 2000 fallback value, and Monte Carlo of the n_max allocation as blocks
    cfg = _write_config(tmp_path, "c.json", phi=1.5, paths=400, seed=1,
                        n_list=[4, 16], delta_list=[0.1])
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    methods = [row.split(",")[0] for row in (out / "verify.csv").read_text().splitlines()[1:]]
    assert methods == ["continuous", "discrete", "brute_force", "monte_carlo"]
    meta = json.loads((out / "verify.json").read_text())
    assert meta["regime"] == "gap"
    assert "delta_family" not in meta
    assert meta["monte_carlo"]["std_error"] > 0.0
    _check_z_score(meta["monte_carlo"], meta["continuous_value"])


def test_verify_solves_lambda_star_once(tmp_path, monkeypatch):
    calls = []
    solve = continuous.solve_lambda_star

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(continuous, "solve_lambda_star", counted)
    cfg = _write_config(tmp_path, "c.json", grid_points=100, paths=50,
                        steps=100, n_list=[4])
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_simulate_without_noise_has_no_z_score(tmp_path):
    cfg = _write_config(tmp_path, "c.json", sigma=0.0, grid_points=100, paths=50, steps=100)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "simulate.json").read_text())
    assert meta["std_error"] == 0.0 and meta["z_score"] is None
    assert meta["within_3_std_errors"] is True


def test_manipulate_outputs(tmp_path):
    cfg = _write_config(tmp_path, "c.json", phi=0.0, s=1.0,
                        z_range=[2.0, 5.0], grid_points=100)
    out = tmp_path / "out"
    assert cli.main(["manipulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "manipulation.csv").read_text().splitlines()
    assert lines[0] == "z,L,bound,verified_profit"
    assert len(lines) == 201  # default 200 scan points
    meta = json.loads((out / "manipulation.json").read_text())
    assert meta["points"] == 200
    assert meta["first_profitable_z"] == pytest.approx(2.0)
    assert (out / "manipulation.svg").exists()


def test_manipulate_beyond_float_range_exits_3(tmp_path, capsys):
    # at z = 690 with beta = 50 the multiplier bound E(0) is e^740
    cfg = _write_config(tmp_path, "c.json", beta=50.0, sigma=0.5, phi=0.0, s=1.0,
                        z_range=[689.0, 690.0], grid_points=50)
    assert cli.main(["manipulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "numerical"


def test_manipulate_requires_flat_book(tmp_path):
    cfg = _write_config(tmp_path, "c.json")  # phi = 3
    assert cli.main(["manipulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1


def test_solve_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, "c.json", grid_points=150)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert _read_dir(out1) == _read_dir(out2)


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "sigma": 0.2,
                               "F": 0.0, "t": 1.0, "w": 0.0, "phi": 3.0,
                               "s": E, "stray": 1}))
    assert cli.main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("text", [
    "{not json", "[1, 2]",
    json.dumps({"alpha": 1.0, "beta": 1.0, "sigma": 0.2, "F": 0.0, "t": 1.0, "w": 0.0, "s": E}),
], ids=["not_json", "not_an_object", "missing_phi"])
def test_malformed_config_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    reason = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert reason["kind"] == "config"


def test_gap_simulate_is_regime_error(tmp_path):
    cfg = _write_config(tmp_path, "c.json", phi=1.5)
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


def test_numerical_failure_maps_to_exit_3(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, "c.json")

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "solve", boom)
    assert cli.main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3


def test_bad_tolerance_rejected(tmp_path):
    cfg = _write_config(tmp_path, "c.json")
    assert cli.main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--tol", "-1"]) == 1


@pytest.mark.parametrize("flag,config_text", [
    ("nan", None), ("inf", None), (None, "NaN"), (None, "Infinity"),
])
def test_non_finite_tolerance_is_config_error(tmp_path, capsys, flag, config_text):
    # json reads NaN and Infinity; neither may switch the residual checks off
    cfg = _write_config(tmp_path, "c.json")
    if config_text is not None:
        cfg.write_text(cfg.read_text()[:-1] + f', "tol": {config_text}}}')
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert cli.main(argv + (["--tol", flag] if flag else [])) == 1
    reason = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert reason["kind"] == "config"
    assert not (tmp_path / "o").exists()


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", grid_points=100, paths=50, steps=100)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 1
    reason = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert reason["kind"] == "config" and "seed" in reason["error"]


@pytest.mark.parametrize("key,value", [
    ("alpha", "x"), ("paths", 0), ("n_list", [0]), ("z_range", [2.0, 1.0]),
    ("delta_list", [-0.1]), ("tol", 0),
])
def test_config_validation_rejects(tmp_path, key, value):
    cfg = _write_config(tmp_path, "c.json", **{key: value})
    assert cli.main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
