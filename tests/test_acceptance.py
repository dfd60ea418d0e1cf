"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one pass/fail line (visible with -rA or -s) naming the
criterion; the test verdict itself is the binding line in -v output.
Random instances are drawn at desk scale through conftest generators with
fixed seeds, so every run checks the same instances.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import reference_values as ref
from conftest import E, random_large_instance, random_small_instance
from ouexec import MarketState, ModelParams, cli, expected_proceeds, simulate
from ouexec import continuous, discrete, manipulation, zero_vol
from ouexec.strategy import assemble_optimal


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _twenty_large_instances():
    rng = np.random.default_rng(2024)
    return [random_large_instance(rng) for _ in range(20)]


def test_criterion_01_conservation_on_random_large_instances():
    t0 = time.perf_counter()
    worst = 0.0
    for params, state in _twenty_large_instances():
        sched = continuous.schedule(params, state, grid_points=1000)
        gap = abs(sched.p_star + sched.density_integral + sched.q_star
                  - state.holdings)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"max |p*+int(zeta)+q* - phi| = {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_dual_value_forms_agree():
    worst = 0.0
    for params, state in _twenty_large_instances():
        lam = continuous.solve_lambda_star(params, state)
        sched = continuous.schedule(params, state, grid_points=50)
        block = continuous.value_block_form(params, state, lam,
                                            sched.p_star, sched.q_star)
        flow = continuous.value_flow_form(params, state, lam)
        worst = max(worst, abs(block - flow) / abs(block))
    ok = worst <= 1e-9
    _report(2, ok, f"max relative gap between value forms = {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_03_zeta_identity_at_1000_grid_points():
    worst = 0.0
    for params, state in _twenty_large_instances():
        lam = continuous.solve_lambda_star(params, state)
        r = np.linspace(0.0, params.horizon, 1000)
        reduced = continuous.zeta_star(params, state, lam, r, form="reduced")
        direct = continuous.zeta_star(params, state, lam, r, form="direct")
        worst = max(worst, float(np.max(np.abs(reduced - direct))))
    ok = worst <= 1e-10
    _report(3, ok, f"max |zeta_reduced - zeta_direct| = {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_04_zero_vol_limit():
    state = MarketState(cash=0.0, holdings=3.0, price=E)
    base = dict(alpha=1.0, beta=1.0, fundamental_log=0.0, horizon=1.0)
    zv = zero_vol.solve(ModelParams(sigma=0.0, **base), state)
    errs = []
    for sigma in (1e-2, 1e-3, 1e-4):
        sched = continuous.schedule(ModelParams(sigma=sigma, **base), state,
                                    grid_points=1000)
        err = max(abs(sched.p_star - zv.p_star),
                  float(np.max(np.abs(sched.zeta - zv.zeta_star))),
                  abs(sched.q_star - zv.q_star))
        errs.append(err)
    decreasing = errs[0] > errs[1] > errs[2]
    small = errs[2] < 1e-4
    zv_sched = continuous.schedule(ModelParams(sigma=0.0, **base), state,
                                   grid_points=100)
    exact = max(abs(zv_sched.p_star - zv.p_star),
                float(np.max(np.abs(zv_sched.zeta - zv.zeta_star))),
                abs(zv_sched.q_star - zv.q_star))
    ok = decreasing and small and exact <= 1e-10
    _report(4, ok, f"errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, "
                   f"sigma=0 gap {exact:.2e}")
    assert decreasing
    assert small
    assert exact <= 1e-10


def test_criterion_05_small_holdings_dominance():
    rng = np.random.default_rng(77)
    worst = -math.inf
    checked = 0
    while checked < 200:
        params, state = random_small_instance(rng)
        bound = state.cash + state.price * (-math.expm1(-params.alpha
                                                        * state.holdings)) / params.alpha
        for _ in range(10):
            total = state.holdings * rng.uniform(0.3, 1.0)
            cells = int(rng.integers(4, 32))
            dens = rng.uniform(0.0, 1.0, cells)
            p0 = total * rng.uniform(0.0, 0.9)
            qt = (total - p0) * rng.uniform(0.0, 0.9)
            grad_total = total - p0 - qt
            dens *= grad_total / (np.sum(dens) * params.horizon / cells)
            strat = assemble_optimal(p0, dens, qt, params.horizon)
            val = expected_proceeds(params, state, strat)
            worst = max(worst, val - bound)
            checked += 1
            if checked == 200:
                break
    ok = worst <= 1e-8
    _report(5, ok, f"max excess over the block value = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_06_discrete_convergence_on_reference_instance():
    t0 = time.perf_counter()
    params = ModelParams(alpha=1.0, beta=1.0, sigma=0.0, fundamental_log=0.0,
                         horizon=1.0)
    state = MarketState(cash=0.0, holdings=3.0, price=E)
    p_star, zeta_star, q_star = (ref.ZERO_VOL_P_STAR, ref.ZERO_VOL_ZETA_STAR,
                                 ref.ZERO_VOL_Q_STAR)
    value_errs = []
    shape_errs = []
    for n in (10, 100, 1000):
        lam = discrete.solve_lambda_hat(params, state, n)
        psi = discrete.recover_psi(params, state, n, lam)
        v = discrete.discrete_value(params, state, psi, n)
        value_errs.append(abs(v - ref.ZERO_VOL_VALUE))
        interior = np.abs(n * psi[1:-1] - zeta_star)
        shape_errs.append(abs(psi[0] - p_star) + float(np.max(interior))
                          + abs(psi[-1] - q_star))
    elapsed = time.perf_counter() - t0
    ok = (value_errs[0] > value_errs[1] > value_errs[2]
          and value_errs[2] < 1e-2
          and shape_errs[0] > shape_errs[1] > shape_errs[2]
          and elapsed < 60.0)
    _report(6, ok, f"value errs {value_errs[0]:.2e} > {value_errs[1]:.2e} > "
                   f"{value_errs[2]:.2e}; shape errs {shape_errs[0]:.2e} > "
                   f"{shape_errs[1]:.2e} > {shape_errs[2]:.2e}; {elapsed:.1f}s")
    assert value_errs[0] > value_errs[1] > value_errs[2]
    assert value_errs[2] < 1e-2
    assert shape_errs[0] > shape_errs[1] > shape_errs[2]
    assert elapsed < 60.0


def test_criterion_07_brute_force_oracle_equivalence():
    rng = np.random.default_rng(3001)
    resolution = 200
    worst_gap = -math.inf
    worst_stat = 0.0
    worst_fd = 0.0
    for _ in range(5):
        params, state = random_large_instance(rng)
        params = ModelParams(alpha=params.alpha, beta=params.beta,
                             sigma=params.sigma,
                             fundamental_log=params.fundamental_log, horizon=1.0)
        for n in (2, 3, 4):
            lam = discrete.solve_lambda_hat(params, state, n)
            psi = discrete.recover_psi(params, state, n, lam)
            g = discrete.gradient(params, state, psi, n)
            worst_stat = max(worst_stat, float(np.max(np.abs(g - lam)))
                             / max(1.0, abs(lam)))
            h = 1e-6
            for k in range(n):
                up, dn = psi.copy(), psi.copy()
                up[k] += h
                dn[k] -= h
                fd = (discrete.objective(params, state, up, n)
                      - discrete.objective(params, state, dn, n)) / (2.0 * h)
                worst_fd = max(worst_fd, abs(fd - g[k]))
            x_bf, v_bf = discrete.brute_force(params, state, n,
                                              resolution=resolution)
            v_psi = discrete.discrete_value(params, state, psi, n)
            # the lattice step bounds how far the search can land from the
            # optimum; curvature at desk scale stays under 50 per unit^2
            step = state.holdings / resolution
            bound = 50.0 * n * step * step
            gap = v_psi - v_bf
            assert -1e-9 <= gap <= bound, (gap, bound)
            worst_gap = max(worst_gap, gap / bound)
    ok = worst_stat <= 1e-8 and worst_fd <= 1e-6
    _report(7, ok, f"max stationarity resid {worst_stat:.2e}, max FD gap "
                   f"{worst_fd:.2e}, worst objective gap {worst_gap:.2f} of bound")
    assert worst_stat <= 1e-8
    assert worst_fd <= 1e-6


def test_criterion_08_monte_carlo_arbitration():
    t0 = time.perf_counter()
    params = ModelParams(alpha=1.0, beta=1.0, sigma=0.2, fundamental_log=0.0,
                         horizon=1.0)
    state = MarketState(cash=0.0, holdings=3.0, price=E)
    sched = continuous.schedule(params, state, grid_points=1000)
    rep = simulate(params, state, sched.strategy, paths=100_000, steps=1000,
                   seed=0)
    dev_se = abs(rep.mean_cash - sched.value) / rep.std_error
    zv_params = ModelParams(alpha=1.0, beta=1.0, sigma=0.0, fundamental_log=0.0,
                            horizon=1.0)
    zv_sched = continuous.schedule(zv_params, state, grid_points=1000)
    zv_rep = simulate(zv_params, state, zv_sched.strategy, paths=10, steps=1000,
                      seed=0)
    zv_gap = abs(zv_rep.mean_cash - zv_sched.value)
    elapsed = time.perf_counter() - t0
    ok = dev_se <= 3.0 and zv_gap <= 1e-9 and elapsed < 30.0
    _report(8, ok, f"deviation {dev_se:.2f} SE; sigma=0 gap {zv_gap:.1e}; "
                   f"{elapsed:.1f}s")
    assert dev_se <= 3.0
    assert zv_gap <= 1e-9
    assert elapsed < 30.0


def test_criterion_09_manipulation_scan_and_l_root():
    params = ModelParams(alpha=1.0, beta=1.0, sigma=0.2, fundamental_log=0.0,
                         horizon=1.0)  # y = 0.01
    state = MarketState(cash=0.0, holdings=0.0, price=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = manipulation.scan(params, state, (0.0, 10.0), points=25,
                                grid_points=300)
    found = rep.first_profitable_z is not None and bool(
        np.any(rep.verified_profits > 0.0))
    root = manipulation.l_root()
    zs = np.arange(3.0, 3.6, 1e-4)
    signs = np.sign(manipulation.l_eval(zs))
    flip = np.flatnonzero(np.diff(signs) > 0)
    dense_root = float(zs[flip[0] + 1]) if flip.size else math.nan
    near = abs(root - 3.31) <= 0.05 and abs(dense_root - root) <= 1e-4
    tail = abs(float(manipulation.l_eval(100.0)) - 1.0) <= 1e-10
    ok = found and near and tail
    _report(9, ok, f"profitable z found (first = {rep.first_profitable_z}); "
                   f"L root {root:.6f} vs dense {dense_root:.6f}; "
                   f"|L(100)-1| = {abs(float(manipulation.l_eval(100.0)) - 1.0):.1e}")
    assert found
    assert near
    assert tail
    assert root == pytest.approx(ref.L_ROOT, abs=1e-10)


def test_criterion_10_cli_reruns_byte_identical(tmp_path):
    base = {"alpha": 1.0, "beta": 1.0, "sigma": 0.2, "F": 0.0, "t": 1.0,
            "w": 0.0, "phi": 3.0, "s": E, "grid_points": 200, "paths": 2000,
            "steps": 200, "seed": 7, "n_list": [4, 16], "delta_list": [0.1]}
    main_cfg = tmp_path / "main.json"
    main_cfg.write_text(json.dumps(base))
    manip_cfg = tmp_path / "manip.json"
    manip_cfg.write_text(json.dumps({**{k: v for k, v in base.items()
                                        if k not in ("n_list", "delta_list")},
                                     "phi": 0.0, "s": 1.0,
                                     "z_range": [2.0, 5.0],
                                     "grid_points": 120}))
    jobs = [("solve", main_cfg), ("converge", main_cfg),
            ("simulate", main_cfg), ("verify", main_cfg),
            ("manipulate", manip_cfg)]
    identical = True
    for cmd, cfg in jobs:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}_{tag}"
            rc = cli.main([cmd, "--config", str(cfg), "--out", str(out)])
            assert rc == 0, (cmd, rc)
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if outs[0] != outs[1]:
            identical = False
    _report(10, identical, "every command rerun produced identical bytes")
    assert identical
