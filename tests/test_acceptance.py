"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a single PASS/FAIL line
through the shared log fixture, and checks its own wall-clock budget.
The criteria are ordered from corrector identities through solver
properties to the reproducibility of the sweep reports.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import solve_banded

from ilim.analysis import energy_budget, fit_rate, gronwall_envelope
from ilim.correctors import (
    CorrectorParams,
    curved_corrector,
    curved_divergence,
    curved_gamma,
    flat_corrector,
    make_curved_chart,
    trace_from_callable,
    verify_corrector_scalings,
)
from ilim.grid import (
    ScalarField,
    VectorField,
    curl2d,
    divergence2d,
    lp_norm,
    make_channel_grid,
)
from ilim.harness import SweepConfig, emit_report, run_sweep, shear_limit_study
from ilim.initial_data import build_initial_data
from ilim.solvers import (
    EulerIntegrator,
    NavierStokesIntegrator,
    ShearFlow,
    SimulationConfig,
    _outputs,
    kinetic_energy,
    run_simulation,
)


def _orders(values):
    return [math.log(a / b) / math.log(2.0) for a, b in zip(values[:-1], values[1:])]


def _random_trace_callable(rng):
    a = rng.normal(size=3)
    b = rng.normal(size=3)

    def u(x):
        out = np.zeros_like(x)
        for k in range(3):
            out += a[k] * np.cos((k + 1) * x) + b[k] * np.sin((k + 1) * x)
        return out

    return u


@pytest.fixture(scope="module")
def shear_study():
    """Default inviscid-limit shear study, shared by criteria 4 and 5."""
    return shear_limit_study()


def test_criterion_1_corrector_identities(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    trace_funcs = [_random_trace_callable(rng) for _ in range(5)]

    worst_wall = 0.0
    grid = make_channel_grid(16, 65, 2.0 * np.pi, 2.0, clustering="tanh", strength=2.0)
    for u_func in trace_funcs:
        trace = trace_from_callable(grid, u_func)
        for alpha_tau in (1e-1, 1e-2, 1e-3, 1e-4):
            fld = flat_corrector(CorrectorParams(alpha=alpha_tau, t=1.0, trace=trace), grid)
            worst_wall = max(
                worst_wall,
                float(np.abs(fld.comp1[:, 0] + trace.u).max()),
                float(np.abs(fld.comp2[:, 0]).max()),
            )

    div_norms = []
    for ny in (65, 129, 257):
        g = make_channel_grid(16, ny, 2.0 * np.pi, 2.0, clustering="tanh", strength=2.0)
        worst = 0.0
        for u_func in trace_funcs:
            trace = trace_from_callable(g, u_func)
            fld = flat_corrector(CorrectorParams(alpha=1e-1, t=1.0, trace=trace), g)
            worst = max(worst, lp_norm(divergence2d(fld), 2))
        div_norms.append(worst)
    orders = _orders(div_norms)

    elapsed = time.perf_counter() - t0
    ok = worst_wall <= 1e-13 and all(o >= 1.9 for o in orders) and elapsed < 60.0
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 1: wall match {worst_wall:.1e}, "
        f"divergence orders {[round(o, 2) for o in orders]} [{elapsed:.1f}s]"
    )
    assert worst_wall <= 1e-13
    assert all(o >= 1.9 for o in orders), orders
    assert elapsed < 60.0


def test_criterion_2_corrector_lp_scalings(acceptance_log):
    t0 = time.perf_counter()
    alpha_tau = np.geomspace(1e-3, 1e-1, 9)  # two decades
    worst = {}
    for p in (1.0, 2.0, np.inf):
        report = verify_corrector_scalings(p, alpha_tau)
        inv_p = 0.0 if np.isinf(p) else 1.0 / p
        stated = sorted([inv_p, inv_p, inv_p - 1.0, 1.0, 1.0])
        assert sorted(r.expected_exponent for r in report.rows) == pytest.approx(stated)
        worst[p] = max(abs(r.fitted_exponent - r.expected_exponent) for r in report.rows)

    elapsed = time.perf_counter() - t0
    ok = all(v <= 0.05 for v in worst.values()) and elapsed < 60.0
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 2: exponent deviations "
        f"{ {k: round(v, 4) for k, v in worst.items()} } [{elapsed:.1f}s]"
    )
    assert all(v <= 0.05 for v in worst.values()), worst
    assert elapsed < 60.0


def test_criterion_3_curved_corrector(acceptance_log):
    t0 = time.perf_counter()

    # compact support: both components exactly zero for xi2 >= delta
    chart = make_curved_chart(delta=1.0, h=lambda x1, x2: 1.0 + x2 + 0.0 * x1)
    grid = make_channel_grid(32, 97, 2.0 * np.pi, 1.5, clustering="uniform")
    trace = trace_from_callable(grid, lambda x: 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2 * x))
    fld = curved_corrector(trace, 0.5, 0.2, chart, grid)
    above = grid.y >= chart.delta
    support_exact = (
        np.all(fld.comp1[:, above] == 0.0) and np.all(fld.comp2[:, above] == 0.0)
    )

    plain = make_curved_chart(delta=1.0)
    alpha_tau = np.geomspace(1e-4, 1e-2, 7)
    defects = np.array([abs(curved_gamma(a, 1.0, plain) - a) for a in alpha_tau])
    slope = fit_rate(alpha_tau, defects).exponent

    div_norms = []
    for ny in (97, 193, 385):
        g = make_channel_grid(32, ny, 2.0 * np.pi, 1.5, clustering="uniform")
        tr = trace_from_callable(g, lambda x: 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2 * x))
        f = curved_corrector(tr, 0.5, 0.2, chart, g)
        div_norms.append(lp_norm(curved_divergence(f, chart, g), 2))
    orders = _orders(div_norms)

    elapsed = time.perf_counter() - t0
    ok = (
        support_exact
        and slope >= 2.9
        and all(o >= 1.9 for o in orders)
        and elapsed < 60.0
    )
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 3: support exact {support_exact}, "
        f"gamma slope {slope:.3f}, divergence orders {[round(o, 2) for o in orders]} "
        f"[{elapsed:.1f}s]"
    )
    assert support_exact
    assert slope >= 2.9
    assert all(o >= 1.9 for o in orders), orders
    assert elapsed < 60.0


def test_criterion_4_shear_inviscid_limit(acceptance_log, shear_study):
    t0 = time.perf_counter()
    study = shear_study
    assert study.nu_values == (1e-2, 1e-3, 1e-4, 1e-5)

    # The convergence rate O(nu) shows up as exponent ~1 for the velocity
    # gap itself (the squared gap then fits ~2); both fits are reported.
    fit = study.fit
    fit_sq = study.fit_sq
    rate_ok = fit is not None and abs(fit.exponent - 1.0) <= 0.15

    criteria_ok = all(
        report.all_pass
        for reports in study.reports_by_r.values()
        for report in reports
    )

    elapsed = time.perf_counter() - t0
    ok = rate_ok and criteria_ok and elapsed < 120.0
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 4: error exponent {fit.exponent:.4f} "
        f"(squared {fit_sq.exponent:.4f}), criteria pass for r in (1, 2, inf): "
        f"{criteria_ok} [{elapsed:.1f}s]"
    )
    assert rate_ok, fit
    assert criteria_ok
    assert elapsed < 120.0


def test_criterion_5_theorem_bound_envelope(acceptance_log, shear_study):
    t0 = time.perf_counter()
    study = shear_study
    assert study.calibration_nu == (1e-2, 1e-3)
    held_out = study.holdout_bound_ok.get(1e-4)

    elapsed = time.perf_counter() - t0
    ok = held_out is True and study.c_fit > 0.0 and elapsed < 60.0
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 5: C_fit {study.c_fit:.4e} on "
        f"nu (1e-2, 1e-3); held-out nu=1e-4 bound holds at every output time: "
        f"{held_out} [{elapsed:.1f}s]"
    )
    assert held_out is True
    assert study.c_fit > 0.0
    assert elapsed < 60.0


def test_criterion_6_solver_properties(acceptance_log):
    t0 = time.perf_counter()
    grid = make_channel_grid(128, 193, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)

    u0 = build_initial_data("perturbed-shear", grid, amplitude=1.0, seed=3)
    # every step's state, one at a time: 251 states of 128x193 are not held
    ns = _outputs(NavierStokesIntegrator(grid, 1e-3, 2e-3), u0, 0.5, 250)
    energy_diffs = np.diff([kinetic_energy(s.velocity) for s in ns])
    ns_monotone = bool(np.all(energy_diffs <= 0.0))

    v0 = build_initial_data("vortex", grid, amplitude=1.0, seed=3, sigma=1.0)
    euler = EulerIntegrator(grid, 2e-3).run(v0, 0.5, 10)
    e_first, e_last = (kinetic_energy(euler.states[i].velocity) for i in (0, -1))
    energy_drift = abs(e_last - e_first) / e_first
    w_first = np.abs(curl2d(euler.states[0].velocity).values).max()
    w_last = np.abs(curl2d(euler.states[-1].velocity).values).max()
    vorticity_drift = abs(w_last - w_first) / w_first

    flow = ShearFlow(height=6.0, coeffs=[1.0, 0.0, -0.3, 0.0, 0.0, 0.1])
    nu = 1e-3
    errors = []
    for ny, dt in ((49, 1e-2), (97, 5e-3), (193, 2.5e-3), (385, 1.25e-3)):
        g = make_channel_grid(8, ny, 2.0 * np.pi, 6.0, clustering="tanh", strength=2.0)
        profile0 = flow.profile(g.y, nu, 0.0)
        shear0 = VectorField(g, np.broadcast_to(profile0, g.shape).copy(),
                             np.zeros(g.shape))
        traj = NavierStokesIntegrator(g, nu, dt).run(shear0, 0.5, 1)
        exact = flow.profile(g.y, nu, 0.5)
        errors.append(float(np.abs(traj.states[-1].velocity.comp1 - exact[None, :]).max()))
    orders = _orders(errors)

    elapsed = time.perf_counter() - t0
    ok = (
        ns_monotone
        and energy_drift <= 5e-3
        and vorticity_drift <= 1e-2
        and all(o >= 1.8 for o in orders)
        and elapsed < 600.0
    )
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 6: NS energy monotone {ns_monotone} "
        f"(max step diff {energy_diffs.max():.1e}), Euler energy drift "
        f"{energy_drift:.1e}, vorticity drift {vorticity_drift:.1e}, "
        f"shear refinement orders {[round(o, 2) for o in orders]} [{elapsed:.1f}s]"
    )
    assert ns_monotone
    assert energy_drift <= 5e-3
    assert vorticity_drift <= 1e-2
    assert all(o >= 1.8 for o in orders), orders
    assert elapsed < 600.0


def test_criterion_7_energy_budget_refinement(acceptance_log):
    t0 = time.perf_counter()
    residuals = []
    # refine dt and the wall-normal grid together; the output sampling
    # follows dt so the rate stencil refines with the scheme
    for ny, dt, n_outputs in ((49, 4e-3, 10), (97, 2e-3, 20), (193, 1e-3, 40), (385, 5e-4, 80)):
        config = SimulationConfig(
            nx=8, ny=ny, nu=1e-2, dt=dt, t_final=0.2, n_outputs=n_outputs,
            preset="shear", amplitude=1.0,
        )
        pair = run_simulation(config)
        budget = energy_budget(pair.ns, pair.euler)
        residuals.append(float(np.abs(budget.residual).max()))
    orders = _orders(residuals)

    elapsed = time.perf_counter() - t0
    ok = all(o >= 1.8 for o in orders) and elapsed < 300.0
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 7: budget residual orders "
        f"{[round(o, 2) for o in orders]} [{elapsed:.1f}s]"
    )
    assert all(o >= 1.8 for o in orders), orders
    assert elapsed < 300.0


def _cn_heat_profile(v0, nu, t_final, ny, n_steps, height):
    """Independent Crank-Nicolson heat solve: Dirichlet wall, Neumann top."""
    y = np.linspace(0.0, height, ny)
    dy = y[1] - y[0]
    dt = t_final / n_steps
    w = np.asarray(v0(y), dtype=float)[1:].copy()
    n = w.size
    theta = 0.5 * nu * dt / dy**2
    diag = np.full(n, 1.0 + 2.0 * theta)
    upper = np.full(n, -theta)
    lower = np.full(n, -theta)
    lower[-1] = -2.0 * theta  # ghost node for zero slope at the top
    banded = np.zeros((3, n))
    banded[0, 1:] = upper[:-1]
    banded[1] = diag
    banded[2, :-1] = lower[1:]
    for _ in range(n_steps):
        rhs = w + theta * (np.roll(w, 1) - 2.0 * w + np.roll(w, -1))
        rhs[0] = w[0] + theta * (-2.0 * w[0] + w[1])
        rhs[-1] = w[-1] + theta * (2.0 * w[-2] - 2.0 * w[-1])
        w = solve_banded((1, 1), banded, rhs)
    return y, np.concatenate(([0.0], w))


def test_criterion_8_oracle_equivalences(acceptance_log):
    t0 = time.perf_counter()

    # lp_norm against a brute-force quadrature loop
    rng = np.random.default_rng(11)
    grids = (
        make_channel_grid(12, 9, 2.0, 1.5, clustering="uniform"),
        make_channel_grid(8, 13, 2.0 * np.pi, 3.0, clustering="tanh", strength=2.0),
    )
    p_cycle = (1.0, 2.0, 3.0, np.inf)
    worst_rel = 0.0
    for i in range(100):
        g = grids[i % 2]
        p = p_cycle[i % 4]
        values = rng.normal(size=g.shape)
        got = lp_norm(ScalarField(g, values), p)
        dx = g.period / g.nx
        wy = np.zeros(g.ny)
        wy[1:] += 0.5 * np.diff(g.y)
        wy[:-1] += 0.5 * np.diff(g.y)
        if np.isinf(p):
            expect = max(abs(values[ix, iy]) for ix in range(g.nx) for iy in range(g.ny))
        else:
            total = math.fsum(
                dx * wy[iy] * abs(values[ix, iy]) ** p
                for ix in range(g.nx)
                for iy in range(g.ny)
            )
            expect = total ** (1.0 / p)
        worst_rel = max(worst_rel, abs(got - expect) / expect)

    # ShearFlow's series against an independent Crank-Nicolson heat solver
    height, nu, t_final = 6.0, 5e-2, 0.25
    lam = lambda m: (m + 0.5) * np.pi / height
    v0 = lambda y: np.sin(lam(0) * y) - 0.4 * np.sin(lam(2) * y)
    flow = ShearFlow([1.0, 0.0, -0.4], height)
    cn_errors = []
    for ny in (33, 65, 129, 257):
        y, w = _cn_heat_profile(v0, nu, t_final, ny, 2 * (ny - 1), height)
        exact = flow.profile(y, nu, t_final)
        cn_errors.append(float(np.abs(w - exact).max()))
    cn_orders = _orders(cn_errors)

    # gronwall_envelope against the closed form e^{2t} - 1
    times = np.linspace(0.0, 1.0, 11)
    gronwall_gap = float(
        np.abs(gronwall_envelope(times, 1.0, 1.0) - np.expm1(2.0 * times)).max()
    )

    elapsed = time.perf_counter() - t0
    ok = (
        worst_rel <= 1e-12
        and all(o >= 1.9 for o in cn_orders)
        and gronwall_gap <= 1e-12
        and elapsed < 60.0
    )
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 8: lp_norm rel dev {worst_rel:.1e}, "
        f"Crank-Nicolson orders {[round(o, 2) for o in cn_orders]}, gronwall gap "
        f"{gronwall_gap:.1e} [{elapsed:.1f}s]"
    )
    assert worst_rel <= 1e-12
    assert all(o >= 1.9 for o in cn_orders), cn_orders
    assert gronwall_gap <= 1e-12
    assert elapsed < 60.0


def test_criterion_9_determinism(acceptance_log, tmp_path):
    config = SweepConfig(
        nx=16, ny=33, dt=5e-3, t_final=0.05, n_outputs=5,
        preset="perturbed-shear", seed=12, nu_values=(1e-2, 1e-3, 1e-4),
    )
    dirs = (tmp_path / "first", tmp_path / "second")
    emit_report(run_sweep(config, jobs=1), dirs[0])
    emit_report(run_sweep(config, jobs=2), dirs[1])

    identical = {
        name: (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("sweep.csv", "rates.json")
    }
    json.loads((dirs[0] / "rates.json").read_text())  # sanity: valid JSON

    ok = all(identical.values())
    acceptance_log(
        f"{'PASS' if ok else 'FAIL'} criterion 9: byte-identical reports across "
        f"repeated runs (serial vs 2 workers): {identical}"
    )
    assert ok, identical
