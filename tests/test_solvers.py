import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_errors
from losem.experiment import consistent_data
from losem.kl_core import kl_distance, uniform_density
from losem.solvers import (
    SolverConfig,
    em_step,
    loping_osem_run,
    osem_run,
    tau_schedule,
)


# ---------------------------------------------------------------------------
# configuration


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ValueError, match="tau must be positive"):
        SolverConfig(tau=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=math.nan)
    with pytest.raises(ValueError):
        SolverConfig(delta=np.array([0.1, -0.1]))


def test_tau_schedule_pinned_value():
    # default slope: tau(0.05) = 1.5 / (1 + (25/1.5) * 0.05)
    assert tau_schedule(0.05, 1.5) == pytest.approx(0.81818, abs=1e-5)
    assert tau_schedule(0.0, 1.5) == 1.5
    with pytest.raises(ValueError):
        tau_schedule(0.05, 1.0)
    with pytest.raises(ValueError):
        tau_schedule(-0.01, 1.5)


@given(st.floats(0.0, 0.5), st.floats(1.0 + 1e-6, 5.0))
@settings(max_examples=100, deadline=None)
def test_tau_schedule_monotone_in_noise(delta, tau_inf):
    t = tau_schedule(delta, tau_inf)
    assert 0.0 < t <= tau_inf
    assert tau_schedule(delta + 0.1, tau_inf) < t or delta > 0.4


# ---------------------------------------------------------------------------
# single steps on the identity system


def test_em_step_solves_identity_problem_in_one_step(identity_system):
    y = np.array([0.6, 1.4])  # weighted mass 0.5*0.6 + 0.5*1.4 = 1
    x0 = np.array([1.0, 1.0])
    x1 = em_step(x0, identity_system, 0, y)
    npt.assert_array_equal(x1, y)
    assert kl_distance(y, x1, identity_system.node_weights) == 0.0


def test_em_step_from_generic_start_converges_to_data(identity_system):
    y = np.array([0.6, 1.4])
    x1 = em_step(np.array([1.8, 0.2]), identity_system, 0, y)
    npt.assert_allclose(x1, y, rtol=1e-12)


def test_em_step_degenerate_mass_raises(identity_system):
    with pytest.raises(FloatingPointError):
        em_step(np.array([1.0, 1.0]), identity_system, 0, np.zeros(2))


# ---------------------------------------------------------------------------
# runs and traces


def test_osem_trace_shape_and_monotone_error(small_setup):
    system, x_star = small_setup
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    vals, trace = osem_run(
        x0, system, data, cycles=6, x_star=x_star.values, audit=True
    )
    assert len(trace) == 6 * system.n_blocks
    assert trace.n_cycles == 6
    errs = trace.errors()
    assert len(errs) == len(trace) + 1
    assert np.all(np.diff(errs) <= 1e-12)
    # audit recorded post-step residuals, never above the pre-step ones
    res = np.asarray(trace.residual)
    after = np.asarray(trace.residual_after)
    assert np.all(after <= res + 1e-12)
    ce = cycle_errors(trace)
    assert len(ce) == 7
    assert ce[0] == pytest.approx(errs[0]) and ce[-1] == trace.final_error


def test_trace_csv_format(small_setup, tmp_path):
    system, x_star = small_setup
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    _, trace = osem_run(x0, system, data, cycles=2, x_star=x_star.values)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,cycle,block,performed,residual,step_kl,error_kl"
    assert len(lines) == 1 + 2 * system.n_blocks
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "0", "1"]
    assert float(first[4]) > 0.0


def test_delta_zero_loping_is_bitwise_osem(small_setup):
    system, x_star = small_setup
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    v_ref, _ = osem_run(x0, system, data, cycles=4)
    cfg = SolverConfig(delta=np.zeros(system.n_blocks), max_cycles=4)
    v_lop, trace, report = loping_osem_run(x0, system, data, cfg)
    assert np.array_equal(v_ref, v_lop)
    assert not report.stopped_by_rule
    assert report.k_star is None
    assert np.all(trace.performed)


def test_single_block_osem_is_bitwise_em(small_setup, two_disc_phantom):
    from losem.kl_core import SinogramGrid
    from losem.operators import RadonSystem
    from losem.experiment import render_phantom

    grid = small_setup[0].pixel_grid
    sino = SinogramGrid(n_blocks=1, n_phi=32, n_r=32)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    x_star = render_phantom(two_disc_phantom, grid)
    data = consistent_data(x_star, system)
    x0 = uniform_density(grid).values
    v_run, _ = osem_run(x0, system, data, cycles=3)
    x = x0
    for _ in range(3):
        x = em_step(x, system, 0, data[0])
    npt.assert_array_equal(v_run, x)


def test_loping_stops_and_reports(small_setup, tmp_path):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    # pretend noise bounds large enough that loping kicks in quickly
    delta = np.full(N, 0.05)
    cfg = SolverConfig(tau=1.5, gamma=0.5, delta=delta, max_cycles=50)
    vals, trace, report = loping_osem_run(
        x0, system, data, cfg, x_star=x_star.values
    )
    assert report.stopped_by_rule
    assert report.k_star is not None and report.k_star % N == 0
    assert report.k_star == (trace.n_cycles - 1) * N
    # the guarantee at the final iterate: every residual at or below threshold
    assert np.all(report.final_residuals <= report.thresholds + 1e-15)
    npt.assert_allclose(report.thresholds, 1.5 * 0.5 * delta, rtol=1e-15)
    # a finite step bound is reported and satisfied (x_star was supplied)
    assert math.isfinite(report.step_bound)
    assert report.k_star <= report.step_bound
    # every performed step kept the ground-truth error from rising
    assert np.all(np.diff(trace.errors()) <= 1e-8)
    path = tmp_path / "stop.txt"
    report.write_text(path)
    text = path.read_text()
    assert "stopped_by_rule=true" in text
    assert f"k_star={report.k_star}" in text


@pytest.mark.parametrize("n_deltas", [2, 8])
def test_delta_needs_one_entry_per_block(small_setup, n_deltas):
    system, x_star = small_setup
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    cfg = SolverConfig(gamma=0.05, delta=np.full(n_deltas, 0.01))
    with pytest.raises(ValueError, match="one entry per block"):
        loping_osem_run(x0, system, data, cfg)


def test_loping_skips_do_not_change_the_iterate(small_setup):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    cfg = SolverConfig(tau=1.5, gamma=0.5, delta=np.full(N, 0.05), max_cycles=50)
    _, trace, report = loping_osem_run(x0, system, data, cfg)
    performed = np.asarray(trace.performed)
    step_kl = np.asarray(trace.step_kl)
    assert np.all(step_kl[~performed] == 0.0)
    # the last cycle is fully skipped by construction
    last = np.asarray(trace.cycle) == trace.n_cycles - 1
    assert not performed[last].any()


def test_loping_max_cycles_sentinel(small_setup, tmp_path):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    # thresholds far below reach: the rule never fires before the cap
    cfg = SolverConfig(tau=1.5, gamma=1e-9, delta=np.full(N, 1e-9), max_cycles=3)
    _, trace, report = loping_osem_run(x0, system, data, cfg)
    assert not report.stopped_by_rule
    assert report.k_star is None and report.cycles == 3
    path = tmp_path / "stop.txt"
    report.write_text(path)
    assert "k_star=max_cycles_reached" in path.read_text()


def test_l2_condition_far_vs_near(small_setup):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    cfg = SolverConfig(tau=1.5, delta=np.full(N, 0.01), max_cycles=3)
    # at the solution the residuals vanish, so the first cycle is skipped
    _, trace, report = loping_osem_run(x_star.values, system, data, cfg)
    assert not any(trace.performed) and report.k_star == 0
    # far from the solution the residual dominates the threshold
    _, trace, _ = loping_osem_run(x0, system, data, cfg)
    assert trace.performed[0]


def test_l2_mode_full_run(small_setup):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid).values
    cfg = SolverConfig(tau=1.5, delta=np.full(N, 0.02), max_cycles=50)
    vals, trace, report = loping_osem_run(
        x0, system, data, cfg, x_star=x_star.values
    )
    assert report.stopped_by_rule
    assert report.gamma is None
    assert np.all(report.final_residuals <= report.thresholds + 1e-15)
