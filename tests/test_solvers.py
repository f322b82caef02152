import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MatrixSystem, cycle_errors, replay_residuals, trace_errors
from losem import solvers
from losem.cli import _pairing_defect
from losem.experiment import consistent_data
from losem.kl_core import (
    PixelGrid,
    SinogramGrid,
    kl_distance,
    normalize_to_simplex,
    save_rows,
    uniform_density,
)
from losem.operators import RadonSystem
from losem.solvers import (
    SolverConfig,
    block_residuals,
    em_step,
    loping_osem_run,
    osem_run,
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
    x0 = uniform_density(system.pixel_grid)
    vals, trace = osem_run(x0, system, data, cycles=6, x_star=x_star)
    assert len(trace) == 6 * system.n_blocks
    assert trace.n_cycles == 6
    errs = trace_errors(trace)
    assert len(errs) == len(trace) + 1
    assert np.all(np.diff(errs) <= 1e-12)
    # replayed, no step raises its block's residual
    res, after = replay_residuals(x0, system, data, trace)
    assert np.all(after <= res + 1e-12)
    ce = cycle_errors(trace)
    assert len(ce) == 7
    assert ce[0] == pytest.approx(errs[0]) and ce[-1] == trace.final_error


def test_trace_csv_format(small_setup, tmp_path):
    system, x_star = small_setup
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid)
    _, trace = osem_run(x0, system, data, cycles=2, x_star=x_star)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,cycle,block,performed,residual,step_kl,error_kl,drift"
    assert len(lines) == 1 + 2 * system.n_blocks
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "0", "1"]
    assert float(first[4]) > 0.0


def test_trace_csv_rows_are_the_trace_columns(small_setup, tmp_path):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid)
    cfg = SolverConfig(tau=1.5, gamma=0.5, delta=np.full(N, 0.05), max_cycles=50)
    _, trace, _ = loping_osem_run(x0, system, data, cfg, x_star=x_star)
    assert any(trace.performed) and not all(trace.performed)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    columns = zip(trace.step, trace.cycle, trace.block, trace.performed,
                  trace.residual, trace.step_kl, trace.error_kl, trace.drift)
    assert path.read_text().splitlines()[1:] == [
        f"{k},{c},{j},{int(p)},{r!r},{s!r},{e!r},{d!r}"
        for k, c, j, p, r, s, e, d in columns
    ]
    assert trace.step == list(range(len(trace)))
    assert trace.cycle == [k // N for k in trace.step]
    assert trace.block == [k % N for k in trace.step]
    assert not hasattr(trace, "residuals")


def test_delta_zero_loping_is_bitwise_osem(small_setup):
    system, x_star = small_setup
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid)
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
    x0 = uniform_density(grid)
    v_run, _ = osem_run(x0, system, data, cycles=3)
    x = x0
    for _ in range(3):
        x = em_step(x, system, 0, data[0])
    npt.assert_array_equal(v_run, x)


def test_loping_stops_and_reports(small_setup, tmp_path):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid)
    # pretend noise bounds large enough that loping kicks in quickly
    delta = np.full(N, 0.05)
    cfg = SolverConfig(tau=1.5, gamma=0.5, delta=delta, max_cycles=50)
    vals, trace, report = loping_osem_run(
        x0, system, data, cfg, x_star=x_star
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
    assert np.all(np.diff(trace_errors(trace)) <= 1e-8)
    path = tmp_path / "stop.txt"
    save_rows(path, report.pairs(), "=")
    text = path.read_text()
    assert "stopped_by_rule=true" in text
    assert f"k_star={report.k_star}" in text


@pytest.mark.parametrize("n_deltas", [2, 8])
def test_delta_needs_one_entry_per_block(small_setup, n_deltas):
    system, x_star = small_setup
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid)
    cfg = SolverConfig(gamma=0.05, delta=np.full(n_deltas, 0.01))
    with pytest.raises(ValueError, match="one entry per block"):
        loping_osem_run(x0, system, data, cfg)


def test_loping_skips_do_not_change_the_iterate(small_setup):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid)
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
    x0 = uniform_density(system.pixel_grid)
    # thresholds far below reach: the rule never fires before the cap
    cfg = SolverConfig(tau=1.5, gamma=1e-9, delta=np.full(N, 1e-9), max_cycles=3)
    _, trace, report = loping_osem_run(x0, system, data, cfg)
    assert not report.stopped_by_rule
    assert report.k_star is None and report.cycles == 3
    path = tmp_path / "stop.txt"
    save_rows(path, report.pairs(), "=")
    assert "k_star=max_cycles_reached" in path.read_text()


def test_skip_condition_far_vs_near(small_setup):
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid)
    cfg = SolverConfig(tau=1.5, gamma=0.5, delta=np.full(N, 0.01), max_cycles=3)
    # at the solution the residuals vanish, so the first cycle is skipped
    _, trace, report = loping_osem_run(x_star, system, data, cfg)
    assert not any(trace.performed) and report.k_star == 0
    # far from the solution the residual dominates the threshold
    _, trace, _ = loping_osem_run(x0, system, data, cfg)
    assert trace.performed[0]


class CountingSystem:
    """A system that counts its ``forward`` calls, keeps a copy of each
    iterate it projects, and passes everything else through."""

    def __init__(self, system):
        self.system = system
        self.forward_calls = 0
        self.iterates = []

    def __getattr__(self, name):
        return getattr(self.system, name)

    def forward(self, x, j):
        self.forward_calls += 1
        self.iterates.append(x.copy())
        return self.system.forward(x, j)


@pytest.mark.parametrize("gamma,delta", [(0.5, 0.05)], ids=["gamma"])
def test_stopped_loping_reports_from_its_skipped_cycle(small_setup, gamma, delta,
                                                       monkeypatch):
    # the fully skipped last cycle evaluated every block at the final
    # iterate, so the report needs no forward beyond one per step
    system, x_star = small_setup
    N = system.n_blocks
    data = consistent_data(x_star, system)
    x0 = uniform_density(system.pixel_grid)
    cfg = SolverConfig(tau=1.5, gamma=gamma, delta=np.full(N, delta), max_cycles=50)
    counting = CountingSystem(system)
    grid_kl_calls = 0

    def counting_kl(v, u, weights=None):
        nonlocal grid_kl_calls
        grid_kl_calls += np.shape(v) == system.pixel_grid.shape
        return kl_distance(v, u, weights)

    monkeypatch.setattr(solvers, "kl_distance", counting_kl)
    x, trace, report = loping_osem_run(x0, counting, data, cfg, x_star=x_star)
    assert report.stopped_by_rule
    assert counting.forward_calls == len(trace)
    # a skipped step leaves the iterate, so its error is not computed again:
    # one error per iterate and one step distance per performed step
    assert grid_kl_calls == 1 + 2 * sum(trace.performed)
    # the trace is the one with the error computed at every step, bit for bit
    w = system.node_weights
    assert trace.error_kl == [kl_distance(x_star, it, w) for it in counting.iterates]
    assert trace.final_error == kl_distance(x_star, x, w)
    assert np.array_equal(report.final_residuals, block_residuals(x, system, data))
    # the thresholds are the config's
    assert np.array_equal(report.thresholds, cfg.tau * cfg.gamma * cfg.delta)
    assert np.all(report.final_residuals <= report.thresholds)


# ---------------------------------------------------------------------------
# properties on dense matrix systems


@given(st.integers(2, 8), st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_osem_on_consistent_data_keeps_mass_and_never_raises_the_error(
        n_nodes, n_blocks, n_samples, cycles, seed):
    """OS-EM on consistent data keeps the iterate's mass at one, and no step
    raises KL(x*, x).

    Assumptions, as for the EM-Kaczmarz iteration of arXiv 0810.3619: every
    block's kernel is positive; its adjoint in the quadrature pairings maps
    ones to ones; the data of block j are exactly A_j x* for one positive
    unit-mass x*; the start is positive with unit mass.  A step is then an
    EM step on a consistent system, which keeps the mass before the
    renormalization and lowers KL(x*, x) by at least KL(y_j, A_j x) (Jensen's
    inequality), so the errors can rise only by rounding.  A block of one
    sample carries only the mass, and its steps leave x as it is.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, n_nodes)
    w /= w.sum()
    b = rng.uniform(0.5, 1.5, n_samples) / n_samples
    system = MatrixSystem(rng.uniform(0.1, 1.0, (n_blocks, n_samples, n_nodes)), w, b)
    x_star = rng.uniform(0.1, 1.0, n_nodes)
    x_star /= np.sum(w * x_star)
    data = [system.forward(x_star, j) for j in range(n_blocks)]
    x0 = np.ones(n_nodes) / np.sum(w)

    x, trace = osem_run(x0, system, data, cycles, x_star=x_star)
    assert abs(float(np.sum(w * x)) - 1.0) <= 1e-12
    assert np.all(np.abs(trace.drift) <= 1e-12)
    # KL(x*, x) sums terms of size about the unit masses, so its rounding
    # is absolute, about 1e-16
    errors = trace_errors(trace)
    assert np.all(np.diff(errors) <= 1e-12)


# the noise level is drawn on a log scale: at levels near 1 the thresholds
# exceed every residual from the start, and the rule performs no step
@given(st.integers(2, 8), st.integers(1, 4), st.integers(2, 6), st.floats(-4.0, -0.05),
       st.floats(1.0, 3.0, exclude_min=True), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_loping_on_noisy_data_never_raises_the_error_and_stops_within_the_bound(
        n_nodes, n_blocks, n_samples, log_level, tau, seed):
    """On noisy data, no step the loping rule performs raises KL(x*, x), and
    a run the rule stops has k* <= StopReport.step_bound.

    Assumptions, as for the loping EM-Kaczmarz iteration of arXiv 0810.3619:
    those of the consistent-data property for the system, x* and the start;
    noisy blocks y_j that are positive with unit b-mass, at the b-weighted L1
    distance delta_j from A_j x*; and gamma = max(|log(m1/M)|, |log(M1/m)|),
    with [m, M] the range of the kernels A_j/w over all blocks and [m1, M1]
    that of the noisy data, so that |log(y_j/A_j x)| <= gamma at every
    unit-mass x.  Jensen's inequality and the exact adjoint give
    KL(x*, x+) <= KL(x*, x) - KL(y_j, A_j x) + gamma*delta_j.  A step
    performed while KL(y_j, A_j x) > tau*gamma*delta_j, tau > 1, so lowers
    the error by more than (tau - 1)*gamma*delta_j, and at most
    KL(x*, x0) / ((tau - 1)*gamma*min_j delta_j) cycles perform a step.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, n_nodes)
    w /= w.sum()
    b = rng.uniform(0.5, 1.5, n_samples) / n_samples
    system = MatrixSystem(rng.uniform(0.1, 1.0, (n_blocks, n_samples, n_nodes)), w, b)
    x_star = rng.uniform(0.1, 1.0, n_nodes)
    x_star /= np.sum(w * x_star)
    level = 10.0 ** log_level
    data, delta = [], np.empty(n_blocks)
    for j in range(n_blocks):
        clean = system.forward(x_star, j)
        y = clean * rng.uniform(1.0 - level, 1.0 + level, n_samples)
        y /= np.sum(b * y)
        data.append(y)
        delta[j] = np.sum(b * np.abs(y - clean))
    m = min(float(np.min(A / w)) for A in system.matrices)
    M = max(float(np.max(A / w)) for A in system.matrices)
    m1 = min(float(np.min(y)) for y in data)
    M1 = max(float(np.max(y)) for y in data)
    gamma = max(abs(math.log(m1 / M)), abs(math.log(M1 / m)))
    x0 = np.ones(n_nodes) / np.sum(w)

    cfg = SolverConfig(tau=tau, gamma=gamma, delta=delta, max_cycles=100)
    _, trace, report = loping_osem_run(x0, system, data, cfg, x_star=x_star)
    # the rounding allowance of the consistent-data property
    rises = np.diff(trace_errors(trace))
    assert np.all(rises[np.asarray(trace.performed)] <= 1e-12)
    if report.stopped_by_rule:
        assert report.k_star <= report.step_bound


def test_exact_data_descent_fails_on_a_coarse_radon_system_but_not_on_its_exact_adjoint():
    """A documented limit of the discretization, not a solver property.

    On a coarse sampling (nine domain nodes, three blocks of three angles,
    five radii) the backprojection is far from the exact adjoint of the
    circular means (``verify``'s pairing defect is 0.15, against at most
    0.014 on the bundled configs), and OS-EM on consistent data raises
    KL(x*, x) by 8% of KL(x*, x0) at one step.  The same shifted blocks,
    assembled densely from unit vectors on the domain nodes and given the
    exact adjoint by ``MatrixSystem``, lower the error at every step, as the
    paper proves for exact adjoints.
    """
    grid = PixelGrid(8, 0.5)
    sino = SinogramGrid(n_blocks=3, n_phi=3, n_r=4)
    system = RadonSystem(grid, sino, 0.01, 1)
    idx = np.flatnonzero(grid.mask)
    raw = np.zeros(grid.shape)
    raw.ravel()[idx] = [0.11, 0.91, 0.49, 0.67, 0.61, 0.51, 0.78, 0.65, 0.61]
    x_star = normalize_to_simplex(raw, grid.node_weights)
    data = consistent_data(x_star, system)
    x0 = uniform_density(grid)
    assert _pairing_defect(system, x0, data) == pytest.approx(0.15454051711199188,
                                                              rel=1e-9)
    _, trace = osem_run(x0, system, data, 8, x_star=x_star)
    errors = trace_errors(trace)
    assert np.diff(errors).max() > 0.05 * errors[0]

    def column(j, k):
        e_k = np.zeros(grid.shape)
        e_k.ravel()[k] = 1.0
        return system.forward(e_k, j).ravel()

    w = grid.node_weights.ravel()[idx]
    b = np.full(sino.n_phi * (sino.n_r + 1), sino.sample_weight)
    dense = MatrixSystem(
        [np.stack([column(j, k) for k in idx], axis=1) for j in range(sino.n_blocks)],
        w, b)
    xd = x_star.ravel()[idx]
    data = [dense.forward(xd, j) for j in range(sino.n_blocks)]
    _, trace = osem_run(np.ones(len(idx)) / w.sum(), dense, data, 8, x_star=xd)
    assert np.diff(trace_errors(trace)).max() < 0.0
