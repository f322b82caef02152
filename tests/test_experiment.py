import importlib.resources
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_density, assert_unit_blocks, cycle_errors
from losem.experiment import (
    Disc,
    NoiseSpec,
    PhantomSpec,
    add_poisson_noise,
    consistent_data,
    oracle_stopped_osem,
    realized_deltas,
    reblock,
    render_phantom,
    simulate_clean_base,
    simulate_data,
)
from losem.config import load_config
from losem.kl_core import (PixelGrid, SinogramGrid, normalize_to_simplex,
                           uniform_density, weighted_l1)
from losem.operators import RadonSystem, SmoothingKernel, smooth_radial
from losem.solvers import osem_run


# ---------------------------------------------------------------------------
# phantoms


def test_disc_and_spec_validation():
    with pytest.raises(ValueError):
        Disc(0.0, 0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        Disc(0.0, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        PhantomSpec(())
    spec = PhantomSpec((Disc(0.9, 0.0, 0.3, 1.0),))
    with pytest.raises(ValueError, match="domain"):
        spec.validate_inside(1.0)


def test_render_phantom_mass_and_profile():
    grid = PixelGrid(128, 0.02)
    spec = PhantomSpec((Disc(0.0, 0.0, 0.5, 2.0),))
    x = render_phantom(spec, grid)
    assert_density(x, grid)
    # constant inside, zero outside, value 1/(pi R^2) after normalization
    center = x[64, 64]
    assert center == pytest.approx(1.0 / (math.pi * 0.25), rel=0.02)
    assert x[64, 110] == 0.0  # (0, ~0.72) is outside the disc
    # two discs superpose before normalization
    two = render_phantom(
        PhantomSpec((Disc(0.0, 0.0, 0.5, 2.0), Disc(0.0, 0.0, 0.2, 2.0))), grid
    )
    assert two[64, 64] > two[64, 90]


@given(
    st.integers(2, 40), st.floats(0.05, 0.6),
    st.lists(st.tuples(st.floats(0.15, 0.85), st.floats(0.15, 0.85),
                       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 2.0)),
             min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_phantom_check_agrees_with_testing_every_node(n_t, epsilon, placements):
    # discs near nodes, of radius 0.01 to 2 node spacings: the check passes
    # exactly when some domain node lies inside a disc
    try:
        grid = PixelGrid(n_t, epsilon)
    except ValueError:
        assume(False)
    h = grid.spacing
    spec = PhantomSpec(tuple(
        Disc(-1.0 + h * (math.floor(u * n_t) + fx), -1.0 + h * (math.floor(v * n_t) + fy),
             r * h, 1.0)
        for u, v, fx, fy, r in placements
    ))
    try:
        spec.validate_inside(grid.radius)
    except ValueError:
        assume(False)
    x, y = grid.nodes[:, None], grid.nodes[None, :]
    inside = np.zeros(grid.shape, dtype=bool)
    for d in spec.discs:
        inside |= (x - d.cx) ** 2 + (y - d.cy) ** 2 <= d.radius ** 2
    if np.any(inside & grid.mask):
        spec.check_on(grid)
        assert_density(render_phantom(spec, grid), grid)
    else:
        with pytest.raises(ValueError, match="no domain node"):
            spec.check_on(grid)


def test_phantom_check_rejects_an_overflowing_density():
    # each amplitude and the mass bound are finite, but the two discs share
    # the centre node, where the render would sum past the float range
    grid = PixelGrid(32, 1.0 / 16.0)
    discs = (Disc(0.0, 0.0, 0.01, 1.7e308), Disc(0.0, 0.0, 0.02, 1.7e308))
    with pytest.raises(ValueError, match="overflow the phantom's density"):
        PhantomSpec(discs).check_on(grid)
    # amplitudes whose sum stays finite render
    x = render_phantom(PhantomSpec((Disc(0.0, 0.0, 0.01, 9e307),
                                    Disc(0.0, 0.0, 0.02, 8e307))), grid)
    assert np.all(np.isfinite(x))
    assert_density(x, grid)


def test_render_phantom_rejects_escaping_disc():
    grid = PixelGrid(32, 0.1)
    with pytest.raises(ValueError, match="domain"):
        render_phantom(PhantomSpec((Disc(0.8, 0.0, 0.2, 1.0),)), grid)


# ---------------------------------------------------------------------------
# clean data


SINO = SinogramGrid(n_blocks=4, n_phi=16, n_r=64)
W = SINO.sample_weight  # of the blocks of ``sim_setup`` and ``clean_blocks``


@pytest.fixture(scope="module")
def sim_setup():
    spec = PhantomSpec((Disc(0.0, 0.0, 0.4, 1.0), Disc(0.45, 0.3, 0.18, 2.0)))
    grid = PixelGrid(64, 2.0 / 64.0)
    sino = SINO
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    return spec, grid, sino, system


def test_simulate_data_blocks_are_normalized(sim_setup):
    spec, grid, sino, system = sim_setup
    blocks = simulate_data(spec, system, oversample=2)
    assert len(blocks) == 4
    assert_unit_blocks(blocks, sino.sample_weight)
    for b in blocks:
        assert b.shape == sino.block_shape


def test_simulate_data_node_cap(sim_setup):
    spec, grid, sino, system = sim_setup
    with pytest.raises(ValueError, match="cap"):
        simulate_data(spec, system, oversample=4, max_nodes=1000)


def test_oversample_self_convergence():
    # discretization stability of the simulated data
    spec = PhantomSpec((Disc(0.0, 0.0, 0.4, 1.0), Disc(0.45, 0.3, 0.18, 2.0)))
    grid = PixelGrid(100, 0.02)
    sino = SinogramGrid(n_blocks=5, n_phi=20, n_r=100)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    b1 = simulate_data(spec, system, oversample=1)
    b2 = simulate_data(spec, system, oversample=2)
    b4 = simulate_data(spec, system, oversample=4)
    worst14 = max(
        weighted_l1(x, y, sino.sample_weight) for x, y in zip(b1, b4)
    )
    worst24 = max(
        weighted_l1(x, y, sino.sample_weight) for x, y in zip(b2, b4)
    )
    assert worst14 <= 0.02
    assert worst24 <= 0.01


def _disc_data(spec: PhantomSpec, n_angles: int, n_r: int, K: int) -> np.ndarray:
    """The simulated data of the disc phantom ``spec`` in closed form, on
    the unsplit angle set.

    The circle of radius r around a detector at distance D from the centre
    of a disc of radius R lies inside the disc for the fraction
    arccos((D^2 + r^2 - R^2)/(2Dr))/pi of its length, the argument clipped
    to [-1, 1] for circles inside the disc, disjoint from it or around it.
    Each disc adds fraction * r * amplitude; the sum is smoothed and scaled
    to unit mass under the sample weight, as ``simulate_clean_base`` does.
    """
    sino = SinogramGrid(n_blocks=1, n_phi=n_angles, n_r=n_r)
    r = sino.radii[1:]
    out = np.zeros((n_angles, n_r + 1))
    for d in spec.discs:
        D = np.hypot(np.cos(sino.angles) - d.cx, np.sin(sino.angles) - d.cy)[:, None]
        cos = np.clip((D * D + r * r - d.radius ** 2) / (2.0 * D * r), -1.0, 1.0)
        out[:, 1:] += d.amplitude * r * np.arccos(cos) / math.pi
    return normalize_to_simplex(smooth_radial(out, SmoothingKernel(n_r, K)),
                                sino.sample_weight)


def test_simulated_data_converge_to_the_closed_form_at_first_order():
    # compare_table.cfg's phantom and sampling: each doubling of the
    # oversample factor halves the distance to the closed form (measured
    # ratios 2.03 and 2.22, distances 2.83e-2, 1.39e-2 and 6.29e-3), and at
    # the configured factor 4 the discretization error is about an eighth
    # of the noise level
    configs = importlib.resources.files("losem") / "configs"
    cfg = load_config(configs / "compare_table.cfg")
    exact = _disc_data(cfg.phantom, cfg.n_angle, cfg.n_r, cfg.K)
    weight = SinogramGrid(n_blocks=1, n_phi=cfg.n_angle, n_r=cfg.n_r).sample_weight
    d1, d2, d4 = (
        weighted_l1(simulate_clean_base(cfg.phantom, cfg.pixel_grid(), cfg.n_angle,
                                        cfg.n_r, cfg.K, oversample), exact, weight)
        for oversample in (1, 2, 4)
    )
    # first order: a ratio within [1.8, 2.6] per doubling
    assert 1.8 <= d1 / d2 <= 2.6 and 1.8 <= d2 / d4 <= 2.6
    assert d4 < cfg.noise_level / 5


@given(st.floats(0.1, 0.6), st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=40, deadline=None)
def test_simulated_off_centre_disc_is_near_its_closed_form(R, place, theta):
    # one disc of radius R, its centre at least 0.05 off the origin, on a
    # 40 x 40 grid with 16 angles: over 587 draws (off-centre discs at
    # random and on the node lattice, radii on multiples of the finest
    # spacing among them) the distance read at most 0.47 h/R at oversample
    # 1 and 0.42 h/R at 4 (h the simulation grid's spacing), and
    # oversampling by 4 cut it at least 2.06-fold
    grid = PixelGrid(40, 0.05)
    rho = 0.05 + place * (grid.radius - R - 0.05)
    spec = PhantomSpec((Disc(rho * math.cos(theta), rho * math.sin(theta), R, 1.0),))
    exact = _disc_data(spec, 16, 40, 1)
    weight = SinogramGrid(n_blocks=1, n_phi=16, n_r=40).sample_weight
    d1, d4 = (weighted_l1(simulate_clean_base(spec, grid, 16, 40, 1, oversample),
                          exact, weight) for oversample in (1, 4))
    assert d1 <= 0.6 * grid.spacing / R
    assert d4 <= 0.6 * grid.spacing / 4 / R
    assert d4 <= d1 / 1.5


def test_reblock_matches_direct_simulation(sim_setup):
    spec, grid, sino, system = sim_setup
    base = simulate_clean_base(spec, grid, sino.n_angles, sino.n_r, 1, oversample=2)
    assert base.shape == (sino.n_angles, sino.n_r + 1)
    # unit mass under the sample weight of the unsplit (single-block) grid
    assert_unit_blocks([base], SinogramGrid(1, sino.n_angles, sino.n_r).sample_weight)
    blocks = reblock(base, sino)
    assert_unit_blocks(blocks, sino.sample_weight)
    direct = simulate_data(spec, system, oversample=2)
    for a, b in zip(blocks, direct):
        npt.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError, match="match"):
        reblock(blocks[0], sino)
    with pytest.raises(ValueError, match="match"):
        reblock(base, SinogramGrid(n_blocks=4, n_phi=16, n_r=32))


def test_consistent_data_is_exact_forward(sim_setup):
    spec, grid, sino, system = sim_setup
    x_star = render_phantom(spec, grid)
    data = consistent_data(x_star, system)
    for j, y in enumerate(data):
        npt.assert_array_equal(y, system.forward(x_star, j))


# ---------------------------------------------------------------------------
# Poisson noise


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(level=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(level=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(level=0.05, counts_scale=-1.0)


@pytest.fixture(scope="module")
def clean_blocks(sim_setup):
    spec, grid, sino, system = sim_setup
    return simulate_data(spec, system, oversample=2)


def test_noise_is_deterministic_per_seed(clean_blocks):
    a, _ = add_poisson_noise(clean_blocks, W, NoiseSpec(level=0.05, seed=42))
    b, _ = add_poisson_noise(clean_blocks, W, NoiseSpec(level=0.05, seed=42))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c, _ = add_poisson_noise(clean_blocks, W, NoiseSpec(level=0.05, seed=43))
    assert not np.array_equal(a[0], c[0])


def test_noise_hits_target_window(clean_blocks):
    for seed in (0, 1, 2):
        _, info = add_poisson_noise(clean_blocks, W, NoiseSpec(level=0.05, seed=seed))
        assert 0.045 <= info["aggregate_error"] <= 0.055
        assert info["algorithm"] == "numpy-philox"


def test_noise_calibration_lands_by_bisection_where_its_guess_misses():
    # 16 equal samples: the first guess, (2/pi)/level^2 = 15.9, realizes an
    # error outside the 10% window, and the bisection finds a scale inside it
    blocks, w, level = [np.ones(16)], 1.0 / 16.0, 0.2
    noisy, info = add_poisson_noise(blocks, w, NoiseSpec(level, None, seed=0))
    assert info["counts_scale"] != (2.0 / math.pi) / level ** 2
    assert abs(info["aggregate_error"] - level) <= 0.1 * level
    # the recorded scale redraws the same noise
    again, _ = add_poisson_noise(blocks, w, NoiseSpec(level, info["counts_scale"], 0))
    assert np.array_equal(again[0], noisy[0])


def test_noise_blocks_stay_normalized(sim_setup, clean_blocks):
    noisy, _ = add_poisson_noise(clean_blocks, W, NoiseSpec(level=0.05, seed=7))
    assert_unit_blocks(noisy, W)
    assert np.all(realized_deltas(clean_blocks, noisy, W) > 0.0)
    # the unsplit data of compare mode, under the single-block grid's weight
    spec, grid, sino, _ = sim_setup
    base = simulate_clean_base(spec, grid, sino.n_angles, sino.n_r, 1, oversample=2)
    w = SinogramGrid(1, sino.n_angles, sino.n_r).sample_weight
    (noisy_base,), _ = add_poisson_noise([base], w, NoiseSpec(level=0.05, seed=7))
    assert_unit_blocks([noisy_base], w)
    assert_unit_blocks(reblock(noisy_base, sino), W)


def test_large_counts_scale_means_tiny_noise(clean_blocks):
    noisy, info = add_poisson_noise(
        clean_blocks, W, NoiseSpec(level=0.05, counts_scale=1e8, seed=0)
    )
    assert info["counts_scale"] == 1e8
    assert_unit_blocks(noisy, W)
    assert np.all(realized_deltas(clean_blocks, noisy, W) <= 1e-3)


def test_tiny_counts_scale_raises(clean_blocks):
    with pytest.raises(FloatingPointError, match="signal"):
        add_poisson_noise(
            clean_blocks, W, NoiseSpec(level=0.05, counts_scale=1e-8, seed=0)
        )


@pytest.mark.parametrize("level,counts_scale", [
    (5e-324, None),   # the calibration's first guess is infinite
    (1e-200, None),   # squaring the calibration's first guess overflows
    (1e-12, None),    # the guess is finite, but too large for a Poisson draw
    (0.05, 1e300),
])
def test_undrawable_counts_scale_raises(clean_blocks, level, counts_scale):
    with pytest.raises(FloatingPointError, match="counts scale"):
        add_poisson_noise(clean_blocks, W, NoiseSpec(level, counts_scale, seed=0))


def test_realized_deltas_are_definitional(clean_blocks):
    noisy, _ = add_poisson_noise(clean_blocks, W, NoiseSpec(level=0.05, seed=3))
    expect = [weighted_l1(c, n, W) for c, n in zip(clean_blocks, noisy)]
    npt.assert_allclose(realized_deltas(clean_blocks, noisy, W), expect, rtol=1e-15)


# ---------------------------------------------------------------------------
# oracle stopping


def test_oracle_stopped_osem_picks_the_minimum(sim_setup, clean_blocks):
    spec, grid, sino, system = sim_setup
    x_star = render_phantom(spec, grid)
    noisy, _ = add_poisson_noise(clean_blocks, W, NoiseSpec(level=0.05, seed=0))
    data = system.shift_data(noisy)
    x0 = uniform_density(grid)
    result = oracle_stopped_osem(x0, system, data, x_star, max_cycles=10)
    assert len(result.errors) == 11
    assert 1 <= result.best_cycle <= 10
    assert result.errors[result.best_cycle] == pytest.approx(
        float(np.min(result.errors[1:])), rel=1e-15
    )
    from losem.kl_core import kl_distance

    assert kl_distance(
        x_star, result.values, system.node_weights
    ) == pytest.approx(float(result.errors[result.best_cycle]), rel=1e-12)


def test_oracle_matches_one_uninterrupted_run(small_setup, two_disc_phantom):
    # the oracle's cycle errors and kept iterate are those of plain cyclic runs
    system, x_star = small_setup
    clean = simulate_data(two_disc_phantom, system, oversample=1)
    # at this noise level the best cycle (4) lies inside the run
    noisy, _ = add_poisson_noise(clean, system.sino_grid.sample_weight,
                                 NoiseSpec(level=0.2, seed=1))
    data = system.shift_data(noisy)
    x0 = uniform_density(system.pixel_grid)
    oracle = oracle_stopped_osem(x0, system, data, x_star, max_cycles=8)
    assert oracle.best_cycle < 8
    _, trace = osem_run(x0, system, data, 8, x_star=x_star)
    assert np.array_equal(oracle.errors, cycle_errors(trace))
    best, _ = osem_run(x0, system, data, oracle.best_cycle)
    assert np.array_equal(oracle.values, best)
    with pytest.raises(ValueError, match="data blocks"):
        oracle_stopped_osem(x0, system, data[:-1], x_star, max_cycles=1)
