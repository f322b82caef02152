import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cycle_errors
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
from losem.kl_core import PixelGrid, SinogramGrid, uniform_density, weighted_l1
from losem.operators import RadonSystem
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
    assert x.mass == pytest.approx(1.0, abs=1e-12)
    # constant inside, zero outside, value 1/(pi R^2) after normalization
    center = x.values[64, 64]
    assert center == pytest.approx(1.0 / (math.pi * 0.25), rel=0.02)
    assert x.values[64, 110] == 0.0  # (0, ~0.72) is outside the disc
    # two discs superpose before normalization
    two = render_phantom(
        PhantomSpec((Disc(0.0, 0.0, 0.5, 2.0), Disc(0.0, 0.0, 0.2, 2.0))), grid
    )
    assert two.values[64, 64] > two.values[64, 90]


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
        render_phantom(spec, grid)
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
    assert np.all(np.isfinite(x.values)) and x.mass == pytest.approx(1.0)


def test_render_phantom_rejects_escaping_disc():
    grid = PixelGrid(32, 0.1)
    with pytest.raises(ValueError, match="domain"):
        render_phantom(PhantomSpec((Disc(0.8, 0.0, 0.2, 1.0),)), grid)


# ---------------------------------------------------------------------------
# clean data


@pytest.fixture(scope="module")
def sim_setup():
    spec = PhantomSpec((Disc(0.0, 0.0, 0.4, 1.0), Disc(0.45, 0.3, 0.18, 2.0)))
    grid = PixelGrid(64, 2.0 / 64.0)
    sino = SinogramGrid(n_blocks=4, n_phi=16, n_r=64)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    return spec, grid, sino, system


def test_simulate_data_blocks_are_normalized(sim_setup):
    spec, grid, sino, system = sim_setup
    blocks = simulate_data(spec, system, oversample=2)
    assert len(blocks) == 4
    for b in blocks:
        assert b.mass == pytest.approx(1.0, abs=1e-9)
        assert b.values.shape == sino.block_shape


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
        weighted_l1(x.values, y.values, sino.sample_weight) for x, y in zip(b1, b4)
    )
    worst24 = max(
        weighted_l1(x.values, y.values, sino.sample_weight) for x, y in zip(b2, b4)
    )
    assert worst14 <= 0.02
    assert worst24 <= 0.01


def test_reblock_matches_direct_simulation(sim_setup):
    spec, grid, sino, system = sim_setup
    base = simulate_clean_base(spec, grid, sino.n_angles, sino.n_r, 1, oversample=2)
    blocks = reblock(base, sino)
    direct = simulate_data(spec, system, oversample=2)
    for a, b in zip(blocks, direct):
        npt.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError, match="single-block"):
        reblock(blocks[0], sino)
    with pytest.raises(ValueError, match="match"):
        reblock(base, SinogramGrid(n_blocks=4, n_phi=16, n_r=32))


def test_consistent_data_is_exact_forward(sim_setup):
    spec, grid, sino, system = sim_setup
    x_star = render_phantom(spec, grid)
    data = consistent_data(x_star, system)
    for j, y in enumerate(data):
        npt.assert_array_equal(y, system.forward(x_star.values, j))


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
    a, _ = add_poisson_noise(clean_blocks, NoiseSpec(level=0.05, seed=42))
    b, _ = add_poisson_noise(clean_blocks, NoiseSpec(level=0.05, seed=42))
    for x, y in zip(a, b):
        assert np.array_equal(x.values, y.values)
    c, _ = add_poisson_noise(clean_blocks, NoiseSpec(level=0.05, seed=43))
    assert not np.array_equal(a[0].values, c[0].values)


def test_noise_hits_target_window(clean_blocks):
    for seed in (0, 1, 2):
        _, info = add_poisson_noise(clean_blocks, NoiseSpec(level=0.05, seed=seed))
        assert 0.045 <= info["aggregate_error"] <= 0.055
        assert info["algorithm"] == "numpy-philox"


def test_noise_blocks_stay_normalized(clean_blocks):
    noisy, _ = add_poisson_noise(clean_blocks, NoiseSpec(level=0.05, seed=7))
    for b in noisy:
        assert b.mass == pytest.approx(1.0, abs=1e-9)
    assert np.all(realized_deltas(clean_blocks, noisy) > 0.0)


def test_large_counts_scale_means_tiny_noise(clean_blocks):
    noisy, info = add_poisson_noise(
        clean_blocks, NoiseSpec(level=0.05, counts_scale=1e8, seed=0)
    )
    assert info["counts_scale"] == 1e8
    assert np.all(realized_deltas(clean_blocks, noisy) <= 1e-3)


def test_tiny_counts_scale_raises(clean_blocks):
    with pytest.raises(FloatingPointError, match="signal"):
        add_poisson_noise(
            clean_blocks, NoiseSpec(level=0.05, counts_scale=1e-8, seed=0)
        )


@pytest.mark.parametrize("level,counts_scale", [
    (5e-324, None),   # the calibration's first guess overflows
    (1e-12, None),    # the guess is finite, but too large for a Poisson draw
    (0.05, 1e300),
])
def test_undrawable_counts_scale_raises(clean_blocks, level, counts_scale):
    with pytest.raises(FloatingPointError, match="counts scale"):
        add_poisson_noise(clean_blocks, NoiseSpec(level, counts_scale, seed=0))


def test_realized_deltas_are_definitional(clean_blocks):
    noisy, _ = add_poisson_noise(clean_blocks, NoiseSpec(level=0.05, seed=3))
    w = clean_blocks[0].grid.sample_weight
    expect = [
        weighted_l1(c.values, n.values, w) for c, n in zip(clean_blocks, noisy)
    ]
    npt.assert_allclose(realized_deltas(clean_blocks, noisy, ord=1), expect, rtol=1e-15)
    d2 = realized_deltas(clean_blocks, noisy, ord=2)
    assert np.all(d2 > 0.0)


# ---------------------------------------------------------------------------
# oracle stopping


def test_oracle_stopped_osem_picks_the_minimum(sim_setup, clean_blocks):
    spec, grid, sino, system = sim_setup
    x_star = render_phantom(spec, grid)
    noisy, _ = add_poisson_noise(clean_blocks, NoiseSpec(level=0.05, seed=0))
    data = system.shift_data([b.values for b in noisy])
    x0 = uniform_density(grid).values
    result = oracle_stopped_osem(x0, system, data, x_star.values, max_cycles=10)
    assert len(result.errors) == 11
    assert 1 <= result.best_cycle <= 10
    assert result.errors[result.best_cycle] == pytest.approx(
        float(np.min(result.errors[1:])), rel=1e-15
    )
    from losem.kl_core import kl_distance

    assert kl_distance(
        x_star.values, result.values, system.node_weights
    ) == pytest.approx(float(result.errors[result.best_cycle]), rel=1e-12)


def test_oracle_matches_one_uninterrupted_run(small_setup, two_disc_phantom):
    # the oracle's cycle errors and kept iterate are those of plain cyclic runs
    system, x_star = small_setup
    clean = simulate_data(two_disc_phantom, system, oversample=1)
    # at this noise level the best cycle (4) lies inside the run
    noisy, _ = add_poisson_noise(clean, NoiseSpec(level=0.2, seed=1))
    data = system.shift_data([b.values for b in noisy])
    x0 = uniform_density(system.pixel_grid).values
    oracle = oracle_stopped_osem(x0, system, data, x_star.values, max_cycles=8)
    assert oracle.best_cycle < 8
    _, trace = osem_run(x0, system, data, 8, x_star=x_star.values)
    assert np.array_equal(oracle.errors, cycle_errors(trace))
    best, _ = osem_run(x0, system, data, oracle.best_cycle)
    assert np.array_equal(oracle.values, best)
    with pytest.raises(ValueError, match="data blocks"):
        oracle_stopped_osem(x0, system, data[:-1], x_star.values, max_cycles=1)
