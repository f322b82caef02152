import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_density, kl_l1_bound_check, load_matrix_csv
from losem.experiment import Disc, NoiseSpec, add_poisson_noise
from losem.kl_core import (
    PixelGrid,
    SinogramGrid,
    kl_distance,
    normalize_to_simplex,
    save_matrix_csv,
    save_pgm,
    save_rows,
    uniform_density,
    weighted_l1,
)
from losem.operators import RadonSystem, effective_bounds, smooth_radial
from losem.solvers import SolverConfig, osem_run

# ---------------------------------------------------------------------------
# grids


def test_pixel_grid_geometry():
    g = PixelGrid(10, 0.1)
    assert g.shape == (11, 11)
    assert g.spacing == pytest.approx(0.2)
    npt.assert_allclose(g.nodes[[0, 5, 10]], [-1.0, 0.0, 1.0])
    # corners lie outside the disc domain, the center inside
    assert not g.mask[0, 0]
    assert g.mask[5, 5]
    assert g.node_weights[5, 5] == pytest.approx(g.cell_measure)
    assert g.node_weights[0, 0] == 0.0


def test_pixel_grid_mask_is_strict():
    # nodes exactly on the domain circle are excluded
    g = PixelGrid(4, 0.5)  # radius 0.5, node (0.5, 0) on the circle
    i = np.searchsorted(g.nodes, 0.5)
    assert g.nodes[i] == 0.5
    assert not g.mask[i, 2]


def test_pixel_grid_weight_total_approximates_disc_area():
    g = PixelGrid(400, 0.02)
    area = math.pi * (1 - 0.02) ** 2
    assert float(g.node_weights.sum()) == pytest.approx(area, rel=1e-3)


def test_pixel_grid_validation():
    with pytest.raises(ValueError):
        PixelGrid(1, 0.1)
    with pytest.raises(ValueError):
        PixelGrid(10, 0.0)
    with pytest.raises(ValueError):
        PixelGrid(10, 1.0)


def test_normalize_rejects_negative_node_values():
    g = PixelGrid(8, 0.1)
    with pytest.raises(ValueError, match="negative"):
        normalize_to_simplex(np.where(g.mask, -1.0, 0.0), g.node_weights)


def test_uniform_density_is_constant_inside():
    g = PixelGrid(16, 0.1)
    u = uniform_density(g)
    assert_density(u, g)
    inside = u[g.mask]
    assert np.all(inside == inside[0])


def test_domain_nodes_index_the_mask_once_per_grid():
    g = PixelGrid(16, 0.1)
    assert np.array_equal(g.domain_nodes, np.flatnonzero(g.mask.ravel()))
    assert g.domain_nodes is g.domain_nodes
    assert not g.domain_nodes.flags.writeable


def test_sinogram_grid_blocks_tile_the_circle():
    sg = SinogramGrid(n_blocks=4, n_phi=3, n_r=10)
    assert sg.n_angles == 12
    npt.assert_allclose(sg.angles, 2 * math.pi * np.arange(12) / 12)
    npt.assert_allclose(sg.block_angles(2), sg.angles[6:9])
    assert sg.block_measure == pytest.approx(math.pi)
    # per-block weights sum to the block measure
    total = sg.sample_weight * sg.n_phi * (sg.n_r + 1)
    assert total == pytest.approx(sg.block_measure)
    assert sg.radii[0] == 0.0 and sg.radii[-1] == 2.0
    with pytest.raises(ValueError):
        sg.block_angles(4)


# ---------------------------------------------------------------------------
# KL distance: pinned values


def test_kl_identical_is_zero():
    assert kl_distance((0.5, 0.5), (0.5, 0.5)) == 0.0


def test_kl_pinned_scalar_values():
    # d((1,0),(0.5,0.5)) = (ln2 - 1 + 0.5) + (0 - 0 + 0.5) = ln2
    assert kl_distance((1.0, 0.0), (0.5, 0.5)) == pytest.approx(
        math.log(2.0), rel=1e-12
    )
    # probability pair: d((0.2,0.8),(0.5,0.5)) = 0.192745...
    assert kl_distance((0.2, 0.8), (0.5, 0.5)) == pytest.approx(
        0.2 * math.log(0.4) + 0.8 * math.log(1.6), rel=1e-12
    )
    assert kl_distance((0.2, 0.8), (0.5, 0.5)) == pytest.approx(0.1927448, abs=1e-7)


def test_kl_zero_log_zero_convention():
    # v = 0 contributes only the +u term regardless of u
    assert kl_distance((0.0,), (0.3,)) == pytest.approx(0.3, rel=1e-15)


def test_kl_infinite_sentinel():
    assert kl_distance((1.0, 0.2), (1.0, 0.0)) == math.inf
    # but u = 0 where v = 0 is harmless
    assert kl_distance((1.0, 0.0), (1.0, 0.0)) == 0.0


def test_kl_weights_scale_the_sum():
    v = np.array([0.2, 0.8])
    u = np.array([0.5, 0.5])
    assert kl_distance(v, u, weights=2.0) == pytest.approx(
        2.0 * kl_distance(v, u), rel=1e-14
    )
    w = np.array([1.0, 0.0])
    assert kl_distance(v, u, w) == pytest.approx(
        0.2 * math.log(0.4) - 0.2 + 0.5, rel=1e-12
    )


def test_kl_rejects_negative_and_mismatched():
    with pytest.raises(ValueError):
        kl_distance((-0.1, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        kl_distance((0.5,), (0.5, 0.5))


def test_l1_bound_pinned_example():
    # |v-u|_1^2 = 0.36 <= (2/3 + 4/3) * 0.192745 = 0.38549
    v = np.array([0.2, 0.8])
    u = np.array([0.5, 0.5])
    assert weighted_l1(v, u) ** 2 == pytest.approx(0.36, rel=1e-12)
    assert kl_l1_bound_check(v, u)


def _reference_kl_distance(v, u, weights=None):
    """The first form of kl_distance, kept as the reference: masks, a
    temporary per operation, and the same formula in the same order."""
    v = np.asarray(v, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if v.shape != u.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {u.shape}")
    w = np.float64(1.0) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.ndim and w.shape != v.shape:
        raise ValueError(f"weights shape {w.shape} does not match {v.shape}")
    if np.any(v < 0.0) or np.any(u < 0.0):
        raise ValueError("kl arguments must be nonnegative")
    pos = v > 0.0
    if np.any(pos & (u == 0.0)):
        return math.inf
    logterm = np.zeros_like(v)
    np.log(np.divide(v, u, out=np.ones_like(v), where=pos), out=logterm, where=pos)
    total = float(np.sum(w * (v * logterm - v + u)))
    return max(total, 0.0)


@st.composite
def _kl_arguments(draw, elements):
    """(v, u, weights) of one shape, weights None, a scalar or an array."""
    shape = draw(st.sampled_from([(1,), (7,), (3, 4), (9, 10)]))
    v = draw(arrays(np.float64, shape, elements=elements))
    u = draw(arrays(np.float64, shape, elements=elements))
    nonneg = st.floats(0.0, 10.0)
    weights = draw(st.one_of(st.none(), nonneg, arrays(np.float64, shape, elements=nonneg)))
    return v, u, weights


_ZERO_OR_POSITIVE = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@given(_kl_arguments(_ZERO_OR_POSITIVE))
# v > 0 = u in one entry: inf, with a scalar weight
@example((np.array([[0.0, 1.0], [0.5, 0.0]]), np.array([[0.0, 0.5], [0.0, 0.2]]), 2.0))
@settings(max_examples=200, deadline=None)
def test_kl_returns_the_reference_bits(args):
    # zeros in v (0*log 0 = 0), in u (inf where v > 0) and in both
    assert kl_distance(*args) == _reference_kl_distance(*args)


@given(_kl_arguments(st.one_of(_ZERO_OR_POSITIVE, st.just(-0.5), st.just(math.nan))))
@settings(max_examples=100, deadline=None)
def test_kl_raises_where_the_reference_raises(args):
    try:
        expected = _reference_kl_distance(*args)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            kl_distance(*args)
    else:
        assert np.array_equal(kl_distance(*args), expected, equal_nan=True)


# ---------------------------------------------------------------------------
# KL distance: properties on random simplex pairs


def _simplexes(n=4):
    pos = arrays(
        np.float64, (n,),
        elements=st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False),
    )
    return pos.map(lambda a: a / a.sum())


@given(_simplexes(), _simplexes())
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative_and_zero_iff_equal(v, u):
    d = kl_distance(v, u)
    assert d >= 0.0
    if np.array_equal(v, u):
        assert d == 0.0
    assert kl_distance(v, v) == 0.0
    if d == 0.0:
        npt.assert_allclose(v, u, rtol=1e-7, atol=1e-12)


@given(_simplexes(), _simplexes())
@settings(max_examples=200, deadline=None)
def test_kl_l1_bound_random(v, u):
    assert kl_l1_bound_check(v, u, slack=1e-10)


@given(_simplexes(), _simplexes(), _simplexes(), _simplexes(),
       st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_kl_joint_convexity(v1, u1, v2, u2, s):
    lhs = kl_distance(s * v1 + (1 - s) * v2, s * u1 + (1 - s) * u2)
    rhs = s * kl_distance(v1, u1) + (1 - s) * kl_distance(v2, u2)
    assert lhs <= rhs + 1e-10


@given(_simplexes(), st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_normalize_scale_invariant_and_idempotent(v, c):
    n1 = normalize_to_simplex(c * v)
    npt.assert_allclose(n1, v, rtol=1e-12, atol=1e-15)
    npt.assert_allclose(normalize_to_simplex(n1), n1, rtol=1e-12, atol=1e-15)


def test_normalize_pinned_example_and_errors():
    npt.assert_allclose(
        normalize_to_simplex([1.0, 3.0], weights=[0.5, 0.5]), [0.5, 1.5]
    )
    with pytest.raises(ValueError):
        normalize_to_simplex([-1.0, 2.0])
    with pytest.raises(ValueError):
        normalize_to_simplex([0.0, 0.0])


# ---------------------------------------------------------------------------
# serialization


def test_rows_text_rule(tmp_path):
    path = tmp_path / "rows.csv"
    save_rows(path, [("a b", True, False, 7, -3), ("", 2.5, 1e300, "0.10")])
    # strings verbatim, bools as 0 and 1, ints and floats by repr
    assert path.read_text() == "a b,1,0,7,-3\n,2.5,1e+300,0.10\n"


def test_rows_floats_round_trip(tmp_path):
    values = [1.0 / 3.0, 1e-17, -0.0, 0.1, 5e-324, math.inf, math.nan]
    path = tmp_path / "floats.csv"
    save_rows(path, [values])
    back = [float(t) for t in path.read_text().rstrip("\n").split(",")]
    assert back[:-1] == values[:-1] and math.isnan(back[-1])
    assert math.copysign(1.0, back[2]) == -1.0


def test_rows_key_value_lines(tmp_path):
    path = tmp_path / "report.txt"
    save_rows(path, [("k_star", "12"), ("tau", 1.5), ("stopped", True)], "=")
    assert path.read_text() == "k_star=12\ntau=1.5\nstopped=1\n"


def test_matrix_csv_round_trip(tmp_path):
    arr = np.array([[0.1, 1.0 / 3.0], [1e-17, 12345.678]])
    path = tmp_path / "m.csv"
    save_matrix_csv(path, arr)
    back = load_matrix_csv(path)
    npt.assert_array_equal(back, arr)  # repr round-trips doubles exactly
    with pytest.raises(ValueError):
        save_matrix_csv(path, np.zeros(3))


def test_pgm_format_and_sidecar(tmp_path):
    arr = np.array([[0.0, 0.5], [1.5, 3.0]])
    path = tmp_path / "img.pgm"
    save_pgm(path, arr)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    pix = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2").reshape(2, 2)
    assert pix[0, 0] == 0 and pix[1, 1] == 65535
    scale = (tmp_path / "img.scale").read_text()
    assert "min=0.0" in scale and "max=3.0" in scale


def test_pgm_constant_image(tmp_path):
    path = tmp_path / "flat.pgm"
    save_pgm(path, np.full((2, 3), 7.0))
    raw = path.read_bytes()
    pix = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
    assert np.all(pix == 0)


# ---------------------------------------------------------------------------
# library inputs


# input from outside the program that the library rejects, by name: the
# error message and a call, which gets a two-block system on an 8 x 8 grid
# and a scratch directory
LIBRARY_INPUTS = {
    "sinogram-blocks": ("n_blocks must be >= 1", lambda s, path: SinogramGrid(0, 4, 8)),
    "sinogram-radii": ("n_r must be >= 2", lambda s, path: SinogramGrid(1, 4, 1)),
    "kl-weights": ("weights shape",
                   lambda s, path: kl_distance(np.ones(3), np.ones(3), np.ones(2))),
    "pgm-ndim": ("expected a 2D array",
                 lambda s, path: save_pgm(path / "a.pgm", np.zeros(3))),
    "smoothing-radii": ("radial axis has 5 samples",
                        lambda s, path: smooth_radial(np.zeros(5), s.kernel)),
    "forward-shape": ("density shape",
                      lambda s, path: s.ops[0].forward_raw(np.zeros((3, 3)))),
    "backprojection-shape": ("block shape",
                             lambda s, path: s.ops[0].backproject(np.zeros((1, 9)))),
    "bounds-of-infinite-data": ("non-finite", lambda s, path: effective_bounds(
        s, [np.full(s.sino_grid.block_shape, np.inf)] * 2)),
    "run-block-count": ("expected 2 data blocks", lambda s, path: osem_run(
        uniform_density(s.pixel_grid), s, [np.ones((2, 9))], 1)),
    "noise-bound-without-gamma": ("a nonzero noise bound needs a gamma",
                                  lambda s, path: SolverConfig(delta=[0.1, 0.0])),
    "noise-without-blocks": ("no data blocks",
                             lambda s, path: add_poisson_noise([], 1.0, NoiseSpec())),
    "nan-noise-bounds": ("nonnegative and finite",
                         lambda s, path: SolverConfig(delta=np.full(2, math.nan))),
    "infinite-noise-bound": ("nonnegative and finite",
                             lambda s, path: SolverConfig(delta=[0.1, math.inf])),
    "infinite-tau": ("tau must be positive and finite",
                     lambda s, path: SolverConfig(tau=math.inf)),
    "nan-tau": ("tau must be positive and finite",
                lambda s, path: SolverConfig(tau=math.nan)),
    "nan-disc-radius": ("disc radius must be positive",
                        lambda s, path: Disc(0.0, 0.0, math.nan, 1.0)),
    "nan-disc-amplitude": ("disc amplitude must be positive",
                           lambda s, path: Disc(0.0, 0.0, 0.3, math.nan)),
    "nan-disc-centre": ("disc centre must be finite",
                        lambda s, path: Disc(math.nan, 0.0, 0.3, 1.0)),
    "infinite-disc-centre": ("disc centre must be finite",
                             lambda s, path: Disc(0.0, -math.inf, 0.3, 1.0)),
}


@pytest.mark.parametrize("name", LIBRARY_INPUTS)
def test_library_functions_reject_unusable_input(tmp_path, name):
    message, call = LIBRARY_INPUTS[name]
    system = RadonSystem(PixelGrid(8, 0.25), SinogramGrid(2, 2, 8), lam=0.01, K=1)
    with pytest.raises(ValueError, match=message):
        call(system, tmp_path)
    assert not any(tmp_path.iterdir())
