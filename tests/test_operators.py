import importlib.resources
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from losem import operators
from losem.cli import _pairing_defect, main
from losem.config import load_config
from losem.kl_core import (ConfigError, PixelGrid, SinogramGrid, normalize_to_simplex,
                           uniform_density)
from losem.operators import (
    EffectiveBounds,
    RadonBlockOperator,
    RadonSystem,
    SmoothingKernel,
    effective_bounds,
    smooth_radial,
    support_forward,
)
from losem.experiment import Disc, PhantomSpec, render_phantom, simulate_clean_base


# ---------------------------------------------------------------------------
# radial smoothing


def test_kernel_weights_are_triangular_and_sum_to_one():
    k = SmoothingKernel(20, 3)
    npt.assert_allclose(k.weights.sum(), 1.0, rtol=1e-15)
    npt.assert_allclose(k.weights * 9.0, [0, 1, 2, 3, 2, 1, 0], rtol=1e-12)
    assert k.epsilon == pytest.approx(0.3)


def test_kernel_validation():
    with pytest.raises(ValueError):
        SmoothingKernel(20, 0)
    with pytest.raises(ValueError):
        SmoothingKernel(20, 11)  # > n_r / 2


def test_smoothing_impulse_response():
    k = SmoothingKernel(20, 2)
    x = np.zeros(21)
    x[10] = 1.0
    y = smooth_radial(x, k)
    npt.assert_allclose(y[8:13], [0.0, 0.25, 0.5, 0.25, 0.0])
    assert y.sum() == pytest.approx(1.0)


def test_smoothing_preserves_interior_constants():
    k = SmoothingKernel(20, 2)
    y = smooth_radial(np.ones(21), k)
    npt.assert_allclose(y[2:-2], 1.0, rtol=1e-14)
    # zero extension bites at the edges
    assert y[0] < 1.0 and y[-1] < 1.0


def test_smoothing_k1_is_bitwise_identity():
    k = SmoothingKernel(20, 1)
    x = np.random.default_rng(0).random((5, 21))
    assert np.array_equal(smooth_radial(x, k), x)


# ---------------------------------------------------------------------------
# block operator geometry


def _system_op(grid, sino, j, kernel) -> RadonBlockOperator:
    """A block operator given the domain's circle geometry, as a system's
    are: it builds its rows of the domain once and keeps them."""
    table = operators._corner_table(grid, grid.mask)
    geometry = operators._circle_geometry(grid, sino, table)
    return RadonBlockOperator(grid, sino, j, kernel, geometry)


@pytest.fixture(scope="module")
def op_setup():
    grid = PixelGrid(60, 2.0 / 60.0)
    sino = SinogramGrid(n_blocks=3, n_phi=10, n_r=60)
    kernel = SmoothingKernel(60, 1)
    ops = [_system_op(grid, sino, j, kernel) for j in range(3)]
    return grid, sino, ops


# a margin of 0.05 where K = 2 at n_r = 20 needs 0.2
MARGIN_CFG = """\
mode = em
n_t = 20
n_r = 20
n_angle = 4
K = 2
epsilon = 0.05
disc = 0.0 0.0 0.4 1.0
"""


@pytest.mark.parametrize("caller", ["system", "config", "simulation"])
def test_operator_rejects_margin_smaller_than_kernel(caller, tmp_path):
    # one rule, operators._check_margin, for each caller
    grid = PixelGrid(20, 0.05)
    if caller == "system":
        sino = SinogramGrid(n_blocks=1, n_phi=4, n_r=20)
        with pytest.raises(ValueError, match="margin"):
            RadonSystem(grid, sino, lam=0.01, K=2)
    elif caller == "config":
        path = tmp_path / "margin.cfg"
        path.write_text(MARGIN_CFG)
        with pytest.raises(ConfigError, match="margin"):
            load_config(path)
        assert main(["verify", str(path), "--quiet"]) == 2
    else:
        spec = PhantomSpec((Disc(0.0, 0.0, 0.4, 1.0),))
        with pytest.raises(ValueError, match="margin"):
            simulate_clean_base(spec, grid, n_angles=4, n_r=20, K=2, oversample=1)


def test_forward_is_linear(op_setup):
    grid, sino, ops = op_setup
    rng = np.random.default_rng(1)
    x = np.where(grid.mask, rng.random(grid.shape), 0.0)
    y = np.where(grid.mask, rng.random(grid.shape), 0.0)
    f = ops[1].forward
    npt.assert_allclose(
        f(2.5 * x - 0.5 * y), 2.5 * f(x) - 0.5 * f(y), rtol=1e-12, atol=1e-12
    )


def test_forward_vanishes_at_zero_radius(op_setup):
    grid, sino, ops = op_setup
    x = uniform_density(grid)
    for op in ops:
        assert np.all(op.forward(x)[:, 0] == 0.0)


@pytest.mark.parametrize("projection", ["system", "simulation"])
def test_forward_centered_disc_matches_law_of_cosines(projection):
    # circle of radius 1 around a boundary point covers an arc of the
    # centered disc R = 0.5 with half-angle arccos(0.875); the system's
    # cached rows and the simulation's streamed ones both match it
    R = 0.5
    grid = PixelGrid(200, 2.0 / 200.0)
    sino = SinogramGrid(n_blocks=1, n_phi=4, n_r=200)
    kernel = SmoothingKernel(200, 1)
    x = render_phantom(PhantomSpec((Disc(0.0, 0.0, R, 1.0),)), grid)
    if projection == "system":
        out = _system_op(grid, sino, 0, kernel).forward(x)
    else:
        out = support_forward(grid, sino, kernel, x)
    i_r = 100  # r = 1.0
    expected = math.acos(0.875) / math.pi / (math.pi * R * R)
    assert out[0, i_r] == pytest.approx(expected, rel=0.02)
    assert expected == pytest.approx(0.2048, abs=2e-4)


def test_forward_rotation_equivariance():
    # rotating the phantom by one block sector permutes the block outputs
    grid = PixelGrid(120, 2.0 / 120.0)
    sino = SinogramGrid(n_blocks=4, n_phi=6, n_r=120)
    kernel = SmoothingKernel(120, 1)
    ops = [_system_op(grid, sino, j, kernel) for j in range(4)]
    d = 0.35
    x0 = render_phantom(PhantomSpec((Disc(d, 0.0, 0.2, 1.0),)), grid)
    x1 = render_phantom(PhantomSpec((Disc(0.0, d, 0.2, 1.0),)), grid)  # +90 deg
    a = ops[0].forward(x0)
    b = ops[1].forward(x1)
    scale = np.abs(a).max()
    assert np.abs(a - b).max() / scale < 1e-2


def _chunk_entries(op: RadonBlockOperator):
    """Per angle, the sample, the cell and the four corner weights of each
    point the chunks of the domain's rows hold, pad entries dropped, in
    their order; every pad entry, wherever it sits in its row, points at
    the corner table's last cell and weighs zero."""
    last = (op.pixel_grid.n_t + 3) ** 2 - 1
    chunks = op._chunks
    for a in range(op.sino_grid.n_phi):
        sample, cells, w = [], [], []
        for s0, s1, c, wc in chunks:
            pad = c[a] == last
            wa = wc[a].reshape(*c[a].shape, 4)
            assert not np.any(wa[pad])
            sample.append(np.broadcast_to(np.arange(s0, s1)[:, None], pad.shape)[~pad])
            cells.append(c[a][~pad])
            w.append(wa[~pad])
        yield np.concatenate(sample), np.concatenate(cells), np.concatenate(w)


def _angle_rows(pixel_grid: PixelGrid, phi: float, geometry, cand: np.ndarray):
    """Sparse rows of the angle ``phi`` from the ascending circle point
    indices ``cand`` of ``geometry`` (see :func:`_circle_geometry`): the
    corner-table cell and the four corner weights of every candidate point
    in a cell that passes the geometry's cell test, radius by radius, and
    the index of each radius's first point among them."""
    (off, coef, first), on_support, _ = geometry
    cells = np.empty(len(cand), dtype=np.intp)
    cs = np.array([[math.cos(phi)], [math.sin(phi)]])
    u, i = operators._point_cells(pixel_grid.n_t, cs, off, cand, cells)
    near = on_support.take(cells)
    kept = cand[near]
    # the kept points' fractions, a coordinate at a time: a boolean index
    # along one axis copies runs of points fast, one over (2, n) does not
    f, g = np.empty((2, len(kept))), np.empty((2, len(kept)))
    for d in range(2):
        np.subtract(u[d][near], i[d][near], out=f[d])
    w = np.empty((len(kept), 4))
    operators._point_weights(f, g, coef.take(kept), w)
    return np.searchsorted(kept, first), cells[near], w


def _streamed_entries(grid: PixelGrid, angles: np.ndarray, geometry):
    """Per angle, the sample, the cell and the four corner weights of each
    point of the simulation's compacted windows (see
    ``operators._kept_rows``), in their order."""
    per_angle = [[] for _ in angles]
    for s0, s1, sizes, cells, w in operators._kept_rows(grid, angles, geometry):
        ends = np.cumsum(sizes.sum(axis=1))
        for a, (lo, hi) in enumerate(zip(ends - sizes.sum(axis=1), ends)):
            per_angle[a].append((np.repeat(np.arange(s0, s1), sizes[a]),
                                 cells[lo:hi], w[lo:hi]))
    for bands in per_angle:
        yield tuple(np.concatenate(part) for part in zip(*bands))


def _bilinear_gather(values: np.ndarray, ix, iy, fx, fy) -> np.ndarray:
    """Sample a node array at points, zero outside the square."""
    n_t = values.shape[0] - 1

    def corner(i, j):
        valid = (i >= 0) & (i <= n_t) & (j >= 0) & (j <= n_t)
        v = values[np.clip(i, 0, n_t), np.clip(j, 0, n_t)]
        return np.where(valid, v, 0.0)

    v00 = corner(ix, iy)
    v01 = corner(ix, iy + 1)
    v10 = corner(ix + 1, iy)
    v11 = corner(ix + 1, iy + 1)
    lo = v00 + fy * (v01 - v00)
    hi = v10 + fy * (v11 - v10)
    return lo + fx * (hi - lo)


def _gather_forward_raw(op: RadonBlockOperator, x: np.ndarray) -> np.ndarray:
    """Reference circular means: one bilinear gather per angle and radius,
    with n_omega(r) = max(8, ceil(3*r*n_t)) equally weighted points."""
    n_t = op.pixel_grid.n_t
    sg = op.sino_grid
    out = np.zeros(sg.block_shape)
    for a, phi in enumerate(sg.block_angles(op.j)):
        for i, r in enumerate(sg.radii[1:], start=1):
            n_om = max(8, math.ceil(3.0 * r * n_t))
            theta = 2.0 * math.pi * np.arange(n_om) / n_om
            ux = (math.cos(phi) + r * np.cos(theta) + 1.0) * (n_t / 2.0)
            uy = (math.sin(phi) + r * np.sin(theta) + 1.0) * (n_t / 2.0)
            ix = np.floor(ux).astype(np.int32)
            iy = np.floor(uy).astype(np.int32)
            vals = _bilinear_gather(x, ix, iy, ux - ix, uy - iy)
            out[a, i] = vals.sum() * (r * sg.n_blocks / n_om)
    return out


@pytest.mark.parametrize("n_t,n_blocks,n_phi,K", [(40, 4, 5, 1), (64, 1, 64, 1), (60, 3, 4, 3)])
def test_sparse_rows_match_gather_reference(n_t, n_blocks, n_phi, K):
    grid = PixelGrid(n_t, 2.0 * K / n_t)
    sino = SinogramGrid(n_blocks=n_blocks, n_phi=n_phi, n_r=n_t)
    kernel = SmoothingKernel(n_t, K)
    rng = np.random.default_rng(n_t)
    x = np.where(grid.mask, rng.random(grid.shape), 0.0)
    streamed = support_forward(grid, sino, kernel, x)
    table = operators._corner_table(grid, x)
    geometry = operators._circle_geometry(grid, sino, table)
    for j in range(n_blocks):
        op = _system_op(grid, sino, j, kernel)
        ref = _gather_forward_raw(op, x)
        npt.assert_allclose(op.forward_raw(x), ref, rtol=1e-13, atol=0.0)
        npt.assert_allclose(op.forward(x), smooth_radial(ref, kernel), rtol=1e-13, atol=0.0)
        npt.assert_allclose(streamed[j * n_phi : (j + 1) * n_phi],
                            smooth_radial(ref, kernel), rtol=1e-13, atol=0.0)
        # the two paths sum a row in different orders, so their rows are
        # compared: the streamed rows of a density nonzero on the whole
        # domain are the cached chunks' points
        streamed_rows = _streamed_entries(grid, sino.block_angles(j), geometry)
        for own, cached in zip(streamed_rows, _chunk_entries(op)):
            for a, b in zip(own, cached):
                assert np.array_equal(a, b)


def _interp_backproject(op: RadonBlockOperator, y: np.ndarray) -> np.ndarray:
    """Reference backprojection: per angle, ``np.interp`` in the radius of
    the data extended by one zero sample, averaged over the angles."""
    grid, sg = op.pixel_grid, op.sino_grid
    tx, ty = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    radii = np.append(sg.radii, sg.radii[-1] + (sg.radii[1] - sg.radii[0]))
    out = np.zeros(grid.shape)
    for a, phi in enumerate(sg.block_angles(op.j)):
        rho = np.hypot(tx - math.cos(phi), ty - math.sin(phi))
        out += np.interp(rho, radii, np.append(y[a], 0.0))
    return np.where(grid.mask, out / sg.n_phi, 0.0)


@pytest.mark.parametrize("n_t,n_blocks,n_phi,K", [(40, 4, 5, 1), (64, 1, 64, 1), (60, 3, 4, 3)])
def test_backprojection_matches_interp_reference(n_t, n_blocks, n_phi, K):
    grid = PixelGrid(n_t, 2.0 * K / n_t)
    sino = SinogramGrid(n_blocks=n_blocks, n_phi=n_phi, n_r=n_t)
    kernel = SmoothingKernel(n_t, K)
    y = np.random.default_rng(n_t).random(sino.block_shape)
    for j in range(n_blocks):
        op = _system_op(grid, sino, j, kernel)
        npt.assert_allclose(op.backproject(y), _interp_backproject(op, y),
                            rtol=1e-13, atol=0.0)


def _whole_plan(op: RadonBlockOperator):
    """The domain's node indices and the plan's chunks joined into one
    (n_phi, nodes) index and fraction array each."""
    chunks = op._adjoint_plan
    return (op.pixel_grid.domain_nodes,
            np.concatenate([lo for _, _, lo, _ in chunks], axis=1),
            np.concatenate([fr for _, _, _, fr in chunks], axis=1))


def _loop_backproject(op: RadonBlockOperator, y: np.ndarray) -> np.ndarray:
    """Reference backprojection: the plan's angles accumulated one by one,
    a gather, multiply and two adds per angle."""
    sg = op.sino_grid
    idx, lo, fr = _whole_plan(op)
    padded = np.zeros((sg.n_phi, sg.n_r + 2))
    padded[:, :-1] = y
    flat = padded.ravel()
    # y0 + fr*(y1 - y0), summed angle by angle
    diff = flat[1:] - flat[:-1]
    acc = np.zeros(len(idx))
    for lo_a, fr_a in zip(lo, fr):
        vals = diff.take(lo_a)
        vals *= fr_a
        vals += flat.take(lo_a)
        acc += vals
    acc /= sg.n_phi
    out = np.zeros(op.pixel_grid.shape)
    out.ravel()[idx] = acc
    return out


@pytest.fixture(scope="module")
def backprojection_ops():
    """Block operators by geometry: the benchmark's (em-exact-64's one
    block, compare_table.cfg's blocks at N = 10 and N = 20) and two small
    ones, with one and with three angles per block."""
    configs = importlib.resources.files("losem") / "configs"
    em = load_config(configs / "exact_em_64.cfg")
    compare = load_config(configs / "compare_table.cfg")
    ops = {"em-64": em.build_system().ops,
           "N=10": compare.build_system(10).ops,
           "N=20": compare.build_system(20).ops}
    for n_t, n_blocks, n_phi in [(20, 2, 1), (24, 3, 3)]:
        grid = PixelGrid(n_t, 2.0 / n_t)
        sino = SinogramGrid(n_blocks=n_blocks, n_phi=n_phi, n_r=n_t)
        kernel = SmoothingKernel(n_t, 1)
        ops[f"n_phi={n_phi}"] = [_system_op(grid, sino, j, kernel) for j in range(n_blocks)]
    return ops


@pytest.mark.parametrize("geometry", ["em-64", "N=10", "N=20", "n_phi=1", "n_phi=3"])
def test_backprojection_matches_the_per_angle_loop(geometry, backprojection_ops):
    # the contraction sums the angles in another order than the loop: each
    # of the n_phi terms of a node moves by a few ulps of max|y| at most
    rng = np.random.default_rng(3)
    for op in backprojection_ops[geometry]:
        y = rng.random(op.sino_grid.block_shape) + 0.5
        atol = 4 * op.sino_grid.n_phi * np.finfo(np.float64).eps * np.abs(y).max()
        npt.assert_allclose(op.backproject(y), _loop_backproject(op, y),
                            rtol=0.0, atol=atol)


def _whole_plan_backproject(op: RadonBlockOperator, y: np.ndarray) -> np.ndarray:
    """Reference backprojection: each term gathered over the whole plan and
    contracted over the angles by one einsum call."""
    sg = op.sino_grid
    idx, lo, fr = _whole_plan(op)
    padded = np.zeros((sg.n_phi, sg.n_r + 2))
    padded[:, :-1] = y
    flat = padded.ravel()
    acc = np.einsum("ij,ij->j", (flat[1:] - flat[:-1]).take(lo), fr)
    acc += np.einsum("ij->j", flat.take(lo))
    acc /= sg.n_phi
    out = np.zeros(op.pixel_grid.shape)
    out.ravel()[idx] = acc
    return out


@pytest.mark.parametrize("plan_entries", ["bundled", "floor", "whole"])
@pytest.mark.parametrize("geometry", ["em-64", "N=10", "N=20", "n_phi=1", "n_phi=3"])
def test_backprojection_equals_the_whole_plan_contraction(geometry, plan_entries,
                                                          backprojection_ops,
                                                          monkeypatch):
    # on chunks of 64 nodes or more einsum sums each node's angles in the
    # whole plan's order: the chunked contraction gives the same bits with
    # the bundled chunk size, with every chunk at the 64-node floor, and
    # with one chunk holding the whole plan
    ops = backprojection_ops[geometry]
    if plan_entries != "bundled":
        entries = {"floor": 1, "whole": 2 ** 62}[plan_entries]
        monkeypatch.setattr(operators, "_PLAN_ENTRIES", entries)
        ops = [RadonBlockOperator(op.pixel_grid, op.sino_grid, op.j, op.kernel,
                                  op._geometry) for op in ops]
    rng = np.random.default_rng(5)
    for op in ops:
        chunks = op._adjoint_plan
        widths = [c1 - c0 for c0, c1, _, _ in chunks]
        n_dom = len(op.pixel_grid.domain_nodes)
        # contiguous chunks over the domain, equal to within one node
        assert [c0 for c0, _, _, _ in chunks] == [0, *np.cumsum(widths)[:-1].tolist()]
        assert sum(widths) == n_dom and max(widths) - min(widths) <= 1
        assert min(widths) >= 64 or widths == [n_dom]
        if plan_entries == "floor":
            assert max(widths) < 128
        elif plan_entries == "whole":
            assert widths == [n_dom]
        for y in (rng.random(op.sino_grid.block_shape) + 0.5,
                  np.ones(op.sino_grid.block_shape)):
            assert np.array_equal(op.backproject(y), _whole_plan_backproject(op, y))


@pytest.mark.parametrize("geometry", ["em-64", "N=10", "N=20"])
def test_backprojection_holds_one_chunk_sized_gather(geometry, backprojection_ops):
    # beyond the kept plan, one call holds one gather of a chunk's size and
    # a few node-sized arrays: a gather of the whole plan exceeds this
    op = backprojection_ops[geometry][0]
    gather = max(lo.nbytes for _, _, lo, _ in op._adjoint_plan)
    y = np.random.default_rng(4).random(op.sino_grid.block_shape)
    tracemalloc.start()
    try:
        op.backproject(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= gather + 4 * 8 * (op.pixel_grid.n_t + 1) ** 2


def _hypot_adjoint_plan(op: RadonBlockOperator):
    """Reference radial index and fraction of the backprojection plan, with
    each node-to-detector distance from np.hypot."""
    grid, sg = op.pixel_grid, op.sino_grid
    idx = np.flatnonzero(grid.mask.ravel())
    tx = grid.nodes[idx // (grid.n_t + 1)]
    ty = grid.nodes[idx % (grid.n_t + 1)]
    angles = sg.block_angles(op.j)[:, None]
    u = np.hypot(tx - np.cos(angles), ty - np.sin(angles)) * (sg.n_r / 2.0)
    lo = np.floor(u).astype(np.intp)
    return lo + np.arange(sg.n_phi)[:, None] * (sg.n_r + 2), u - lo


@pytest.mark.parametrize("name", ["exact_em_64.cfg", "loping_n10.cfg",
                                  "compare_table.cfg"])
def test_adjoint_plan_matches_a_hypot_plan_on_the_bundled_configs(name):
    # sqrt(dx*dx + dy*dy) and hypot round apart by an ulp.  Where a distance
    # is a whole number of sample spacings (the centre node lies at 1 from
    # every detector, and cos^2 + sin^2 may round below 1) the index can
    # move by one with the fraction going from 0 to 1 or back: the radial
    # coordinate, index plus fraction, is what must agree
    cfg = load_config(importlib.resources.files("losem") / "configs" / name)
    for N in cfg.compare_subsets or (cfg.n_blocks,):
        for op in cfg.build_system(N).ops:
            sg = op.sino_grid
            row = np.arange(sg.n_phi)[:, None] * (sg.n_r + 2)
            _, lo, fr = _whole_plan(op)
            ref_lo, ref_fr = _hypot_adjoint_plan(op)
            assert np.all((lo >= row) & (lo - row <= sg.n_r))
            npt.assert_allclose(lo - row + fr, ref_lo - row + ref_fr,
                                rtol=0.0, atol=1e-12)


def _dense_kernel_sup(op: RadonBlockOperator) -> float:
    """Reference kernel sup: each angle's row entries bincounted into a
    dense (samples, padded node) array, divided by the cell measure,
    smoothed and masked to the domain."""
    grid = op.pixel_grid
    n = grid.n_t + 4
    n_samples = op.sino_grid.n_r + 1
    offsets = np.array([a * n + b for a, b in operators._CORNERS])
    sup = 0.0
    for sample, cells, w in _chunk_entries(op):
        node = (cells + cells // (n - 1))[:, None] + offsets
        raw = np.bincount(np.repeat(sample, 4) * n * n + node.ravel(), w.ravel(),
                          minlength=n_samples * n * n)
        raw = raw.reshape(n_samples, n, n)[:, 1 : n - 2, 1 : n - 2].T
        raw = smooth_radial(raw / grid.cell_measure, op.kernel)
        sup = max(sup, float(raw[grid.mask.T].max()))
    return sup


@pytest.mark.parametrize("K", [1, 2, 3])
def test_kernel_sup_matches_dense_matrix_on_a_tiny_grid(K):
    # every circle of an 8x8 grid crosses the square's edge, so the zero
    # ring of the corner table is read on every row
    grid = PixelGrid(8, 2.0 * K / 8)
    sino = SinogramGrid(n_blocks=2, n_phi=3, n_r=8)
    kernel = SmoothingKernel(8, K)
    system = RadonSystem(grid, sino, lam=0.01, K=K)
    sups = []
    for op in system.ops:
        columns = []
        for node in np.flatnonzero(grid.mask.ravel()):
            e = np.zeros(grid.shape)
            e.ravel()[node] = 1.0
            columns.append(smooth_radial(_gather_forward_raw(op, e), kernel))
        dense = np.stack(columns) / grid.cell_measure
        assert op.kernel_sup() == pytest.approx(float(dense.max()), rel=1e-13)
        # the sparse sums add in the dense arrays' order: the same bits
        assert op.kernel_sup() == _dense_kernel_sup(op)
        sups.append(float(dense.max()))
    assert system.raw_kernel_sup() == pytest.approx(max(sups), rel=1e-13)


@pytest.mark.parametrize("n_t,n_blocks,K", [(6, 1, 1), (6, 3, 2), (8, 2, 1), (8, 4, 2)])
def test_tiny_systems_match_their_dense_matrices(n_t, n_blocks, K):
    # each block's shifted forward (samples x domain nodes) and adjoint
    # (domain nodes x samples) assembled from unit vectors
    grid = PixelGrid(n_t, 2.0 * K / n_t)
    sino = SinogramGrid(n_blocks=n_blocks, n_phi=3, n_r=n_t)
    system = RadonSystem(grid, sino, lam=0.01, K=K)
    dom = np.flatnonzero(grid.mask.ravel())
    n_samples = sino.n_phi * (sino.n_r + 1)
    rng = np.random.default_rng(10 * n_t + n_blocks)
    data = [rng.uniform(0.5, 1.5, sino.block_shape) for _ in range(n_blocks)]
    x = uniform_density(grid).ravel()[dom]
    w_dom = system.node_weights.ravel()[dom]
    n = n_t + 4
    offsets = np.array([a * n + b for a, b in operators._CORNERS])
    defect, sup = 0.0, 0.0
    for j, op in enumerate(system.ops):
        forward, raw = [], []
        for node in dom:
            e = np.zeros(grid.shape)
            e.ravel()[node] = 1.0
            forward.append(system.forward(e, j).ravel())
            raw.append(_gather_forward_raw(op, e).ravel())
        forward, raw = np.stack(forward, axis=1), np.stack(raw, axis=1)
        adjoint = np.stack([system.adjoint(e.reshape(sino.block_shape), j).ravel()[dom]
                            for e in np.eye(n_samples)], axis=1)
        y = data[j].ravel()
        lhs = float(np.sum(forward @ x * y) * system.block_weight)
        rhs = float(np.sum(x * (adjoint @ y) * w_dom))
        defect = max(defect, abs(lhs - rhs) / lhs)
        sup = max(sup, float(forward.max()) / grid.cell_measure)
        # the packed chunks' entries scattered onto the padded nodes
        packed = np.zeros((sino.n_phi, sino.n_r + 1, n * n))
        for a, (sample, cells, w) in enumerate(_chunk_entries(op)):
            node = (cells + cells // (n - 1))[:, None] + offsets
            np.add.at(packed[a], (sample[:, None], node), w)
        packed = packed.reshape(n_samples, n, n)[:, 1 : n - 2, 1 : n - 2]
        # a point within rounding of a node line leaves entries near 1e-17,
        # where the two bilinear forms round apart by an ulp of the largest
        # entry (3.1e-16 relative to it, at most, on these grids)
        npt.assert_allclose(packed.reshape(n_samples, -1)[:, dom], raw,
                            rtol=1e-13, atol=1e-15 * raw.max())
    assert _pairing_defect(system, uniform_density(grid), data) == pytest.approx(
        defect, rel=1e-12)
    assert effective_bounds(system, data).M == pytest.approx(sup, rel=1e-12)


def test_one_time_builds_allocate_little_beyond_what_they_keep():
    # K = 10 and 25 on two angles: the sup's sums shifted 2K - 1 ways
    for n_t, n_phi, K in [(80, 8, 2), (100, 2, 10), (100, 2, 25)]:
        grid = PixelGrid(n_t, 2.0 * K / n_t)
        sino = SinogramGrid(n_blocks=2, n_phi=n_phi, n_r=n_t)
        system = RadonSystem(grid, sino, lam=0.01, K=K)
        op = system.ops[1]
        tracemalloc.start()
        try:
            op._chunks
            _, rows_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rows are built a band at a time into the buffers they keep,
        # each band from a few temporaries of its size: not a (..., 4)
        # weight temporary per band, nor one band's temporaries alive
        # with the next's
        bands, _, _ = op._geometry[2]
        band = max(sino.n_phi * (s1 - s0) * cap for s0, s1, cap in bands)
        assert rows_peak - op.row_size()[1] <= 10 * band * 8
        tracemalloc.start()
        try:
            op._adjoint_plan
            kept, plan_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sup = op.kernel_sup()
            _, sup_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the plan is built a chunk at a time into the arrays it keeps: a
        # few node rows beyond the plan itself
        idx, lo, fr = _whole_plan(op)
        assert plan_peak <= idx.nbytes + lo.nbytes + fr.nbytes + 8 * fr[0].nbytes
        # the sup sums sparse entries, below one dense (samples, padded node)
        # array
        n = grid.n_t + 4
        assert sup_peak - kept < (sino.n_r + 1) * n * n * 8
        assert sup == _dense_kernel_sup(op)


def test_rows_without_entries_stay_zero(monkeypatch):
    # push the points of sample 5 out of the square: that row has no
    # entries and must read zero, and every other row is unchanged
    grid = PixelGrid(40, 0.05)
    sino = SinogramGrid(n_blocks=4, n_phi=5, n_r=40)
    kernel = SmoothingKernel(40, 1)
    x = np.where(grid.mask, np.random.default_rng(2).random(grid.shape), 0.0)
    expected = _system_op(grid, sino, 1, kernel).forward_raw(x)
    expected[:, 5] = 0.0
    off, coef, first = operators._circle_points(grid, sino)
    off = off.copy()
    off[0, first[4] : first[5]] = 10.0
    monkeypatch.setattr(operators, "_circle_points",
                        lambda pixel_grid, sino_grid: (off, coef, first))
    op = _system_op(grid, sino, 1, kernel)
    assert np.array_equal(op.forward_raw(x), expected)


@given(
    st.integers(2, 48), st.integers(2, 48), st.integers(1, 5), st.integers(1, 6),
    st.integers(1, 24), st.floats(0.0, 1.0),
)
# n_angles = 6 puts an angle at pi, whose arcs wrap past theta = 0
@example(n_t=40, n_r=40, n_blocks=2, n_phi=3, K=1, margin=0.0)
# R + sqrt(2)*h >= 1: on the 2x2 grid, whole circles of radius up to 1.16
# can reach the domain
@example(n_t=2, n_r=8, n_blocks=2, n_phi=2, K=1, margin=0.0)
@settings(max_examples=60, deadline=None)
def test_arc_rows_equal_rows_over_all_points(n_t, n_r, n_blocks, n_phi, K, margin):
    K = min(K, n_r // 2)
    # epsilon from the kernel support 2K/n_r up to 0.95
    assume(2.0 * K / n_r < 0.95)
    epsilon = 2.0 * K / n_r + margin * (0.95 - 2.0 * K / n_r)
    try:
        grid = PixelGrid(n_t, epsilon)
    except ValueError:
        assume(False)
    sino = SinogramGrid(n_blocks=n_blocks, n_phi=n_phi, n_r=n_r)
    # the simulation's compacted windows of a density nonzero on the whole
    # domain, cut at its support's reach, are the rows over every point
    table = operators._corner_table(grid, grid.mask)
    geometry = operators._circle_geometry(grid, sino, table)
    every_point = np.arange(len(geometry[0][1]))
    for j in range(n_blocks):
        angles = sino.block_angles(j)
        for phi, own in zip(angles, _streamed_entries(grid, angles, geometry)):
            first, cells, w = _angle_rows(grid, phi, geometry, every_point)
            sample = np.repeat(np.arange(1, n_r + 1), np.diff(first, append=len(cells)))
            for a, b in zip(own, (sample, cells, w)):
                assert a.dtype == b.dtype and np.array_equal(a, b)


@given(
    st.integers(2, 48), st.integers(2, 48), st.integers(1, 5), st.integers(1, 6),
    st.integers(1, 24), st.floats(0.0, 1.0),
)
# n_angles = 6 puts an angle at pi, whose windows wrap past theta = 0
@example(n_t=40, n_r=40, n_blocks=2, n_phi=3, K=1, margin=0.0)
# on the 2 x 2 grid the caps of the small radii are whole circles
@example(n_t=2, n_r=8, n_blocks=2, n_phi=2, K=1, margin=0.0)
@settings(max_examples=60, deadline=None)
def test_cached_rows_equal_rows_over_all_points(n_t, n_r, n_blocks, n_phi, K, margin):
    # no window drops a kept point: per block, angle and sample, the chunks'
    # entries other than pads are the rows over every circle point, cell
    # and weight bit for bit and in ascending point order
    K = min(K, n_r // 2)
    assume(2.0 * K / n_r < 0.95)
    epsilon = 2.0 * K / n_r + margin * (0.95 - 2.0 * K / n_r)
    try:
        grid = PixelGrid(n_t, epsilon)
    except ValueError:
        assume(False)
    sino = SinogramGrid(n_blocks=n_blocks, n_phi=n_phi, n_r=n_r)
    for op in RadonSystem(grid, sino, 0.01, K).ops:
        every_point = np.arange(len(op._geometry[0][1]))
        angles = sino.block_angles(op.j)
        for phi, cached in zip(angles, _chunk_entries(op)):
            first, cells, w = _angle_rows(grid, phi, op._geometry, every_point)
            sample = np.repeat(np.arange(1, n_r + 1), np.diff(first, append=len(cells)))
            for a, b in zip((sample, cells, w), cached):
                assert a.dtype == b.dtype and np.array_equal(a, b)


@given(
    st.integers(2, 48), st.integers(2, 48), st.integers(1, 4), st.integers(1, 5),
    st.integers(1, 24), st.floats(0.0, 1.0),
)
@example(n_t=40, n_r=40, n_blocks=2, n_phi=3, K=1, margin=0.0)
# one domain node; its 43 kept points against a bound of 92
@example(n_t=2, n_r=4, n_blocks=4, n_phi=1, K=1, margin=0.0)
# epsilon = 0.1: x^2 + y^2 rounds to radius^2 at a node off the domain,
# which a move by one among squares that +-y share did not leave
@example(n_t=100, n_r=20, n_blocks=1, n_phi=1, K=1, margin=0.0)
@settings(max_examples=60, deadline=None)
def test_row_point_bound_holds_the_cached_rows(n_t, n_r, n_blocks, n_phi, K, margin):
    # the bound the config check reads covers the points the rows of every
    # block of the system hold once built
    K = min(K, n_r // 2)
    assume(2.0 * K / n_r < 0.95)
    epsilon = 2.0 * K / n_r + margin * (0.95 - 2.0 * K / n_r)
    try:
        grid = PixelGrid(n_t, epsilon)
    except ValueError:
        assume(False)
    sino = SinogramGrid(n_blocks=n_blocks, n_phi=n_phi, n_r=n_r)
    system = RadonSystem(grid, sino, 0.01, K)
    kept = sum(len(cells) for op in system.ops for _, cells, _ in _chunk_entries(op))
    stored = sum(op.row_size()[0] for op in system.ops)
    assert kept <= stored == operators._row_point_bound(grid, sino)
    # the reach the system's windows are cut at, bit for bit
    on_domain = operators._corner_table(grid, grid.mask)
    assert operators._domain_reach(grid) == operators._support(grid, on_domain)[1]


def test_windows_narrower_than_their_arcs_fail_both_projections(monkeypatch):
    # with every arc half-width narrowed by 3 points, kept points fall just
    # outside their windows: the cached rows and the simulation's streamed
    # ones both raise instead of dropping them
    half_widths = operators._arc_half_widths
    monkeypatch.setattr(operators, "_arc_half_widths",
                        lambda counts, r, reach: half_widths(counts, r, reach) - 3.0)
    grid = PixelGrid(40, 0.05)
    sino = SinogramGrid(n_blocks=2, n_phi=3, n_r=40)
    x = render_phantom(PhantomSpec((Disc(0.2, -0.1, 0.4, 1.0),)), grid)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    with pytest.raises(AssertionError, match="outside its row's window"):
        system.forward(x, 0)
    with pytest.raises(AssertionError, match="outside its row's window"):
        support_forward(grid, sino, system.kernel, x)


def _sparse_density(grid: PixelGrid, kind: str, draw: float, seed: int) -> np.ndarray:
    """A density nonzero on part of the domain only: up to three random
    discs, one domain node, one domain node at the edge (next to a node off
    the domain), or none.  Disc values also fall off the domain, where the
    operators must not read them."""
    rng = np.random.default_rng(seed)
    x = np.zeros(grid.shape)
    if kind == "discs":
        tx, ty = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        for _ in range(1 + seed % 3):
            cx, cy, r = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.6)
            inside = (tx - cx) ** 2 + (ty - cy) ** 2 <= r * r
            x[inside] += rng.uniform(0.5, 2.0, inside.sum())
    elif kind in ("node", "edge"):
        nodes = grid.mask
        if kind == "edge":
            inner = np.pad(grid.mask, 1)
            inner = inner[:-2, 1:-1] & inner[2:, 1:-1] & inner[1:-1, :-2] & inner[1:-1, 2:]
            nodes = grid.mask & ~inner
        idx = np.flatnonzero(nodes)
        x.ravel()[idx[int(draw * len(idx))]] = rng.uniform(0.5, 2.0)
    return x


@given(
    st.integers(2, 48), st.integers(2, 48), st.integers(1, 3), st.integers(1, 4),
    st.integers(1, 4), st.sampled_from(["discs", "node", "edge", "zero"]),
    st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2**16),
)
# n_angles = 6 puts an angle at pi, whose arcs wrap past theta = 0
@example(n_t=40, n_r=40, n_blocks=2, n_phi=3, K=1, kind="edge", draw=0.5, seed=0)
@example(n_t=40, n_r=40, n_blocks=2, n_phi=3, K=1, kind="zero", draw=0.0, seed=0)
# on the 2 x 2 grid whole circles can reach the one domain node
@example(n_t=2, n_r=8, n_blocks=2, n_phi=2, K=1, kind="node", draw=0.0, seed=0)
@settings(max_examples=60, deadline=None)
def test_streamed_rows_hold_the_support_of_the_density(n_t, n_r, n_blocks, n_phi, K,
                                                        kind, draw, seed):
    K = min(K, n_r // 2)
    try:
        grid = PixelGrid(n_t, 2.0 * K / n_r)
    except ValueError:
        assume(False)
    sino = SinogramGrid(n_blocks=n_blocks, n_phi=n_phi, n_r=n_r)
    kernel = SmoothingKernel(n_r, K)
    x = _sparse_density(grid, kind, draw, seed)
    table = operators._corner_table(grid, x)
    geometry = operators._circle_geometry(grid, sino, table)
    assert np.array_equal(geometry[1], table.any(axis=1))
    points = geometry[0]
    every_point = np.arange(len(points[1]))
    for phi, own in zip(sino.angles, _streamed_entries(grid, sino.angles, geometry)):
        first, cells, w = _angle_rows(grid, phi, (points, table.any(axis=1), None),
                                      every_point)
        sample = np.repeat(np.arange(1, n_r + 1), np.diff(first, append=len(cells)))
        for a, b in zip(own, (sample, cells, w)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    streamed = support_forward(grid, sino, kernel, x)
    for j in range(n_blocks):
        own = streamed[j * n_phi : (j + 1) * n_phi]
        cached = _system_op(grid, sino, j, kernel).forward(x)
        if kind == "zero":
            assert not np.any(own) and not np.any(cached)
        else:
            npt.assert_allclose(own, cached, rtol=1e-13, atol=0.0)


def test_simulating_a_phantom_no_circle_meets_is_a_config_error():
    # circles of radius 2/3 and 4/3 centred on the unit circle pass 1/3
    # from the origin, outside the disc
    grid = PixelGrid(6, 2.0 / 3.0)
    spec = PhantomSpec((Disc(0.0, 0.0, 0.26, 1.0),))
    with pytest.raises(ConfigError, match="no mass"):
        simulate_clean_base(spec, grid, n_angles=4, n_r=3, K=1, oversample=1)


# (n_t, n_r, n_blocks, n_phi, K): one with K = 3, one with n_r > n_t
DOMAIN_GEOMETRIES = [(40, 40, 4, 5, 1), (60, 60, 3, 4, 3), (30, 48, 2, 6, 1)]


def _domain_ops(n_t, n_r, n_blocks, n_phi, K):
    grid = PixelGrid(n_t, 2.0 * K / n_r)
    sino = SinogramGrid(n_blocks=n_blocks, n_phi=n_phi, n_r=n_r)
    kernel = SmoothingKernel(n_r, K)
    return grid, [_system_op(grid, sino, j, kernel) for j in range(n_blocks)]


@pytest.mark.parametrize("geometry", DOMAIN_GEOMETRIES)
def test_forward_reads_node_values_on_the_domain_only(geometry):
    grid, ops = _domain_ops(*geometry)
    x = np.random.default_rng(geometry[0]).random(grid.shape) + 1.0
    masked = np.where(grid.mask, x, 0.0)
    for op in ops:
        assert np.array_equal(op.forward_raw(x), op.forward_raw(masked))


@pytest.mark.parametrize("geometry", DOMAIN_GEOMETRIES)
def test_cached_rows_hold_only_points_with_a_corner_on_the_domain(geometry):
    grid, ops = _domain_ops(*geometry)
    n_t = grid.n_t
    # node (i, j) at (i + 1, j + 1); cell c = i*(n_t + 3) + j has its
    # corner (a, b) at node (i - 1 + a, j - 1 + b)
    mask = np.pad(grid.mask, 1)
    for op in ops:
        for _, cells, _ in _chunk_entries(op):
            i, j = np.divmod(cells, n_t + 3)
            touches = np.zeros(len(cells), dtype=bool)
            for a, b in operators._CORNERS:
                touches |= mask[i + a, j + b]
            assert touches.all()


def test_backprojection_of_ones_is_one_on_domain(op_setup):
    grid, sino, ops = op_setup
    ones = np.ones(sino.block_shape)
    for op in ops:
        bp = op.backproject(ones)
        npt.assert_allclose(bp[grid.mask], 1.0, atol=5e-14)
        assert np.all(bp[~grid.mask] == 0.0)


def test_forward_adjoint_pairing_defect_is_small(op_setup):
    # backprojection is the adjoint only up to interpolation error
    grid, sino, ops = op_setup
    rng = np.random.default_rng(7)
    x = np.where(grid.mask, rng.random(grid.shape), 0.0)
    y = rng.random(sino.block_shape)
    op = ops[0]
    lhs = float(np.sum(op.forward(x) * y) * sino.sample_weight)
    rhs = float(np.sum(x * op.adjoint(y) * grid.node_weights))
    assert abs(lhs - rhs) / abs(lhs) < 0.05


@pytest.mark.parametrize("n_t,n_r,n_blocks,K,n_angle", [
    (64, 64, 1, 1, 64), (100, 100, 10, 1, 100), (40, 40, 4, 2, 40),
    (20, 60, 3, 3, 24), (64, 16, 2, 1, 64),
])
def test_forward_keeps_n_r_over_n_r_plus_one_of_the_mass(n_t, n_r, n_blocks, K,
                                                          n_angle):
    # the sample weight spreads each block's measure over all n_r + 1
    # radii, while the circle sums integrate to the mass at spacing 2/n_r;
    # measured offsets from the factor reach 0.248 of its gap to one, for
    # the two-disc phantom at n_r = 16 (0.125 for the other densities)
    grid = PixelGrid(n_t, 2.0 * K / n_r)
    system = RadonSystem(grid, SinogramGrid(n_blocks, n_angle // n_blocks, n_r),
                         lam=0.01, K=K)
    rng = np.random.default_rng(0)
    noise = np.where(grid.mask, rng.random(grid.shape), 0.0)
    phantom = PhantomSpec((Disc(0.0, 0.0, 0.4, 1.0), Disc(0.45, 0.3, 0.18, 2.0)))
    factor = n_r / (n_r + 1)
    for x in (uniform_density(grid), normalize_to_simplex(noise, grid.node_weights),
              render_phantom(phantom, grid)):
        for op in system.ops:
            mass = float(np.sum(op.forward(x))) * system.block_weight
            assert abs(mass - factor) <= 0.25 * (1.0 - factor)


# ---------------------------------------------------------------------------
# shifted system


def test_shift_requires_positive_lambda(op_setup):
    grid, sino, ops = op_setup
    with pytest.raises(ValueError, match="lambda must be positive"):
        RadonSystem(grid, sino, lam=0.0, K=1)
    # finite, but the scale 1 + lambda*b overflows and the floor vanishes
    with pytest.raises(ValueError, match="lambda must be positive"):
        RadonSystem(grid, sino, lam=1e308, K=1)


def test_shifted_kernel_floor_formula():
    # lambda = 0.01, ten blocks: m = 0.01 / (1 + 0.01 * 4 pi / 10)
    grid = PixelGrid(20, 0.1)
    sino = SinogramGrid(n_blocks=10, n_phi=2, n_r=20)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    assert system.m == pytest.approx(0.0098759, abs=1e-7)
    assert system.m == pytest.approx(0.01 / (1 + 0.01 * 4 * math.pi / 10), rel=1e-15)


def test_shifted_forward_respects_floor(op_setup):
    grid, sino, ops = op_setup
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    x = uniform_density(grid)
    out = system.forward(x, 0)
    assert float(out.min()) >= system.m - 1e-15
    # r = 0 samples hit the floor exactly
    npt.assert_allclose(out[:, 0], system.m, rtol=1e-13)


def test_shifted_forward_equals_scaled_base_plus_mass(op_setup):
    grid, sino, ops = op_setup
    lam = 0.2
    system = RadonSystem(grid, sino, lam=lam, K=1)
    rng = np.random.default_rng(3)
    x = np.where(grid.mask, rng.random(grid.shape), 0.0)
    mass = float(np.sum(x * grid.node_weights))
    expected = (ops[2].forward(x) + lam * mass) / (1 + lam * sino.block_measure)
    npt.assert_allclose(system.forward(x, 2), expected, rtol=1e-14)


def test_shift_data_preserves_unit_mass(op_setup):
    grid, sino, ops = op_setup
    system = RadonSystem(grid, sino, lam=0.05, K=1)
    rng = np.random.default_rng(4)
    y = rng.random(sino.block_shape)
    y /= y.sum() * sino.sample_weight
    (shifted,) = system.shift_data([y])
    assert float(shifted.sum() * sino.sample_weight) == pytest.approx(1.0, rel=1e-12)


def test_shifted_adjoint_of_ones_is_one(op_setup):
    grid, sino, ops = op_setup
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    a = system.adjoint(np.ones(sino.block_shape), 1)
    npt.assert_allclose(a[grid.mask], 1.0, atol=5e-14)
    assert np.all(a[~grid.mask] == 0.0)


# ---------------------------------------------------------------------------
# system and bounds


def test_system_shifted_deltas_formula():
    grid = PixelGrid(20, 0.1)
    sino = SinogramGrid(n_blocks=10, n_phi=2, n_r=20)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    d = np.full(10, 0.05)
    expected = 0.05 * (1 + 0.01) / (1 + 0.01 * 4 * math.pi / 10)
    npt.assert_allclose(system.shifted_deltas(d), expected, rtol=1e-14)


def test_gamma_pinned_example():
    b = EffectiveBounds(m=0.5, M=2.0, m1=0.1, M1=1.5)
    assert b.gamma() == pytest.approx(2.99573, abs=1e-5)
    assert b.gamma() == pytest.approx(abs(math.log(0.1 / 2.0)), rel=1e-12)


def test_probe_kernel_sup_dominates_forward_on_random_densities():
    grid = PixelGrid(40, 0.05)
    sino = SinogramGrid(n_blocks=4, n_phi=5, n_r=40)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    sup = system.raw_kernel_sup()
    assert sup == pytest.approx(14.895515609333438, rel=1e-12)
    assert sup <= sino.n_blocks * grid.n_t  # crude analytic bound, 160 here
    rng = np.random.default_rng(5)
    for _ in range(5):
        raw = np.where(grid.mask, rng.random(grid.shape), 0.0)
        x = normalize_to_simplex(raw, grid.node_weights)
        for j in range(4):
            assert float(system.ops[j].forward(x).max()) <= sup + 1e-9
    # single-pixel densities come close to attaining the sup
    peak = 0.0
    for (i, k) in ((20, 20), (12, 25), (28, 15)):
        vals = np.zeros(grid.shape)
        assert grid.mask[i, k]
        vals[i, k] = 1.0
        x = normalize_to_simplex(vals, grid.node_weights)
        for j in range(4):
            peak = max(peak, float(system.ops[j].forward(x).max()))
    assert peak <= sup + 1e-9


def test_effective_bounds_requires_positive_data_floor():
    grid = PixelGrid(20, 0.1)
    sino = SinogramGrid(n_blocks=2, n_phi=2, n_r=20)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    good = [np.full(sino.block_shape, 0.3), np.full(sino.block_shape, 0.5)]
    b = effective_bounds(system, good)
    assert b.m1 == pytest.approx(0.3) and b.M1 == pytest.approx(0.5)
    assert b.m == pytest.approx(system.m)
    bad = [np.zeros(sino.block_shape), good[1]]
    with pytest.raises(ValueError, match="floor"):
        effective_bounds(system, bad)


def test_system_forward_matches_block_ops(op_setup):
    grid, sino, ops = op_setup
    lam = 0.01
    system = RadonSystem(grid, sino, lam=lam, K=1)
    x = uniform_density(grid)
    mass = float(np.sum(x * grid.node_weights))
    for j in range(3):
        npt.assert_allclose(
            system.forward(x, j),
            (ops[j].forward(x) + lam * mass) / (1 + lam * sino.block_measure),
            rtol=1e-14,
        )
