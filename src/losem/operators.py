"""Discretized circular Radon transform blocks with radial smoothing.

The forward map of block j evaluates circular means of a density over
circles centered on the unit circle, scaled so that the data of every block
integrates to the mass of the density.  A triangular radial smoothing makes
point evaluation of the data well defined, and an additive shift bounds the
effective kernel away from zero, which the multiplicative solvers require.

Discretization choices:

  * densities are interpolated bilinearly from the pixel grid and extended
    by zero outside the square;
  * the circle integral at radius r uses n_omega(r) = max(8, ceil(3*r*n_t))
    uniformly spaced points with equal weights, and the samples at r = 0
    are exactly zero;
  * the backprojection averages the n_phi angles of a block with equal
    weight 1/n_phi and interpolates data piecewise linearly in the radius,
    so backprojecting constant one returns exactly one at every domain node;
  * the radial smoothing weights are the triangular hat of half-width
    K samples, renormalized to unit sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kl_core import PixelGrid, SinogramGrid

__all__ = [
    "SmoothingKernel",
    "smooth_radial",
    "RadonBlockOperator",
    "RadonSystem",
    "EffectiveBounds",
    "effective_bounds",
]


# ---------------------------------------------------------------------------
# radial smoothing


@dataclass(frozen=True)
class SmoothingKernel:
    """Triangular radial smoothing with support epsilon = 2*K/n_r.

    The discrete weights are (K - |d|)/K^2 for offsets d = -K..K, which sum
    to one analytically; a final renormalization pins the sum in floats.
    For K = 1 the kernel is the identity.
    """

    n_r: int
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if 2 * self.K > self.n_r:
            raise ValueError(f"K must be <= n_r/2, got K={self.K}, n_r={self.n_r}")

    @property
    def epsilon(self) -> float:
        return 2.0 * self.K / self.n_r

    @cached_property
    def weights(self) -> np.ndarray:
        d = np.arange(-self.K, self.K + 1)
        w = (self.K - np.abs(d)).astype(np.float64)
        w /= w.sum()
        w.flags.writeable = False
        return w


def smooth_radial(values: np.ndarray, kernel: SmoothingKernel) -> np.ndarray:
    """Convolve sinogram values with the triangular kernel along the radius.

    ``values`` has radial samples along the last axis; data beyond the
    radial range is treated as zero.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != kernel.n_r + 1:
        raise ValueError(
            f"radial axis has {values.shape[-1]} samples, expected {kernel.n_r + 1}"
        )
    K = kernel.K
    w = kernel.weights
    out = np.zeros_like(values)
    n = values.shape[-1]
    for d in range(-K, K + 1):
        wd = w[d + K]
        if wd == 0.0:
            continue
        if d == 0:
            out += wd * values
        elif d > 0:
            out[..., : n - d] += wd * values[..., d:]
        else:
            out[..., -d:] += wd * values[..., :d]
    return out


# ---------------------------------------------------------------------------
# bilinear sampling of densities


def _bilinear_plan(px: np.ndarray, py: np.ndarray, n_t: int):
    """Cell indices and fractional offsets of points on the pixel grid."""
    ux = (px + 1.0) * (n_t / 2.0)
    uy = (py + 1.0) * (n_t / 2.0)
    ix = np.floor(ux).astype(np.int32)
    iy = np.floor(uy).astype(np.int32)
    return ix, iy, ux - ix, uy - iy


def _bilinear_gather(values: np.ndarray, ix, iy, fx, fy) -> np.ndarray:
    """Sample a node array at plan points, zero outside the square."""
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


def _omega_counts(radii: np.ndarray, n_t: int) -> np.ndarray:
    """Number of circle quadrature points per radius."""
    counts = np.ceil(3.0 * radii * n_t).astype(np.int64)
    return np.maximum(counts, 8)


# ---------------------------------------------------------------------------
# per-block operators


class RadonBlockOperator:
    """Circular means and backprojection restricted to one angular block.

    ``forward_raw`` maps a density array to circular means on the block
    samples, ``forward`` additionally applies the radial smoothing, and
    ``adjoint`` is backprojection after smoothing.  Quadrature point plans
    are built lazily and cached when ``cache_plans`` is set.
    """

    def __init__(
        self,
        pixel_grid: PixelGrid,
        sino_grid: SinogramGrid,
        j: int,
        kernel: SmoothingKernel,
        cache_plans: bool = True,
    ):
        if kernel.n_r != sino_grid.n_r:
            raise ValueError("kernel and sinogram grid disagree on n_r")
        if pixel_grid.epsilon + 1e-12 < kernel.epsilon:
            raise ValueError(
                "domain margin epsilon must be at least the smoothing support "
                f"2*K/n_r = {kernel.epsilon}"
            )
        self.pixel_grid = pixel_grid
        self.sino_grid = sino_grid
        self.j = j
        self.kernel = kernel
        self.cache_plans = cache_plans
        self._fwd_plan = None
        self._adj_plan = None

    # -- forward ------------------------------------------------------------

    @cached_property
    def _radial_structure(self):
        radii = self.sino_grid.radii
        counts = _omega_counts(radii, self.pixel_grid.n_t)
        offsets = np.concatenate(([0], np.cumsum(counts[1:])))[:-1]
        # per-sample scale r * n_blocks / n_omega(r) for r > 0
        coef = radii[1:] * self.sino_grid.n_blocks / counts[1:]
        return counts, offsets, coef

    def _angle_plan(self, phi: float):
        radii = self.sino_grid.radii
        counts = self._radial_structure[0]
        cx, cy = math.cos(phi), math.sin(phi)
        px = []
        py = []
        for r, n_om in zip(radii[1:], counts[1:]):
            theta = 2.0 * math.pi * np.arange(n_om) / n_om
            px.append(cx + r * np.cos(theta))
            py.append(cy + r * np.sin(theta))
        return _bilinear_plan(np.concatenate(px), np.concatenate(py), self.pixel_grid.n_t)

    def forward_raw(self, x: np.ndarray) -> np.ndarray:
        """Circular means of the density array on the block samples."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.pixel_grid.shape:
            raise ValueError(f"density shape {x.shape} does not match grid")
        _, offsets, coef = self._radial_structure
        angles = self.sino_grid.block_angles(self.j)
        plans = None
        if self.cache_plans:
            if self._fwd_plan is None:
                self._fwd_plan = [self._angle_plan(phi) for phi in angles]
            plans = self._fwd_plan
        sg = self.sino_grid
        out = np.zeros(sg.block_shape)
        for a, phi in enumerate(angles):
            ix, iy, fx, fy = plans[a] if plans is not None else self._angle_plan(phi)
            vals = _bilinear_gather(x, ix, iy, fx, fy)
            sums = np.add.reduceat(vals, offsets)
            out[a, 1:] = sums * coef
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Smoothed circular means: radial smoothing after ``forward_raw``."""
        return smooth_radial(self.forward_raw(x), self.kernel)

    def kernel_sup(self) -> float:
        """Supremum of the block's discrete smoothed kernel over its samples
        and the domain nodes.

        Accumulates the bilinear quadrature footprint of every sample, which
        equals running ``forward`` on unit-mass single-node densities.
        """
        grid = self.pixel_grid
        n_nodes = (grid.n_t + 1) ** 2
        n_samples = self.sino_grid.n_r + 1
        counts, _, coef = self._radial_structure
        # the sample radius of every quadrature point, and its weight per unit mass
        radius = np.repeat(np.arange(1, n_samples), counts[1:])
        scale = np.repeat(coef / grid.cell_measure, counts[1:])
        mask = grid.mask.ravel()
        sup = 0.0
        for phi in self.sino_grid.block_angles(self.j):
            ix, iy, fx, fy = self._angle_plan(phi)
            cells = []
            weights = []
            for di, dj, w in (
                (0, 0, (1 - fx) * (1 - fy)),
                (0, 1, (1 - fx) * fy),
                (1, 0, fx * (1 - fy)),
                (1, 1, fx * fy),
            ):
                ii = ix + di
                jj = iy + dj
                ok = (ii >= 0) & (ii <= grid.n_t) & (jj >= 0) & (jj <= grid.n_t)
                node = ii[ok] * (grid.n_t + 1) + jj[ok]
                cells.append(node * n_samples + radius[ok])
                weights.append(scale[ok] * w[ok])
            raw = np.bincount(
                np.concatenate(cells), np.concatenate(weights),
                minlength=n_nodes * n_samples,
            ).reshape(n_nodes, n_samples)
            sup = max(sup, float(smooth_radial(raw, self.kernel)[mask].max()))
        return sup

    # -- backprojection -----------------------------------------------------

    def _adjoint_plan(self):
        if self._adj_plan is not None:
            return self._adj_plan
        grid = self.pixel_grid
        sg = self.sino_grid
        idx = np.flatnonzero(grid.mask.ravel())
        tx = grid.nodes[idx // (grid.n_t + 1)]
        ty = grid.nodes[idx % (grid.n_t + 1)]
        angles = sg.block_angles(self.j)
        # radii from every domain node to every detector center of the block
        rho = np.hypot(
            tx[:, None] - np.cos(angles)[None, :],
            ty[:, None] - np.sin(angles)[None, :],
        )
        u = rho * (sg.n_r / 2.0)
        ir = np.floor(u).astype(np.int32)
        fr = u - ir
        plan = (idx, ir, fr)
        if self.cache_plans:
            self._adj_plan = plan
        return plan

    def backproject(self, y: np.ndarray) -> np.ndarray:
        """Average block data over angles at each domain node.

        Data is interpolated piecewise linearly in the radius and extended
        by zero beyond the radial range; the result is zero outside the
        disc domain.
        """
        y = np.asarray(y, dtype=np.float64)
        sg = self.sino_grid
        if y.shape != sg.block_shape:
            raise ValueError(f"block shape {y.shape} does not match grid")
        idx, ir, fr = self._adjoint_plan()
        n_r = sg.n_r
        lo_ok = (ir >= 0) & (ir <= n_r)
        hi_ok = (ir + 1 >= 0) & (ir + 1 <= n_r)
        cols_lo = np.clip(ir, 0, n_r)
        cols_hi = np.clip(ir + 1, 0, n_r)
        rows = np.arange(sg.n_phi)[None, :]
        y0 = np.where(lo_ok, y[rows, cols_lo], 0.0)
        y1 = np.where(hi_ok, y[rows, cols_hi], 0.0)
        vals = y0 + fr * (y1 - y0)
        out = np.zeros(self.pixel_grid.shape)
        out.ravel()[idx] = vals.sum(axis=1) / sg.n_phi
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Backprojection of radially smoothed data."""
        return self.backproject(smooth_radial(y, self.kernel))


# ---------------------------------------------------------------------------
# system of blocks


class RadonSystem:
    """The block operators sharing one geometry, with the additive shift
    that floors their kernel.

    This is the object the solvers consume.  With shift parameter lam > 0
    and block measure b, the samples of block j become
    (A_j x + lam * integral(x)) / (1 + lam * b) and the adjoint gains the
    matching lam * integral(y) term.  The effective kernel then lies in
    [m, M] with m = lam / (1 + lam * b) > 0.  ``ops`` holds the unshifted
    block operators A_j.
    """

    def __init__(
        self,
        pixel_grid: PixelGrid,
        sino_grid: SinogramGrid,
        lam: float,
        K: int,
    ):
        if not lam > 0.0:
            raise ValueError(f"shift parameter lambda must be positive, got {lam}")
        self.pixel_grid = pixel_grid
        self.sino_grid = sino_grid
        self.lam = lam
        self._scale = 1.0 + lam * sino_grid.block_measure
        self.kernel = SmoothingKernel(sino_grid.n_r, K)
        self.ops = [
            RadonBlockOperator(pixel_grid, sino_grid, j, self.kernel)
            for j in range(sino_grid.n_blocks)
        ]
        self._raw_kernel_sup = None

    @property
    def n_blocks(self) -> int:
        return self.sino_grid.n_blocks

    @property
    def node_weights(self) -> np.ndarray:
        return self.pixel_grid.node_weights

    @property
    def block_weight(self) -> float:
        return self.sino_grid.sample_weight

    @property
    def m(self) -> float:
        """Lower bound of the effective kernel."""
        return self.lam / self._scale

    def kernel_upper(self, raw_sup: float) -> float:
        """Upper bound of the effective kernel given the raw kernel sup."""
        return (raw_sup + self.lam) / self._scale

    def forward(self, x: np.ndarray, j: int) -> np.ndarray:
        mass = float(np.sum(self.node_weights * x))
        return (self.ops[j].forward(x) + self.lam * mass) / self._scale

    def adjoint(self, y: np.ndarray, j: int) -> np.ndarray:
        integral = float(np.sum(y) * self.block_weight)
        out = self.ops[j].adjoint(y) + self.lam * integral
        out /= self._scale
        return np.where(self.pixel_grid.mask, out, 0.0)

    def shift_data(self, blocks) -> list[np.ndarray]:
        """Apply the additive shift to a full dataset (one array per block)."""
        out = []
        for b in blocks:
            y = np.asarray(b, dtype=np.float64)
            integral = float(np.sum(y) * self.block_weight)
            out.append((y + self.lam * integral) / self._scale)
        return out

    def shifted_deltas(self, deltas) -> np.ndarray:
        """Noise bounds of the shifted system from raw per-block bounds."""
        deltas = np.asarray(deltas, dtype=np.float64)
        return deltas * (1.0 + self.lam) / self._scale

    def raw_kernel_sup(self) -> float:
        """Exact supremum of the unshifted smoothed kernel over the samples
        of every block and the domain nodes (see
        :meth:`RadonBlockOperator.kernel_sup`)."""
        if self._raw_kernel_sup is None:
            self._raw_kernel_sup = max(op.kernel_sup() for op in self.ops)
        return self._raw_kernel_sup


# ---------------------------------------------------------------------------
# effective kernel and data bounds


@dataclass(frozen=True)
class EffectiveBounds:
    """Kernel bounds [m, M] and data bounds [m1, M1] of the shifted system."""

    m: float
    M: float
    m1: float
    M1: float

    def gamma(self) -> float:
        """Threshold constant max(|log(m1/M)|, |log(M1/m)|)."""
        return max(abs(math.log(self.m1 / self.M)), abs(math.log(self.M1 / self.m)))


def effective_bounds(system: RadonSystem, shifted_blocks) -> EffectiveBounds:
    """Bounds of the shifted system for the given shifted data blocks.

    ``shifted_blocks`` are the data arrays the solver will see.  Raises if
    the data floor is not positive, since the threshold constant cannot be
    formed in that case.
    """
    m = system.m
    M = system.kernel_upper(system.raw_kernel_sup())
    m1 = min(float(np.min(b)) for b in shifted_blocks)
    M1 = max(float(np.max(b)) for b in shifted_blocks)
    if not m1 > 0.0:
        raise ValueError(
            "shifted data floor is not positive; cannot form the threshold constant"
        )
    if not math.isfinite(M1):
        raise ValueError("shifted data has non-finite entries")
    return EffectiveBounds(m=m, M=M, m1=m1, M1=M1)
