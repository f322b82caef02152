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

The quadrature of one angle is stored as sparse rows: the cell of each
circle point with a bilinear corner on a support and its four weights
(circle weight) * (bilinear weight).  The operators of a system share
the disc domain's circle geometry, and each builds its rows of the
domain once and keeps them; an operator made without one, such as the
simulation's, streams at every call the rows of the domain nodes where
the projected density is nonzero: a point whose corners are all zero
adds an exact zero, so dropping it changes only how the sums are
grouped.  A kept point lies within sqrt(2)*h (node spacing h) of a
support node, so within the support's largest origin distance plus
sqrt(2)*h of the origin, and on each circle only one arc, opposite the
detector, can hold it: the rows are built from the points of these arcs,
at most two index ranges per radius, and the cell test picks the points
kept.  ``forward_raw`` reads each cell's corners from a table of the
density's values on the domain, padded by zeros, one gather and one
segment sum per angle; node values off the domain are never read.  The
backprojection plan is angle-major, one row of radial indices and
fractions per angle, and the result is accumulated angle by angle; the
shifted system's adjoint adds its shift on the domain nodes only.
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
    "kernel_floor",
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

    ``values`` has radial samples along the last axis, zero beyond the
    radial range; at K = 1, the identity, ``values`` itself is returned.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != kernel.n_r + 1:
        raise ValueError(
            f"radial axis has {values.shape[-1]} samples, expected {kernel.n_r + 1}"
        )
    K = kernel.K
    if K == 1:
        return values
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
# per-block operators

# bilinear corners (a, b) of a cell, in the order of the corner table
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _circle_points(pixel_grid: PixelGrid, sino_grid: SinogramGrid):
    """Offsets r*(cos theta, sin theta) of the quadrature points of all
    radii r > 0, radius by radius, with each point's weight
    r*n_blocks/n_omega(r) and the index of each radius's first point; the
    same for every block and angle of a geometry."""
    radii = sino_grid.radii[1:]
    counts = np.maximum(np.ceil(3.0 * radii * pixel_grid.n_t).astype(np.int64), 8)
    first = np.cumsum(counts) - counts
    k = np.arange(counts.sum()) - np.repeat(first, counts)
    theta = 2.0 * math.pi * k / np.repeat(counts, counts)
    r = np.repeat(radii, counts)
    coef = np.repeat(radii * sino_grid.n_blocks / counts, counts)
    return r * np.cos(theta), r * np.sin(theta), coef, first


def _circle_point_bound(n_t: int, n_r: int) -> int:
    """A bound on the points :func:`_circle_points` makes on an n_t grid,
    in O(1): radius r_i = 2i/n_r holds max(8, ceil(3*r_i*n_t)) <= 6*i*n_t/n_r
    + 9 of them, which sum over i = 1..n_r to the bound."""
    return 3 * n_t * (n_r + 1) + 9 * n_r


def _corner_table(grid: PixelGrid, x: np.ndarray) -> np.ndarray:
    """The ``_CORNERS`` of every cell (i - 1, j - 1) in row i*(n_t + 3) + j,
    read from the values of ``x`` on the disc domain, padded by zeros to
    (n_t + 4)^2."""
    n = grid.n_t + 4
    padded = np.zeros((n, n))
    padded[1 : n - 2, 1 : n - 2] = np.where(grid.mask, x, 0.0)
    table = np.empty((n - 1, n - 1, 4))
    for k, (a, b) in enumerate(_CORNERS):
        table[..., k] = padded[a : n - 1 + a, b : n - 1 + b]
    return table.reshape(-1, 4)


def _support(grid: PixelGrid, table: np.ndarray):
    """Which cells of the corner ``table`` (see :func:`_corner_table`) have
    a nonzero corner, and the reach of their points: the largest origin
    distance of a nonzero node plus sqrt(2)*h, the cell diagonal."""
    # corner (0, 0) of cell row i*(n_t + 3) + j is node (i - 1, j - 1)
    i, j = np.divmod(np.flatnonzero(table[:, 0]), grid.n_t + 3)
    dist = np.hypot(grid.nodes.take(i - 1), grid.nodes.take(j - 1))
    return table.any(axis=1), dist.max(initial=0.0) + math.sqrt(2.0) * grid.spacing


def _circle_geometry(pixel_grid: PixelGrid, sino_grid: SinogramGrid,
                     table: np.ndarray):
    """The circle points (see :func:`_circle_points`) with the cell test and
    the reach of the support of the corner ``table`` (see
    :func:`_support`): what the rows of every block are built from."""
    return (_circle_points(pixel_grid, sino_grid), *_support(pixel_grid, table))


class RadonBlockOperator:
    """Circular means and backprojection restricted to one angular block.

    ``forward_raw`` maps a density array to circular means on the block
    samples, ``forward`` additionally applies the radial smoothing, and
    ``adjoint`` is backprojection after smoothing.  The forward map of each
    angle is a set of sparse rows, one per sample, built from circle offsets
    shared by all angles: a cell of the zero-padded corner table and four
    weights per quadrature point.  An operator given ``geometry``, the
    domain's circle geometry its system shares, builds that geometry's rows
    at the first call and keeps them; one given none streams, angle by
    angle, the rows of the support of each density it projects.  The
    backprojection indices are built at the first call and kept.
    """

    def __init__(
        self,
        pixel_grid: PixelGrid,
        sino_grid: SinogramGrid,
        j: int,
        kernel: SmoothingKernel,
        geometry=None,
    ):
        if kernel.n_r != sino_grid.n_r:
            raise ValueError("kernel and sinogram grid disagree on n_r")
        if pixel_grid.epsilon + 1e-12 < kernel.epsilon:
            raise ValueError(f"the support margin epsilon = {pixel_grid.epsilon} is "
                             f"smaller than the smoothing width 2K/n_r = {kernel.epsilon}")
        self.pixel_grid = pixel_grid
        self.sino_grid = sino_grid
        self.j = j
        self.kernel = kernel
        self._geometry = geometry
        self._fwd_rows = None

    # -- forward ------------------------------------------------------------

    def _arcs(self, geometry, angles: np.ndarray):
        """Per angle, the ascending indices of the circle points of
        ``geometry`` (see :func:`_circle_geometry`) that lie within its
        reach of the origin, found for all angles at once.

        The point at offset angle t from the detector at phi has |p|^2 =
        1 + r^2 + 2r*cos(t - phi), so on each radius the points within the
        reach form one arc centred opposite the detector: at most two index
        ranges.  The reach gets a slack for rounding and the arc one point
        each way.
        """
        points, _, reach = geometry
        first = points[3]
        counts = np.diff(first, append=len(points[2]))
        r = self.sino_grid.radii[1:]
        reach += 1e-9
        cos_max = np.clip((reach * reach - 1.0 - r * r) / (2.0 * r), -1.0, 1.0)
        half = counts * (0.5 - np.arccos(cos_max) / (2.0 * math.pi)) + 1.0
        centre = counts * (angles[:, None] / (2.0 * math.pi) + 0.5)
        lo = np.ceil(centre - half).astype(np.int64)
        hi = np.minimum(np.floor(centre + half).astype(np.int64) + 1, lo + counts)
        shift = lo // counts * counts
        lo -= shift
        hi -= shift
        # the arc [lo, hi) of a radius is [0, hi - n) and [lo, n) where it
        # passes its last point
        bounds = first[:, None] + np.stack(
            [np.zeros_like(lo), np.maximum(hi - counts, 0), lo, np.minimum(hi, counts)],
            axis=-1)
        for starts, stops in bounds.reshape(len(angles), -1, 2).transpose(0, 2, 1):
            sizes = stops - starts
            ends = np.cumsum(sizes)
            yield np.arange(ends[-1]) + np.repeat(starts - ends + sizes, sizes)

    def _angle_rows(self, phi: float, geometry, cand: np.ndarray):
        """Sparse rows of the angle ``phi`` from the ascending circle point
        indices ``cand`` of ``geometry`` (see :func:`_circle_geometry`): the
        samples that have entries, the start of each one's segment, and the
        corner-table cell and the four corner weights of every candidate
        point in a cell that passes the geometry's cell test."""
        n_t = self.pixel_grid.n_t
        (offx, offy, coef, first), on_support, _ = geometry
        ux = (math.cos(phi) + offx.take(cand) + 1.0) * (n_t / 2.0)
        uy = (math.sin(phi) + offy.take(cand) + 1.0) * (n_t / 2.0)
        # the cell (ix + 1)*(n_t + 3) + (iy + 1) of every point, in floats;
        # cells beyond the zero ring are clipped onto it, which is off every
        # support, and the points kept are not moved
        ix, iy = np.floor(ux), np.floor(uy)
        np.clip(ix, -1, n_t, out=ix)
        np.clip(iy, -1, n_t, out=iy)
        cells = ix + 1.0
        cells *= n_t + 3
        cells += iy
        cells += 1.0
        cells = cells.astype(np.intp)
        near = on_support.take(cells)
        kept = cand[near]
        ix, iy, coef = ix[near], iy[near], coef.take(kept)
        fx, fy = ux[near] - ix, uy[near] - iy
        # weights of the corners (ix + a, iy + b)
        wx, wy = (coef * (1.0 - fx), coef * fx), (1.0 - fy, fy)
        w = np.empty((len(kept), 4))
        for k, (a, b) in enumerate(_CORNERS):
            np.multiply(wx[a], wy[b], out=w[:, k])
        # segment bounds per sample; empty rows (circles that miss the
        # support) stay out of reduceat
        bounds = np.searchsorted(kept, first)
        rows = np.flatnonzero(np.diff(bounds, append=len(kept)))
        return rows + 1, 4 * bounds[rows], cells[near], w

    def _rows(self, geometry):
        """Sparse rows of every block angle, built from the points on the
        arcs that can reach the support of ``geometry`` (see
        :func:`_circle_geometry`), streamed angle by angle."""
        angles = self.sino_grid.block_angles(self.j)
        return (self._angle_rows(phi, geometry, cand)
                for phi, cand in zip(angles, self._arcs(geometry, angles)))

    def _domain_rows(self):
        """The rows of the disc domain: built at the first call and kept by
        an operator given its system's geometry, streamed by one given none."""
        if self._geometry is None:
            grid = self.pixel_grid
            table = _corner_table(grid, grid.mask)
            return self._rows(_circle_geometry(grid, self.sino_grid, table))
        if self._fwd_rows is None:
            self._fwd_rows = list(self._rows(self._geometry))
        return self._fwd_rows

    def forward_raw(self, x: np.ndarray) -> np.ndarray:
        """Circular means of the density array on the block samples; the
        samples at r = 0 are exactly zero."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.pixel_grid.shape:
            raise ValueError(f"density shape {x.shape} does not match grid")
        grid = self.pixel_grid
        if self._geometry is None:
            # rows of the support of this density only
            table = _corner_table(grid, x)
            angle_rows = self._rows(_circle_geometry(grid, self.sino_grid, table))
        else:
            # the rows before the table: with the table first, the peak RSS
            # of a compare_table.cfg run reads 1% higher (heap layout; the
            # bytes alive are the same)
            angle_rows, table = self._domain_rows(), _corner_table(grid, x)
        out = np.zeros(self.sino_grid.block_shape)
        for a, (rows, starts, cells, w) in enumerate(angle_rows):
            vals = table.take(cells, axis=0)
            vals *= w
            out[a, rows] = np.add.reduceat(vals.ravel(), starts)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Smoothed circular means: radial smoothing after ``forward_raw``."""
        return smooth_radial(self.forward_raw(x), self.kernel)

    def row_size(self) -> tuple[int, int]:
        """The quadrature points and the bytes the cached rows hold; zero
        before the first build and for streamed rows."""
        rows = self._fwd_rows or []
        return (sum(len(cells) for _, _, cells, _ in rows),
                sum(a.nbytes for arrays in rows for a in arrays))

    def kernel_sup(self) -> float:
        """Supremum of the block's discrete smoothed kernel over its samples
        and the domain nodes.

        Accumulates each angle's sparse rows per node of the padded grid,
        which equals running ``forward`` on unit-mass single-node densities.
        """
        grid = self.pixel_grid
        n = grid.n_t + 4
        n_samples = self.sino_grid.n_r + 1
        # cell c = i*(n - 1) + j has its corner (a, b) at padded node
        # (i + a)*n + j + b = c + i + a*n + b
        offsets = np.array([a * n + b for a, b in _CORNERS])
        sup = 0.0
        for rows, starts, cells, w in self._domain_rows():
            sample = np.repeat(rows, np.diff(starts, append=w.size))
            node = (cells + cells // (n - 1))[:, None] + offsets
            raw = np.bincount(sample * n * n + node.ravel(), w.ravel(),
                              minlength=n_samples * n * n)
            raw = raw.reshape(n_samples, n, n)[:, 1 : n - 2, 1 : n - 2].T
            raw = smooth_radial(raw / grid.cell_measure, self.kernel)
            sup = max(sup, float(raw[grid.mask.T].max()))
        return sup

    # -- backprojection -----------------------------------------------------

    @cached_property
    def _adjoint_plan(self):
        grid = self.pixel_grid
        sg = self.sino_grid
        idx = np.flatnonzero(grid.mask.ravel())
        tx = grid.nodes[idx // (grid.n_t + 1)]
        ty = grid.nodes[idx % (grid.n_t + 1)]
        angles = sg.block_angles(self.j)
        # radii from every detector center of the block to every domain
        # node, angle by angle
        rho = np.hypot(
            tx[None, :] - np.cos(angles)[:, None],
            ty[None, :] - np.sin(angles)[:, None],
        )
        u = rho * (sg.n_r / 2.0)
        lo = np.floor(u).astype(np.intp)
        fr = u - lo
        # flat indices into the data padded with one zero column: domain
        # nodes lie within distance 2 of every center, so the radial index
        # is at most n_r and the upper sample reads the zero beyond the
        # radial range at most
        lo += np.arange(sg.n_phi)[:, None] * (sg.n_r + 2)
        return idx, lo, fr

    def backproject(self, y: np.ndarray, shift: float = 0.0,
                    scale: float = 1.0) -> np.ndarray:
        """Average block data over angles at each domain node, plus
        ``shift`` and divided by ``scale`` there.

        Data is interpolated piecewise linearly in the radius and extended
        by zero beyond the radial range; the result is zero outside the
        disc domain.
        """
        y = np.asarray(y, dtype=np.float64)
        sg = self.sino_grid
        if y.shape != sg.block_shape:
            raise ValueError(f"block shape {y.shape} does not match grid")
        idx, lo, fr = self._adjoint_plan
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
        acc += shift
        acc /= scale
        out = np.zeros(self.pixel_grid.shape)
        out.ravel()[idx] = acc
        return out

    def adjoint(self, y: np.ndarray, shift: float = 0.0,
                scale: float = 1.0) -> np.ndarray:
        """Backprojection of radially smoothed data, with the ``shift`` and
        ``scale`` of :meth:`backproject`."""
        return self.backproject(smooth_radial(y, self.kernel), shift, scale)


# ---------------------------------------------------------------------------
# system of blocks


def kernel_floor(lam: float, block_measure: float) -> float:
    """Floor lam / (1 + lam*b) of the shifted kernel, or 0.0 where the shift
    gives none: at lam <= 0 and where 1 + lam*b overflows."""
    scale = 1.0 + lam * block_measure
    return lam / scale if lam > 0.0 and math.isfinite(scale) else 0.0


class RadonSystem:
    """The block operators sharing one geometry, with the additive shift
    that floors their kernel.

    This is the object the solvers consume.  With shift parameter lam > 0
    and block measure b, the samples of block j become
    (A_j x + lam * integral(x)) / (1 + lam * b) and the adjoint gains the
    matching lam * integral(y) term.  The effective kernel then lies in
    [m, M] with m = lam / (1 + lam * b) > 0.  ``ops`` holds the unshifted
    block operators A_j, which share one circle geometry.
    """

    def __init__(
        self,
        pixel_grid: PixelGrid,
        sino_grid: SinogramGrid,
        lam: float,
        K: int,
    ):
        if not kernel_floor(lam, sino_grid.block_measure) > 0.0:
            raise ValueError(
                f"shift parameter lambda must be positive, with 1 + lambda*b "
                f"finite, got {lam}"
            )
        self.pixel_grid = pixel_grid
        self.sino_grid = sino_grid
        self.lam = lam
        self._scale = 1.0 + lam * sino_grid.block_measure
        self.kernel = SmoothingKernel(sino_grid.n_r, K)
        geometry = _circle_geometry(pixel_grid, sino_grid,
                                    _corner_table(pixel_grid, pixel_grid.mask))
        self.ops = [
            RadonBlockOperator(pixel_grid, sino_grid, j, self.kernel, geometry=geometry)
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
        return kernel_floor(self.lam, self.sino_grid.block_measure)

    def forward(self, x: np.ndarray, j: int) -> np.ndarray:
        mass = float(np.sum(self.node_weights * x))
        return (self.ops[j].forward(x) + self.lam * mass) / self._scale

    def adjoint(self, y: np.ndarray, j: int) -> np.ndarray:
        # the shift applies on the domain nodes only
        integral = float(np.sum(y) * self.block_weight)
        return self.ops[j].adjoint(y, self.lam * integral, self._scale)

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
        """Threshold constant max(|log(m1/M)|, |log(M1/m)|); inf when m1/M
        underflows to zero."""
        lo = self.m1 / self.M
        return max(abs(math.log(lo)) if lo > 0.0 else math.inf,
                   abs(math.log(self.M1 / self.m)))


def effective_bounds(system: RadonSystem, shifted_blocks) -> EffectiveBounds:
    """Bounds of the shifted system for the given shifted data blocks.

    ``shifted_blocks`` are the data arrays the solver will see.  Raises if
    the data floor is not positive, since the threshold constant cannot be
    formed in that case.
    """
    m = system.m
    # the shift maps the raw kernel sup to the effective kernel's
    M = (system.raw_kernel_sup() + system.lam) / system._scale
    m1 = min(float(np.min(b)) for b in shifted_blocks)
    M1 = max(float(np.max(b)) for b in shifted_blocks)
    if not m1 > 0.0:
        raise ValueError(
            "shifted data floor is not positive; cannot form the threshold constant"
        )
    if not math.isfinite(M1):
        raise ValueError("shifted data has non-finite entries")
    return EffectiveBounds(m=m, M=M, m1=m1, M1=M1)
