"""Discretized circular Radon transform blocks with radial smoothing.

The forward map of block j evaluates circular means of a density over
circles centered on the unit circle, scaled so that its sums over the radii,
at their spacing 2/n_r, integrate to the mass of the density.  The sample
weight spreads the block measure over all n_r + 1 radii, the always-zero
r = 0 included, so the data of a block integrate to about n_r/(n_r + 1) of
the mass.  A triangular radial smoothing makes
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
(circle weight) * (bilinear weight).  A point whose corners are all zero
adds an exact zero, so dropping it changes only how the sums are
grouped.  A kept point lies within sqrt(2)*h (node spacing h) of a
support node, so within the support's largest origin distance plus
sqrt(2)*h of the origin, and on each circle only one arc, opposite the
detector, can hold it.  Both projections cut each circle to a window
around that arc, in one pass per band of radii over all their angles,
with one guard that no kept point lies outside its window.  The
operators of a system share the disc domain's circle geometry, with
windows cut at the domain's reach, and each builds its rows of the
domain once and keeps them in chunks, one per band: each row holds its
window, padded to its band's cap, and the window points the cell test
drops and the padding are entries of weight zero on a cell whose
corners are zero.  The simulation's projection, ``support_forward``,
cuts its windows at the reach of the projected density's support and
streams the rows of that support: the window points that pass the cell
test, compacted before their weights are computed.  Both read each
cell's corners from a table of the density's values on the domain,
padded by zeros: ``forward_raw`` per chunk, one gather and one dot per
row, and ``support_forward`` per band, one gather and one segment sum;
node values off the domain are never read.
The backprojection plan is angle-major, one row of radial indices and
fractions per angle, built angle by angle and contracted over the angles
by ``einsum``, one block-sized gather per term; the shifted
system's adjoint adds its shift on the domain nodes only.
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
    radii r > 0, radius by radius, as the rows of one (2, points) array,
    with each point's weight r*n_blocks/n_omega(r) and the index of each
    radius's first point; the same for every block and angle of a
    geometry."""
    radii = sino_grid.radii[1:]
    counts = _circle_counts(pixel_grid.n_t, radii)
    first = np.cumsum(counts) - counts
    k = np.arange(counts.sum()) - np.repeat(first, counts)
    theta = 2.0 * math.pi * k / np.repeat(counts, counts)
    r = np.repeat(radii, counts)
    coef = np.repeat(radii * sino_grid.n_blocks / counts, counts)
    off = np.empty((2, len(r)))
    np.multiply(r, np.cos(theta), out=off[0])
    np.multiply(r, np.sin(theta), out=off[1])
    return off, coef, first


def _circle_counts(n_t: int, radii: np.ndarray) -> np.ndarray:
    """The points n_omega(r) = max(8, ceil(3*r*n_t)) of each circle."""
    return np.maximum(np.ceil(3.0 * radii * n_t).astype(np.int64), 8)


def _arc_half_widths(counts: np.ndarray, r: np.ndarray, reach: float) -> np.ndarray:
    """Half the index width of the arc of each circle (``counts`` points,
    radius ``r``, centred on the unit circle) that lies within ``reach`` of
    the origin.

    The point at offset angle t from the detector at phi has |p|^2 =
    1 + r^2 + 2r*cos(t - phi), so on each radius the points within the
    reach form one arc centred opposite the detector.  The reach gets a
    slack for rounding and the arc one point each way.
    """
    reach += 1e-9
    cos_max = np.clip((reach * reach - 1.0 - r * r) / (2.0 * r), -1.0, 1.0)
    return counts * (0.5 - np.arccos(cos_max) / (2.0 * math.pi)) + 1.0


def _domain_reach(pixel_grid: PixelGrid) -> float:
    """The reach :func:`_support` finds on the domain's corner table, bit
    for bit, in O(n_t log n_t): the largest origin distance of a domain node plus
    sqrt(2)*h (node spacing h).  Per node row x, the largest node square
    y^2 with x^2 + y^2 below radius^2 is searched as y^2 < radius^2 - x^2
    among the distinct squares, then moved by one where rounding puts the
    mask's own test on the other side."""
    x2 = pixel_grid.nodes * pixel_grid.nodes
    r2 = pixel_grid.radius ** 2
    # distinct squares: a move by one past a square that +-y share would
    # land on the same square (np.unique would import numpy.ma, 20 ms)
    y2 = np.sort(x2)
    y2 = np.concatenate([[-np.inf], y2[np.append(True, y2[1:] != y2[:-1])], [np.inf]])
    k = np.searchsorted(y2, r2 - x2) - 1  # the last square inside
    k += x2 + y2[k + 1] < r2
    k -= ~(x2 + y2[k] < r2)
    d2 = x2 + y2[k]
    return math.sqrt(float(d2[k > 0].max())) + math.sqrt(2.0) * pixel_grid.spacing


# the cached forward rows of a block are kept in chunks, one per band of
# radii over all the block's angles, each row padded to the band's cap.  A
# band grows while its chunk holds at most _CHUNK_POINTS entries and its
# padding beyond the caps of its own radii stays within _PAD_SHARE of them.
# Measured on one block of exact_em_64.cfg and of compare_table.cfg at
# N = 10 and 20, chunks of 4096 and 8192 entries run alike, and unlimited
# padding runs the N = 20 forward about 14% faster with 5.6% more entries;
# the share bounds what padding adds to the rows' memory and to the count
# that max_sim_nodes caps (on a 2 x 2 grid with one angle per block,
# unlimited padding stores 128 entries for 43 points, this rule 96)
_CHUNK_POINTS = 4096
_PAD_SHARE = 0.125


def _row_bands(pixel_grid: PixelGrid, sino_grid: SinogramGrid, reach: float):
    """The bands ``(s0, s1, cap)`` of samples s0 <= s < s1 whose row
    windows one pass builds, each padded to ``cap`` slots, with the arc
    half-width and the cap of each radius they are cut from, in O(n_r).  Per angle, the
    kept points of radius i lie on the arc within ``reach`` of the origin,
    half_i - 1 points each way of its centre (see
    :func:`_arc_half_widths`), so they number at most cap_i = min(count_i,
    floor(2*half_i)), one point of slack for rounding included; a band's
    cap is the largest of its radii's."""
    r = sino_grid.radii[1:]
    counts = _circle_counts(pixel_grid.n_t, r)
    half = _arc_half_widths(counts, r, reach)
    caps = np.minimum(counts, np.floor(2.0 * half).astype(np.int64)).tolist()
    bands = []
    s0 = 1
    while s0 <= len(caps):
        s1, cap, own = s0 + 1, caps[s0 - 1], caps[s0 - 1]
        while s1 <= len(caps):
            c = caps[s1 - 1]
            size = (s1 + 1 - s0) * max(cap, c)
            if (sino_grid.n_phi * size > _CHUNK_POINTS
                    or size > (1.0 + _PAD_SHARE) * (own + c)):
                break
            s1, cap, own = s1 + 1, max(cap, c), own + c
        bands.append((s0, s1, cap))
        s0 = s1
    return bands, half, np.array(caps)


def _row_point_bound(pixel_grid: PixelGrid, sino_grid: SinogramGrid) -> int:
    """The entries, padding included, the cached rows of a system on these
    grids hold, in O(n_r + n_t log n_t): every block's chunks of
    :func:`_row_bands` at the domain's reach."""
    bands, _, _ = _row_bands(pixel_grid, sino_grid, _domain_reach(pixel_grid))
    return sino_grid.n_angles * sum((s1 - s0) * cap for s0, s1, cap in bands)


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
    np.copyto(padded[1 : n - 2, 1 : n - 2], x, where=grid.mask)
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
    # squared distances formed as the mask forms them, so that the reach on
    # the domain's table is _domain_reach's; a square root, correctly
    # rounded, keeps their order
    x, y = grid.nodes.take(i - 1), grid.nodes.take(j - 1)
    d2 = x * x
    d2 += y * y
    # four column tests, a fraction of the cost of table.any(axis=1)
    nonzero = table[:, 0] != 0.0
    for k in range(1, 4):
        nonzero |= table[:, k] != 0.0
    return nonzero, math.sqrt(d2.max(initial=0.0)) + math.sqrt(2.0) * grid.spacing


def _circle_geometry(pixel_grid: PixelGrid, sino_grid: SinogramGrid,
                     table: np.ndarray):
    """The circle points (see :func:`_circle_points`) with the cell test and
    the reach of the support of the corner ``table`` (see :func:`_support`)
    and the bands, arc half-widths and caps of the windows cut at that
    reach (see :func:`_row_bands`): what the rows of every block are built
    from."""
    points = _circle_points(pixel_grid, sino_grid)
    on_support, reach = _support(pixel_grid, table)
    return points, on_support, _row_bands(pixel_grid, sino_grid, reach)


def _sum_by_key(keys: np.ndarray, values: np.ndarray):
    """The distinct ``keys``, ascending, and the sum of the ``values`` of
    each, added in the order they come."""
    keys, inverse = np.unique(keys, return_inverse=True)
    return keys, np.bincount(inverse, values, minlength=len(keys))


def _shift_sums(keys: np.ndarray, vals: np.ndarray, n_samples: int, shifts):
    """The sums of ``vals`` at the ascending keys node*n_samples + sample
    shifted along the sample as :func:`smooth_radial` shifts them: each
    value lands at sample - d at weight w_d, for the ``(d, w_d)`` of
    ``shifts`` (ascending d, a run of integers), where that stays within
    [0, n_samples).  The output keys are the merged runs each key reaches,
    and the shifts add into them in turn, as ``smooth_radial`` adds them."""
    s = keys % n_samples
    # key k reaches the keys [lo, hi), both nondecreasing in k
    lo = keys - np.minimum(s, shifts[-1][0])
    hi = keys + np.minimum(n_samples - 1 - s, -shifts[0][0]) + 1
    head = np.flatnonzero(np.concatenate([[True], lo[1:] > hi[:-1]]))
    tail = np.append(head[1:], len(keys)) - 1
    sizes = hi[tail] - lo[head]
    out_keys = np.arange(sizes.sum()) + np.repeat(lo[head] - np.cumsum(sizes) + sizes,
                                                  sizes)
    out = np.zeros(len(out_keys))
    for d, wd in shifts:
        m = (s >= d) & (s - d < n_samples)
        out[np.searchsorted(out_keys, keys[m] - d)] += wd * vals[m]
    return out_keys, out


def _point_cells(n_t: int, cs, off: np.ndarray, pts: np.ndarray, cells: np.ndarray):
    """Write into ``cells`` the corner-table cell (ix + 1)*(n_t + 3) + iy + 1
    of each of the circle points ``pts`` seen from the detector at angle
    phi, ``cs`` = (cos phi, sin phi): u = (u_x, u_y) = (cs + off + 1)*n_t/2
    is the point in node spacings and i = (ix, iy) its floor.  Cells beyond
    the zero ring are clipped onto it, which is off every support, and the
    points kept are not moved.  Returns u and i, each stacked over the two
    coordinates; indices past the offsets are clipped, for pad slots whose
    points are never kept."""
    u = off.take(pts, axis=1, mode="clip")
    u += cs
    u += 1.0
    u *= n_t / 2.0
    i = np.floor(u)
    np.clip(i, -1, n_t, out=i)
    # (ix + 1)*(n_t + 3) + iy + 1 in whole floats, which are exact, and
    # one cast: an integer ufunc output would cast through a buffer of
    # the input's size
    cf = i[0] * (n_t + 3)
    cf += i[1]
    cf += n_t + 4
    cells[...] = cf
    return u, i


def _point_weights(f: np.ndarray, g: np.ndarray, coef, w: np.ndarray) -> None:
    """Write into ``w[..., k]`` the weight coef*(bilinear weight) of the
    corner (ix + a, iy + b), the k-th of ``_CORNERS``, of each point from
    its fractions f = u - i (see :func:`_point_cells`), stacked over the
    two coordinates; f is overwritten and g, of its shape, takes 1 - f."""
    np.subtract(1.0, f, out=g)
    g[0] *= coef
    f[0] *= coef
    wx, wy = (g[0], f[0]), (g[1], f[1])
    for k, (a, b) in enumerate(_CORNERS):
        np.multiply(wx[a], wy[b], out=w[..., k])


def _windows(n_t: int, angles: np.ndarray, geometry, cells=None):
    """The windows of the rows of ``geometry`` (see :func:`_circle_geometry`)
    at the ``angles``, band by band: per band (s0, s1, cap), yields ``(s0,
    s1, c, u, i, keep)``, with the cells c, shaped (n_phi, s1 - s0, cap),
    of every window slot, their points u and floors i (see
    :func:`_point_cells`), and which slots hold a point that passes the
    cell test.  The cells go into consecutive views of the flat buffer
    ``cells``, or into one new array per band.

    On radius i the window is the cap_i points from ceil(c - half_i + 1),
    with c = count_i*(phi/2pi + 1/2) the arc centre, the points past the
    circle's last listed first so that the row ascends.  It covers every
    point within half_i - 1 of the centre, which holds every kept point;
    the slots past cap_i hold none.  Raises AssertionError, before the
    first band, where a circle point just outside a window that is not the
    whole circle passes the cell test."""
    n_phi = len(angles)
    (off, coef, first), on_support, (bands, half, caps) = geometry
    counts = np.diff(first, append=len(coef))
    cs = np.array([[math.cos(phi) for phi in angles],
                   [math.sin(phi) for phi in angles]])[..., None, None]
    # per angle and radius, the window's first point
    start = counts * (angles[:, None] / (2.0 * math.pi) + 0.5)
    start -= half
    start += 1.0
    start = np.ceil(start, out=start).astype(np.int64)
    start %= counts
    # the points just outside each window that is not the whole circle
    # fail the cell test, checked a few angles at a time
    part = caps < counts
    step = max(1, _CHUNK_POINTS // (4 * len(caps)))
    for a in range(0, n_phi, step):
        s = start[a : a + step, part]
        pts = np.stack([s - 1, s + caps[part]], axis=-1)
        pts %= counts[part, None]
        pts += first[part, None]
        near = np.empty(pts.shape, dtype=np.intp)
        _point_cells(n_t, cs[:, a : a + step], off, pts, near)
        if on_support.take(near).any():
            raise AssertionError("a kept forward point lies outside its row's window")
    # slot k of a window holds point first + k where k < wrap, the points
    # past the circle's last, and base + k after them
    wrap = np.maximum(start + caps - counts, 0)
    base = start - wrap
    base += first
    del start
    end = 0
    for s0, s1, cap in bands:
        shape = (n_phi, s1 - s0, cap)
        if cells is None:
            c = np.empty(shape, dtype=np.intp)
        else:
            c = cells[end : end + math.prod(shape)].reshape(shape)
            end += c.size
        r = slice(s0 - 1, s1 - 1)
        k = np.arange(cap)
        pts = base[:, r, None] + k
        np.copyto(pts, first[r, None] + k, where=k < wrap[:, r, None])
        u, i = _point_cells(n_t, cs, off, pts, c)
        del pts
        keep = on_support.take(c)
        keep &= k < caps[r, None]
        yield s0, s1, c, u, i, keep
        # one band's temporaries alive at a time
        del c, u, i, keep


def _kept_rows(pixel_grid: PixelGrid, angles: np.ndarray, geometry):
    """The rows of ``geometry`` at the ``angles`` from the window points that
    pass the cell test (see :func:`_windows`), band by band: yields ``(s0,
    s1, sizes, cells, w)``, with the kept points of each (angle, sample)
    row, shaped (n_phi, s1 - s0), and the cell and the four corner weights
    of every kept point, row after row, each row in ascending point
    order."""
    (_, coef, first), _, _ = geometry
    for s0, s1, c, u, i, keep in _windows(pixel_grid.n_t, angles, geometry):
        cells = c[keep]
        # the kept points' fractions, a coordinate at a time: a boolean index
        # over one coordinate copies runs of points fast, one over both does not
        f, g = np.empty((2, len(cells))), np.empty((2, len(cells)))
        for d in range(2):
            np.subtract(u[d][keep], i[d][keep], out=f[d])
        sizes = keep.sum(axis=-1)
        del c, u, i, keep
        row_coef = np.broadcast_to(coef.take(first[s0 - 1 : s1 - 1]), sizes.shape)
        w = np.empty((len(cells), 4))
        _point_weights(f, g, np.repeat(row_coef.ravel(), sizes.ravel()), w)
        yield s0, s1, sizes, cells, w


def _check_margin(pixel_grid: PixelGrid, kernel: SmoothingKernel) -> None:
    """Raise ValueError where the support margin epsilon of ``pixel_grid``
    is smaller than the smoothing width 2K/n_r of ``kernel``."""
    if pixel_grid.epsilon + 1e-12 < kernel.epsilon:
        raise ValueError(f"the support margin epsilon = {pixel_grid.epsilon} is "
                         f"smaller than the smoothing width 2K/n_r = {kernel.epsilon}")


def support_forward(pixel_grid: PixelGrid, sino_grid: SinogramGrid,
                    kernel: SmoothingKernel, x: np.ndarray) -> np.ndarray:
    """Smoothed circular means of the density array ``x`` at every angle of
    ``sino_grid``, block after block, shaped (n_angles, n_r + 1).

    The rows are built for this call from the support of ``x`` only, with
    windows cut at its reach, and streamed band by band (see
    :func:`_kept_rows`): per band, one gather and one segment sum.
    """
    _check_margin(pixel_grid, kernel)
    table = _corner_table(pixel_grid, x)
    geometry = _circle_geometry(pixel_grid, sino_grid, table)
    out = np.zeros((sino_grid.n_angles, sino_grid.n_r + 1))
    for s0, s1, sizes, cells, w in _kept_rows(pixel_grid, sino_grid.angles, geometry):
        vals = table.take(cells, axis=0)
        vals *= w
        # empty rows (circles that miss the support) stay out of reduceat
        rows = sizes > 0
        starts = np.cumsum(sizes).reshape(sizes.shape) - sizes
        out[:, s0:s1][rows] = np.add.reduceat(vals.ravel(), 4 * starts[rows])
    return smooth_radial(out, kernel)


class RadonBlockOperator:
    """Circular means and backprojection restricted to one angular block.

    ``forward_raw`` maps a density array to circular means on the block
    samples, ``forward`` additionally applies the radial smoothing, and
    ``adjoint`` is backprojection after smoothing.  The forward map of each
    angle is a set of sparse rows, one per sample, built from ``geometry``,
    the domain's circle geometry its system shares (see
    :func:`_circle_geometry`): a cell of the zero-padded corner table and
    four weights per quadrature point.  The rows, in the padded chunks of
    the geometry's bands, and the backprojection indices are built at the
    first call that needs them and kept.
    """

    def __init__(
        self,
        pixel_grid: PixelGrid,
        sino_grid: SinogramGrid,
        j: int,
        kernel: SmoothingKernel,
        geometry,
    ):
        self.pixel_grid = pixel_grid
        self.sino_grid = sino_grid
        self.j = j
        self.kernel = kernel
        self._geometry = geometry

    # -- forward ------------------------------------------------------------

    @cached_property
    def _chunks(self):
        """The rows of the system's geometry as chunks ``(s0, s1, cells,
        w)``, one per band, built a band at a time straight into their
        place in one buffer pair: per angle and sample, the cells (n_phi,
        s1 - s0, cap) and the corner weights (n_phi, s1 - s0, 4*cap) of its
        window (see :func:`_windows`).  The window points that fail the
        cell test and the slots past cap_i are pad entries, the corner
        table's last cell, in the zero ring, at weight zero."""
        n_phi = self.sino_grid.n_phi
        (_, coef, first), _, (bands, _, _) = self._geometry
        cells = np.empty(n_phi * sum((s1 - s0) * cap for s0, s1, cap in bands),
                         dtype=np.intp)
        w = np.empty((len(cells), 4))
        pad_cell = (self.pixel_grid.n_t + 3) ** 2 - 1
        chunks = []
        end = 0
        for s0, s1, c, u, i, keep in _windows(self.pixel_grid.n_t,
                                              self.sino_grid.block_angles(self.j),
                                              self._geometry, cells):
            wc = w[end : end + c.size].reshape(*c.shape, 4)
            end += c.size
            # the fractions of every kept point lie in [0, 1]; clipped there,
            # a pad's weights at coef 0 are +0.0
            f = np.subtract(u, i, out=u)
            np.clip(f, 0.0, 1.0, out=f)
            row_coef = coef.take(first[s0 - 1 : s1 - 1, None])
            _point_weights(f, i, np.where(keep, row_coef, 0.0), wc)
            np.copyto(c, pad_cell, where=~keep)
            chunks.append((s0, s1, c, wc.reshape(n_phi, s1 - s0, -1)))
            # one band's temporaries alive at a time
            del u, i, f, keep
        return chunks

    def forward_raw(self, x: np.ndarray) -> np.ndarray:
        """Circular means of the density array on the block samples; the
        samples at r = 0 are exactly zero."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.pixel_grid.shape:
            raise ValueError(f"density shape {x.shape} does not match grid")
        out = np.zeros(self.sino_grid.block_shape)
        # the rows before the table: with the table first, the peak RSS
        # of a compare_table.cfg run reads 1% higher (heap layout; the
        # bytes alive are the same)
        chunks, table = self._chunks, _corner_table(self.pixel_grid, x)
        for s0, s1, cells, w in chunks:
            # one dot per (angle, sample) row
            vals = table.take(cells, axis=0)
            np.vecdot(vals.reshape(w.shape), w, out=out[:, s0:s1])
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Smoothed circular means: radial smoothing after ``forward_raw``."""
        return smooth_radial(self.forward_raw(x), self.kernel)

    def row_size(self) -> tuple[int, int]:
        """The entries, padding included, and the bytes the cached rows
        hold; zero before the first build."""
        chunks = vars(self).get("_chunks", ())
        return (sum(cells.size for _, _, cells, _ in chunks),
                sum(cells.nbytes + w.nbytes for _, _, cells, w in chunks))

    def kernel_sup(self) -> float:
        """Supremum of the block's discrete smoothed kernel over its samples
        and the domain nodes.

        Sums each angle's sparse row entries per (domain node, sample) and
        smooths those sums along the sample, which equals running
        ``forward`` on unit-mass single-node densities; the sums and the
        smoothing add in the order the dense arrays would.
        """
        grid = self.pixel_grid
        n = grid.n_t + 4
        n_samples = self.sino_grid.n_r + 1
        # cell c = i*(n - 1) + j has its corner (a, b) at padded node
        # (i + a)*n + j + b = c + i + a*n + b
        offsets = np.array([a * n + b for a, b in _CORNERS])
        on_domain = np.pad(grid.mask, (1, 2)).ravel()  # per padded node
        K = self.kernel.K
        # smooth_radial adds sample s + d at weight w_d to sample s, d = -K..K,
        # of which the d in (-K, K) weigh nonzero; a sum lands only on a
        # sample within the radial range
        shifts = [(d, wd) for d, wd in zip(range(-K, K + 1), self.kernel.weights)
                  if wd != 0.0]
        chunks = self._chunks
        sample = np.concatenate([np.repeat(np.arange(s0, s1), w.shape[-1])
                                 for s0, s1, _, w in chunks])
        sup = 0.0
        for a in range(self.sino_grid.n_phi):
            cells = np.concatenate([c[a].ravel() for _, _, c, _ in chunks])
            node = ((cells + cells // (n - 1))[:, None] + offsets).ravel()
            # pad entries point at a cell off the domain
            keep = on_domain.take(node)
            keys, vals = _sum_by_key(
                node[keep] * n_samples + sample[keep],
                np.concatenate([w[a].ravel() for _, _, _, w in chunks])[keep])
            vals /= grid.cell_measure
            if K > 1:
                keys, vals = _shift_sums(keys, vals, n_samples, shifts)
            sup = max(sup, float(vals.max(initial=0.0)))
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
        cos, sin = np.cos(angles), np.sin(angles)
        # radial index and fraction from every detector center of the block
        # to every domain node, built angle by angle in place; the distance
        # is sqrt(dx*dx + dy*dy), which rounds alike on every IEEE platform
        # and costs a fifth of libm's hypot
        lo = np.empty((sg.n_phi, len(idx)), dtype=np.intp)
        fr = np.empty((sg.n_phi, len(idx)))
        dy = np.empty(len(idx))
        for a in range(sg.n_phi):
            u = np.subtract(tx, cos[a], out=fr[a])
            u *= u
            np.subtract(ty, sin[a], out=dy)
            dy *= dy
            u += dy
            np.sqrt(u, out=u)
            u *= sg.n_r / 2.0
            lo[a] = u  # truncation is the floor, since u >= 0
            u -= lo[a]
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
        # y0 + fr*(y1 - y0), each term gathered over the whole plan and
        # contracted over the angles; one block-sized gather alive at a time
        acc = np.einsum("ij,ij->j", (flat[1:] - flat[:-1]).take(lo), fr)
        acc += np.einsum("ij->j", flat.take(lo))
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
        _check_margin(pixel_grid, self.kernel)
        # windows cut at the domain's reach, _domain_reach
        geometry = _circle_geometry(pixel_grid, sino_grid,
                                    _corner_table(pixel_grid, pixel_grid.mask))
        self.ops = [
            RadonBlockOperator(pixel_grid, sino_grid, j, self.kernel, geometry)
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
