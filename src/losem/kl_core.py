"""Grids, simplex densities and Kullback-Leibler functionals.

Everything downstream (operators, solvers, experiments) is built on the two
quadratures defined here: uniform pixel cells masked to a disc domain for
densities, and uniform angle/radius samples grouped into angular-sector
blocks for sinogram data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "AssumptionError",
    "PixelGrid",
    "SinogramGrid",
    "kl_distance",
    "normalize_to_simplex",
    "uniform_density",
    "weighted_l1",
    "weighted_l2",
    "save_key_values",
    "save_matrix_csv",
    "save_pgm",
]

class ConfigError(Exception):
    """Invalid configuration or command line (exit code 2)."""


class AssumptionError(Exception):
    """A mathematical precondition of the method fails (exit code 3)."""


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class PixelGrid:
    """Square node grid on [-1, 1]^2 masked to a centered disc domain.

    Nodes sit at -1 + 2*i/n_t per axis, i = 0..n_t, so there are
    (n_t + 1)^2 nodes with spacing 2/n_t.  The reconstruction domain is the
    open disc of radius 1 - epsilon; nodes outside it carry zero quadrature
    weight.  Integrals over the domain use the uniform cell measure
    (2/n_t)^2 at every inside node.
    """

    n_t: int
    epsilon: float

    def __post_init__(self):
        if self.n_t < 2:
            raise ValueError(f"n_t must be >= 2, got {self.n_t}")
        # (n_t + 1)^2 nodes must fit one array
        if self.n_t >= math.isqrt(np.iinfo(np.intp).max):
            raise ValueError(
                f"n_t must be below {math.isqrt(np.iinfo(np.intp).max)}, "
                "the largest grid an array can hold"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        # the node coordinates nearest 0, computed as in ``nodes``; the
        # nearest node pair decides whether ``mask`` is all False, without
        # building the (n_t + 1)^2 mask at load time
        i = np.array([self.n_t // 2, (self.n_t + 1) // 2])
        near = -1.0 + 2.0 * i / self.n_t
        if not 2.0 * float(np.min(near * near)) < self.radius ** 2:
            raise ValueError(
                f"the disc domain of radius {self.radius!r} holds no node of "
                f"the n_t = {self.n_t} grid; raise n_t or lower epsilon"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_t + 1, self.n_t + 1)

    @property
    def spacing(self) -> float:
        return 2.0 / self.n_t

    @property
    def cell_measure(self) -> float:
        return self.spacing ** 2

    @property
    def radius(self) -> float:
        """Radius of the disc domain."""
        return 1.0 - self.epsilon

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates along one axis, length n_t + 1."""
        out = -1.0 + 2.0 * np.arange(self.n_t + 1) / self.n_t
        out.flags.writeable = False
        return out

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean array, True at nodes strictly inside the disc domain."""
        x = self.nodes[:, None]
        y = self.nodes[None, :]
        out = x * x + y * y < self.radius ** 2
        out.flags.writeable = False
        return out

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Quadrature weights: cell measure inside the domain, zero outside."""
        out = np.where(self.mask, self.cell_measure, 0.0)
        out.flags.writeable = False
        return out

    @cached_property
    def domain_nodes(self) -> np.ndarray:
        """Flat indices of the nodes inside the disc domain, ascending."""
        out = np.flatnonzero(self.mask.ravel())
        out.flags.writeable = False
        return out


def uniform_density(grid: PixelGrid) -> np.ndarray:
    """The constant unit-mass density on the disc domain, as read-only
    node values."""
    out = normalize_to_simplex(np.where(grid.mask, 1.0, 0.0), grid.node_weights)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SinogramGrid:
    """Uniform angle/radius sampling of the data cylinder, split into blocks.

    Detector centers sit on the unit circle at n_blocks * n_phi angles tiling
    [0, 2*pi) uniformly; block j owns the n_phi consecutive angles of the
    sector [2*pi*j/n_blocks, 2*pi*(j+1)/n_blocks).  Radii are r[i] = 2*i/n_r
    for i = 0..n_r.  Each sample carries the uniform quadrature weight
    block_measure / (n_phi * (n_r + 1)) so the weights of one block sum to
    the block measure 4*pi/n_blocks.
    """

    n_blocks: int
    n_phi: int
    n_r: int

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.n_phi < 1:
            raise ValueError(f"n_phi must be >= 1, got {self.n_phi}")
        if self.n_r < 2:
            raise ValueError(f"n_r must be >= 2, got {self.n_r}")

    @property
    def n_angles(self) -> int:
        return self.n_blocks * self.n_phi

    @property
    def block_shape(self) -> tuple[int, int]:
        return (self.n_phi, self.n_r + 1)

    @property
    def block_measure(self) -> float:
        """Measure of one block: angular sector times radial extent (0, 2)."""
        return 4.0 * math.pi / self.n_blocks

    @property
    def sample_weight(self) -> float:
        return self.block_measure / (self.n_phi * (self.n_r + 1))

    @cached_property
    def angles(self) -> np.ndarray:
        out = 2.0 * math.pi * np.arange(self.n_angles) / self.n_angles
        out.flags.writeable = False
        return out

    @cached_property
    def radii(self) -> np.ndarray:
        out = 2.0 * np.arange(self.n_r + 1) / self.n_r
        out.flags.writeable = False
        return out

    def block_angles(self, j: int) -> np.ndarray:
        if not 0 <= j < self.n_blocks:
            raise ValueError(f"block index {j} out of range [0, {self.n_blocks})")
        return self.angles[j * self.n_phi : (j + 1) * self.n_phi]


# ---------------------------------------------------------------------------
# Kullback-Leibler machinery


def _check_pair(v, u, weights):
    v = np.asarray(v, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if v.shape != u.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {u.shape}")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim and w.shape != v.shape:
            raise ValueError(f"weights shape {w.shape} does not match {v.shape}")
    else:
        w = np.float64(1.0)
    # fmin skips nans, as the test v < 0 does, and needs no boolean array
    if (np.fmin.reduce(v, axis=None, initial=0.0) < 0.0
            or np.fmin.reduce(u, axis=None, initial=0.0) < 0.0):
        raise ValueError("kl arguments must be nonnegative")
    return v, u, w


def kl_distance(v, u, weights=None) -> float:
    """Quadrature-weighted Kullback-Leibler distance between nonnegative arrays.

    Computes sum(w * (v*log(v/u) - v + u)) with the conventions 0*log(0) = 0
    and +inf whenever v > 0 where u = 0.  ``weights`` may be an array of the
    same shape or a scalar (default 1).
    """
    v, u, w = _check_pair(v, u, weights)
    pos = v > 0.0
    inf_at = np.equal(u, 0.0)
    inf_at &= pos
    if inf_at.any():
        return math.inf
    # one buffer, in the formula's order; log(1) = 0 where v = 0
    buf = np.ones_like(v)
    np.divide(v, u, out=buf, where=pos)
    np.log(buf, out=buf)
    buf *= v
    buf -= v
    buf += u
    buf *= w
    total = float(buf.sum())
    # tiny negative rounding residue is clipped; the functional is >= 0
    return max(total, 0.0)


def normalize_to_simplex(values, weights=None) -> np.ndarray:
    """Rescale nonnegative values so the quadrature weighted sum equals one."""
    vals = np.asarray(values, dtype=np.float64)
    if np.any(vals < 0.0):
        raise ValueError("cannot normalize values with negative entries")
    w = np.float64(1.0) if weights is None else np.asarray(weights, dtype=np.float64)
    total = float(np.sum(w * vals))
    if not total > 0.0:
        raise ValueError("cannot normalize: weighted sum is not positive")
    return vals / total


def weighted_l1(a, b, weights=None) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = np.float64(1.0) if weights is None else np.asarray(weights, dtype=np.float64)
    return float(np.sum(w * np.abs(a - b)))


def weighted_l2(a, b, weights=None) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = np.float64(1.0) if weights is None else np.asarray(weights, dtype=np.float64)
    return float(math.sqrt(np.sum(w * (a - b) ** 2)))


# ---------------------------------------------------------------------------
# serialization


def save_key_values(path, pairs) -> None:
    """Write (key, value) pairs as ``key=value`` lines: a string value as
    it is, any other value as its repr."""
    with open(path, "w") as fh:
        for key, value in pairs:
            fh.write(f"{key}={value if isinstance(value, str) else repr(value)}\n")


def save_matrix_csv(path, arr) -> None:
    """Write a 2D array as headerless CSV, one matrix row per line."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D array, got ndim={arr.ndim}")
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def save_pgm(path, arr) -> None:
    """Write a 2D array as binary 16-bit PGM with a `<name>.scale` sidecar.

    Values are mapped linearly onto 0..65535; the sidecar records the
    original min and max so the mapping can be inverted.
    """
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D array, got ndim={arr.ndim}")
    vmin = float(arr.min())
    vmax = float(arr.max())
    if vmax > vmin:
        pix = np.round((arr - vmin) / (vmax - vmin) * 65535.0)
    else:
        pix = np.zeros_like(arr)
    pix = pix.astype(">u2")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(pix.tobytes())
    scale_path = str(path)
    if scale_path.endswith(".pgm"):
        scale_path = scale_path[: -len(".pgm")]
    with open(scale_path + ".scale", "w") as fh:
        fh.write(f"min={vmin!r}\nmax={vmax!r}\n")
