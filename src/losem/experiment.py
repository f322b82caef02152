"""Phantoms, data simulation, Poisson noise and oracle-stopped runs.

Simulation avoids the inverse crime: the phantom is rendered and projected
on a grid refined by ``oversample`` relative to the reconstruction grid, so
the solver never inverts the exact discrete operator that produced its
data.  Noise is applied to the smoothed, shift-free data; the additive
shift is applied afterwards, to the noisy blocks.

Data is simulated once on the unsplit angle set (a single-block grid) and
then regrouped for any block count.  The per-sample quadrature weight only
depends on the total number of angles, and the per-block scaling is linear,
so every block split of the same simulation sees the same noise
realization.  This is what the comparison mode relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kl_core import (
    ConfigError,
    PixelGrid,
    SinogramGrid,
    kl_distance,
    normalize_to_simplex,
    weighted_l1,
)
from .operators import RadonSystem, SmoothingKernel, support_forward
from .solvers import em_step

__all__ = [
    "Disc",
    "PhantomSpec",
    "NoiseSpec",
    "render_phantom",
    "simulate_data",
    "simulate_clean_base",
    "reblock",
    "consistent_data",
    "add_poisson_noise",
    "realized_deltas",
    "oracle_stopped_osem",
]

RNG_ALGORITHM = "numpy-philox"

# the default refinement of the simulation grid and the default cap on the
# nodes of any grid a run builds (``max_sim_nodes`` in a config)
OVERSAMPLE = 4
MAX_SIM_NODES = 16_000_000


@dataclass(frozen=True)
class Disc:
    cx: float
    cy: float
    radius: float
    amplitude: float

    def __post_init__(self):
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValueError(f"disc centre must be finite, got ({self.cx}, {self.cy})")
        if not self.radius > 0.0:
            raise ValueError(f"disc radius must be positive, got {self.radius}")
        if not self.amplitude > 0.0:
            raise ValueError(f"disc amplitude must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class PhantomSpec:
    """A phantom as a superposition of constant discs."""

    discs: tuple[Disc, ...]

    def __post_init__(self):
        if not self.discs:
            raise ValueError("phantom spec needs at least one disc")
        object.__setattr__(self, "discs", tuple(self.discs))

    def validate_inside(self, domain_radius: float) -> None:
        for d in self.discs:
            if math.hypot(d.cx, d.cy) + d.radius > domain_radius + 1e-9:
                raise ValueError(
                    f"disc at ({d.cx}, {d.cy}) with radius {d.radius} leaves the "
                    f"domain of radius {domain_radius}"
                )

    def check_on(self, grid: PixelGrid) -> None:
        """Raise ValueError unless :func:`render_phantom` can render the
        phantom on ``grid``: every disc inside the domain, a finite density
        and mass, and a domain node inside a disc, checked in O(1) per disc
        at any n_t.

        A node's squared distance to a disc centre grows with its distance
        along each axis, so a disc holds a domain node only if it holds one
        within two spacings of its centre on both axes; those nodes are
        tested with the render's own arithmetic.
        """
        self.validate_inside(grid.radius)
        h, n, r2 = grid.spacing, grid.n_t, grid.radius ** 2
        if not math.isfinite(sum(d.amplitude * (2.0 * d.radius + h) ** 2
                                 for d in self.discs)):
            raise ValueError("the disc amplitudes overflow the phantom's mass")
        # a node's value sums the amplitudes of some discs in disc order, so
        # it never exceeds the sum of all of them
        if not math.isfinite(sum(d.amplitude for d in self.discs)):
            raise ValueError("the disc amplitudes overflow the phantom's density")
        for d in self.discs:
            i0, k0 = (math.floor((c + 1.0) * n / 2.0) for c in (d.cx, d.cy))
            for i in range(max(i0 - 2, 0), min(i0 + 2, n) + 1):
                x = -1.0 + 2.0 * i / n
                for k in range(max(k0 - 2, 0), min(k0 + 2, n) + 1):
                    y = -1.0 + 2.0 * k / n
                    dx, dy = x - d.cx, y - d.cy
                    if dx * dx + dy * dy <= d.radius ** 2 and x * x + y * y < r2:
                        return
        raise ValueError(f"no domain node of the n_t = {n} grid lies inside a disc")


def render_phantom(spec: PhantomSpec, grid: PixelGrid) -> np.ndarray:
    """Rasterize the disc superposition on the grid, mask it to the domain
    and normalize its mass; returns read-only node values."""
    spec.check_on(grid)
    x = grid.nodes[:, None]
    y = grid.nodes[None, :]
    vals = np.zeros(grid.shape)
    for d in spec.discs:
        inside = (x - d.cx) ** 2 + (y - d.cy) ** 2 <= d.radius ** 2
        vals += d.amplitude * inside
    out = normalize_to_simplex(np.where(grid.mask, vals, 0.0), grid.node_weights)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# clean data


def _simulation_grid(pixel_grid: PixelGrid, oversample: int,
                     max_nodes: int) -> PixelGrid:
    """``pixel_grid`` refined by ``oversample``, within ``max_nodes`` nodes."""
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    n_nodes = (pixel_grid.n_t * oversample + 1) ** 2
    if n_nodes > max_nodes:
        raise ValueError(
            f"the n_t * oversample = {pixel_grid.n_t * oversample} grid has "
            f"{n_nodes} nodes, exceeding the cap {max_nodes}; lower n_t or the "
            "oversample factor, or raise max_sim_nodes"
        )
    return PixelGrid(pixel_grid.n_t * oversample, pixel_grid.epsilon)


def simulate_clean_base(
    spec: PhantomSpec,
    pixel_grid: PixelGrid,
    n_angles: int,
    n_r: int,
    K: int,
    oversample: int = OVERSAMPLE,
    max_nodes: int = MAX_SIM_NODES,
) -> np.ndarray:
    """Smoothed circular means of a phantom on the unsplit angle set.

    The phantom is rendered on ``pixel_grid`` refined to n_t * oversample
    pixels per axis and projected from there by ``support_forward``, over
    the rows of the phantom's support.  The result is one
    (n_angles, n_r + 1) array covering all angles, of unit mass under the
    sample weight of the single-block grid.  Raises
    ConfigError when no circle of the sampling meets the phantom.
    """
    hi = _simulation_grid(pixel_grid, oversample, max_nodes)
    density = render_phantom(spec, hi)
    base_grid = SinogramGrid(n_blocks=1, n_phi=n_angles, n_r=n_r)
    vals = support_forward(hi, base_grid, SmoothingKernel(n_r, K), density)
    if not np.sum(vals) > 0.0:
        raise ConfigError(
            f"the simulated data have no mass: no circle of the n_r = {n_r} "
            "sampling meets the phantom"
        )
    return normalize_to_simplex(vals, base_grid.sample_weight)


def reblock(base: np.ndarray, grid: SinogramGrid) -> list[np.ndarray]:
    """Regroup unsplit data, shaped (n_angles, n_r + 1), onto the blocks of
    a grid of the same samples.

    Values are rescaled by the block count (the per-block forward map
    carries that factor) and renormalized blockwise under the grid's sample
    weight.  Raises ConfigError when a block has no mass.
    """
    base = np.asarray(base, dtype=np.float64)
    if base.shape != (grid.n_angles, grid.n_r + 1):
        raise ValueError(
            f"base data of shape {base.shape} do not match the "
            f"{grid.n_angles} angles and n_r = {grid.n_r} of the target grid"
        )
    out = []
    for j in range(grid.n_blocks):
        rows = base[j * grid.n_phi : (j + 1) * grid.n_phi]
        if not np.sum(rows) > 0.0:
            raise ConfigError(
                f"data block {j} of {grid.n_blocks} has no mass (its circles miss "
                "the phantom or drew no counts); use fewer blocks"
            )
        out.append(normalize_to_simplex(rows * grid.n_blocks, grid.sample_weight))
    return out


def simulate_data(
    spec: PhantomSpec,
    system: RadonSystem,
    oversample: int = OVERSAMPLE,
    max_nodes: int = MAX_SIM_NODES,
) -> list[np.ndarray]:
    """Clean shift-free data blocks for the system, simulated oversampled
    (see :func:`simulate_clean_base`)."""
    sg = system.sino_grid
    base = simulate_clean_base(
        spec, system.pixel_grid, sg.n_angles, sg.n_r, system.kernel.K,
        oversample, max_nodes,
    )
    return reblock(base, sg)


def consistent_data(x_star: np.ndarray, system: RadonSystem) -> list[np.ndarray]:
    """Shifted data with the rendered phantom an exact discrete solution.

    Applies the system's own shifted forward map to ``x_star`` on the
    reconstruction grid, without renormalization or noise.  Use this for
    exact-data runs where the monotone decrease toward the ground truth is
    asserted step by step.
    """
    return [system.forward(x_star, j) for j in range(system.n_blocks)]


# ---------------------------------------------------------------------------
# Poisson noise


@dataclass(frozen=True)
class NoiseSpec:
    """Poisson counts noise targeting a relative L1 data error.

    ``level`` is the target aggregate relative error (quadrature L1 distance
    between clean and noisy data over the clean mass).  ``counts_scale``
    fixes the expected counts per unit value; when None it is calibrated by
    bisection so the realized aggregate error lands within ten percent of
    the target.  ``seed`` is a nonnegative integer.
    """

    level: float = 0.05
    counts_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"noise level must be in (0, 1), got {self.level}")
        if self.counts_scale is not None and not self.counts_scale > 0.0:
            raise ValueError("counts_scale must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _block_rng(seed: int, j: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
    )


def _draw(blocks: list[np.ndarray], weight: float, c: float, seed: int):
    """One noise realization at counts scale c of blocks with sample weight
    ``weight``; returns the noisy blocks and the aggregate error."""
    if not math.isfinite(c):
        raise FloatingPointError(f"counts scale {c} is not a finite number")
    noisy = []
    agg_err = 0.0
    agg_mass = 0.0
    for j, b in enumerate(blocks):
        rng = _block_rng(seed, j)
        try:
            counts = rng.poisson(c * b)
        except ValueError as e:  # expected counts beyond what numpy can draw
            raise FloatingPointError(f"counts scale {c}: {e}") from e
        vals = counts.astype(np.float64) / c
        total = float(np.sum(vals) * weight)
        if total <= 0.0:
            return None, 2.0  # complete loss of signal at this scale
        vals /= total
        noisy.append(vals)
        agg_err += weighted_l1(b, vals, weight)
        agg_mass += float(np.sum(b) * weight)
    return noisy, agg_err / agg_mass


def add_poisson_noise(blocks: list[np.ndarray], sample_weight: float,
                      spec: NoiseSpec):
    """Poisson noise on clean blocks of the given sample weight,
    renormalized blockwise.

    Returns ``(noisy_blocks, info)``, where ``info`` records the counts
    scale, realized aggregate error and the generator algorithm; the
    per-block distances are :func:`realized_deltas`.  Each block uses its
    own stream spawned from the seed, so blockwise parallel simulation would
    not change the draws.  A counts scale that loses the whole signal, or a
    calibration that cannot reach the target, raises FloatingPointError.
    """
    if not blocks:
        raise ValueError("no data blocks to perturb")
    if spec.counts_scale is not None:
        noisy, agg = _draw(blocks, sample_weight, spec.counts_scale, spec.seed)
        if noisy is None:
            raise FloatingPointError(
                f"counts scale {spec.counts_scale} lost the whole signal"
            )
        c = spec.counts_scale
    else:
        c, noisy, agg = _bisect_counts(blocks, sample_weight, spec)
    info = {
        "counts_scale": c,
        "aggregate_error": agg,
        "target": spec.level,
        "seed": spec.seed,
        "algorithm": RNG_ALGORITHM,
    }
    return noisy, info


def _counts_scale_guess(blocks: list[np.ndarray], weight: float,
                        level: float) -> float:
    # E|Poisson(c v)/c - v| is about sqrt(2 v / (pi c)) per sample
    s = sum(float(np.sum(np.sqrt(b)) * weight) for b in blocks)
    mass = sum(float(np.sum(b) * weight) for b in blocks)
    try:
        return max((2.0 / math.pi) * (s / (level * mass)) ** 2, 1.0)
    except OverflowError:
        return math.inf


def _bisect_counts(blocks: list[np.ndarray], weight: float, spec: NoiseSpec):
    """Calibrate the counts scale so the realized error matches the target."""
    target = spec.level
    tol = 0.1 * target

    def realized(c):
        return _draw(blocks, weight, c, spec.seed)

    c = _counts_scale_guess(blocks, weight, target)
    noisy, agg = realized(c)
    if abs(agg - target) <= tol:
        return c, noisy, agg
    # bracket: realized error decreases as the counts scale grows.  Each
    # direction ends well within its 60 quadruplings: upward the draw
    # raises FloatingPointError once numpy rejects the expected counts
    # (from about 1e19), downward the draws come up empty and read error
    # 2.0.  Unbracketed, the bisection below still returns only a scale
    # within the window, or raises.
    lo, hi = c, c
    agg_lo = agg_hi = agg
    for _ in range(60):
        if agg_lo <= target:
            lo /= 4.0
            _, agg_lo = realized(lo)
        elif agg_hi >= target:
            hi *= 4.0
            _, agg_hi = realized(hi)
        else:
            break
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        noisy, agg = realized(mid)
        if abs(agg - target) <= tol:
            return mid, noisy, agg
        if agg > target:
            lo = mid
        else:
            hi = mid
    raise FloatingPointError(
        f"noise target {target} not attained within the bisection budget; "
        f"last counts scale {mid} realized {agg}"
    )


def realized_deltas(clean: list[np.ndarray], noisy: list[np.ndarray],
                    sample_weight: float) -> np.ndarray:
    """Per-block L1 quadrature distances between clean and noisy data blocks
    of the given sample weight: the noise bounds delta_j of the skip rule."""
    return np.array([weighted_l1(b, nb, sample_weight) for b, nb in zip(clean, noisy)])


# ---------------------------------------------------------------------------
# oracle stopping


@dataclass(frozen=True)
class OracleResult:
    values: np.ndarray
    best_cycle: int
    errors: np.ndarray  # ground-truth error after 0..max_cycles cycles


def oracle_stopped_osem(x0, system, data, x_star, max_cycles: int) -> OracleResult:
    """Run the cyclic iteration and keep the iterate of the best cycle.

    "Best" minimizes the ground-truth KL error over cycle ends 1..max_cycles.
    This stopping rule needs the ground truth ``x_star`` (node values, like
    ``x0``) and serves as the reference against which automatic stopping is
    judged.
    """
    if len(data) != system.n_blocks:
        raise ValueError(f"expected {system.n_blocks} data blocks, got {len(data)}")
    x = x0
    errors = [kl_distance(x_star, x, system.node_weights)]
    best_err = math.inf
    best_cycle = 0
    best = x.copy()
    for cycle in range(1, max_cycles + 1):
        for j in range(system.n_blocks):
            x = em_step(x, system, j, data[j])
        err = kl_distance(x_star, x, system.node_weights)
        errors.append(err)
        if err < best_err:
            best_err = err
            best_cycle = cycle
            best = x.copy()
    return OracleResult(values=best, best_cycle=best_cycle, errors=np.asarray(errors))
