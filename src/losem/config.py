"""Experiment configuration: flat key=value files and their validation.

A config file is plain text, one ``key = value`` per line, with ``#``
starting a comment.  The phantom comes either from a ``phantom = <path>``
reference (resolved relative to the config file) or from inline ``disc =``
lines, one per disc, never both.

``n_angle`` is the total angle count, which must split evenly over the
blocks.  The support margin and the smoothing half-width are tied by
margin = 2*K/n_r; give either one and the other is derived, or give both
and the margin must cover the kernel.  A loping run's threshold constant is
the config's ``gamma`` when it gives one, and otherwise the worst-case
constant of the kernel and data bounds; an optional ``gamma_mode`` line
may restate that choice (``explicit`` with a gamma, ``bounds`` without
one) and is rejected where it does not.  ``max_cycles`` is the cycle
count of every mode: em and osem run that many cycles, loping runs stop
at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .experiment import (MAX_SIM_NODES, OVERSAMPLE, Disc, NoiseSpec, PhantomSpec,
                         _simulation_grid)
from .kl_core import AssumptionError, ConfigError, PixelGrid, SinogramGrid
from .operators import (RadonSystem, SmoothingKernel, _check_margin,
                        _circle_point_bound, _row_point_bound)
from .solvers import SolverConfig

__all__ = [
    "ConfigError",
    "AssumptionError",
    "RunConfig",
    "load_config",
    "parse_config_text",
    "parse_phantom_file",
]

MODES = ("em", "osem", "loping-osem", "compare")


@dataclass
class RunConfig:
    mode: str
    n_t: int
    n_r: int
    n_angle: int
    epsilon: float
    K: int
    n_blocks: int = 1
    lam: float = 0.01
    oversample: int = OVERSAMPLE
    tau: float = 1.5
    gamma: float | None = None
    max_cycles: int = 200
    noise_level: float = 0.05
    counts_scale: float | None = None
    seed: int = 0
    out: str | None = None
    compare_subsets: tuple[int, ...] = ()
    max_sim_nodes: int = MAX_SIM_NODES
    phantom: PhantomSpec | None = None

    # -- derived builders ---------------------------------------------------

    def pixel_grid(self) -> PixelGrid:
        return PixelGrid(self.n_t, self.epsilon)

    def sino_grid(self, n_blocks: int | None = None) -> SinogramGrid:
        N = self.n_blocks if n_blocks is None else n_blocks
        if self.n_angle % N:
            raise ValueError(f"block count {N} does not divide n_angle = "
                             f"{self.n_angle}: the angles are not divisible by {N}")
        return SinogramGrid(n_blocks=N, n_phi=self.n_angle // N, n_r=self.n_r)

    def build_system(self, n_blocks: int | None = None) -> RadonSystem:
        try:
            return RadonSystem(
                self.pixel_grid(), self.sino_grid(n_blocks), self.lam, self.K
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def noise_spec(self) -> NoiseSpec:
        """Noise of a run on simulated data (``noise_level`` > 0)."""
        return NoiseSpec(self.noise_level, self.counts_scale, self.seed)

    def solver_config(self, gamma: float | None, delta=None) -> SolverConfig:
        """Loping parameters with a resolved gamma."""
        return SolverConfig(
            tau=self.tau, gamma=gamma, delta=delta,
            max_cycles=self.max_cycles,
        )


# ---------------------------------------------------------------------------
# parsing


def _finite_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text!r} is not a finite number")
    return v


def _subsets(text: str) -> tuple[int, ...]:
    subsets = tuple(int(s) for s in text.replace(",", " ").split())
    if not subsets or any(s < 1 for s in subsets):
        raise ValueError("compare_subsets needs positive block counts")
    if len(set(subsets)) < len(subsets):
        raise ValueError("compare_subsets repeats a block count")
    return subsets


# converter of each key's value; 'disc' lines are parsed apart, since the
# key repeats
_CONVERTERS = {
    "mode": str, "gamma_mode": str, "out": str, "phantom": str,
    "n_t": int, "n_r": int, "n_angle": int, "n_blocks": int,
    "K": int, "oversample": int, "max_cycles": int, "seed": int,
    "max_sim_nodes": int,
    "epsilon": _finite_float, "lambda": _finite_float, "tau": _finite_float,
    "gamma": _finite_float, "noise_level": _finite_float,
    "counts_scale": _finite_float,
    "compare_subsets": _subsets,
}


def _parse_disc(text: str, where: str) -> Disc:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ConfigError(
            f"{where}: disc needs 'cx cy radius amplitude', got {text!r}"
        )
    try:
        cx, cy, r, a = (_finite_float(p) for p in parts)
        return Disc(cx, cy, r, a)
    except ValueError as e:
        raise ConfigError(f"{where}: bad disc: {e}") from e


def parse_phantom_file(path) -> PhantomSpec:
    """Phantom file: one 'cx cy radius amplitude' line per disc."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read phantom file {path}: {e}") from e
    discs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        discs.append(_parse_disc(line, f"{path}:{lineno}"))
    if not discs:
        raise ConfigError(f"phantom file {path} defines no discs")
    return PhantomSpec(tuple(discs))


def parse_config_text(text: str, path: str = "<config>",
                      base_dir: Path | None = None,
                      seed: int | None = None) -> RunConfig:
    """Parse and validate a config; ``seed``, when given, replaces the
    file's seed before the validation."""
    vals: dict = {}
    where: dict[str, str] = {}
    discs: list[Disc] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        here = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{here}: expected 'key = value', got {line!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        if k == "disc":
            discs.append(_parse_disc(v, here))
            continue
        if k not in _CONVERTERS:
            raise ConfigError(f"{here}: unknown key '{k}'")
        if k in vals:
            raise ConfigError(f"{here}: duplicate key '{k}'")
        try:
            vals[k] = _CONVERTERS[k](v)
        except ValueError as e:
            raise ConfigError(f"{here}: bad value for '{k}': {e}") from e
        where[k] = here

    def require(k):
        if k not in vals:
            raise ConfigError(f"{path}: missing required key '{k}'")
        return vals.pop(k)

    mode = require("mode")
    if mode not in MODES:
        raise ConfigError(f"{where['mode']}: mode must be one of {', '.join(MODES)}")
    n_t = require("n_t")
    n_r = require("n_r")
    if n_r < 2:
        # checked here because the margin is derived from 2K/n_r below
        raise ConfigError(f"{path}: n_r must be >= 2, got {n_r}")

    n_angle = require("n_angle")
    n_blocks = vals.pop("n_blocks", 1)
    if n_blocks < 1:
        raise ConfigError(f"{where['n_blocks']}: n_blocks must be >= 1")

    epsilon = vals.pop("epsilon", None)
    K = vals.pop("K", None)
    if K is None and epsilon is None:
        K = 1
    if K is None:
        # the margin must correspond to a whole smoothing half-width
        k_real = epsilon * n_r / 2.0
        K = round(k_real) if math.isfinite(k_real) else 0
        if K < 1 or abs(k_real - K) > 1e-9:
            raise ConfigError(
                f"{where['epsilon']}: epsilon = {epsilon} does not equal 2K/n_r "
                f"for any integer half-width K >= 1 at n_r = {n_r}"
            )
    if epsilon is None:
        epsilon = 2.0 * K / n_r

    phantom_ref = vals.pop("phantom", None)
    if phantom_ref is not None and discs:
        raise ConfigError(
            f"{path}: give either a phantom file or inline 'disc =' lines, not both"
        )
    if phantom_ref is not None:
        ref = Path(phantom_ref)
        if not ref.is_absolute() and base_dir is not None:
            ref = base_dir / ref
        phantom = parse_phantom_file(ref)
    elif discs:
        phantom = PhantomSpec(tuple(discs))
    else:
        raise ConfigError(
            f"{path}: no phantom given (use 'phantom = <file>' or 'disc =' lines)"
        )

    # a given gamma is always the threshold constant, so a gamma_mode line
    # loads only where it restates whether one is given
    gamma_mode = vals.pop("gamma_mode", None)
    if gamma_mode not in (None, "explicit" if "gamma" in vals else "bounds"):
        raise ConfigError(
            f"{where['gamma_mode']}: gamma_mode = {gamma_mode} does not match the "
            "config: a given 'gamma' is the threshold constant, else the kernel "
            "and data bounds give it; delete the gamma_mode line"
        )
    if "lambda" in vals:
        vals["lam"] = vals.pop("lambda")
    if seed is not None:
        vals["seed"] = seed
    cfg = RunConfig(
        mode=mode, n_t=n_t, n_r=n_r, n_angle=n_angle, n_blocks=n_blocks,
        epsilon=epsilon, K=K, phantom=phantom, **vals,
    )
    _validate(cfg, path)
    return cfg


def _validate(cfg: RunConfig, path: str) -> None:
    """Reject what no command can use, by building the objects that read
    the values; each range rule lives in its object."""
    def bad(msg):
        raise ConfigError(f"{path}: {msg}")

    if cfg.lam < 0.0:
        bad(f"lambda must be nonnegative, got {cfg.lam}")
    if cfg.mode == "em" and cfg.n_blocks != 1:
        bad("mode em is the single-block case; set n_blocks = 1 "
            "(use mode osem for several blocks)")
    if cfg.mode == "compare":
        if not cfg.compare_subsets:
            bad("compare mode needs 'compare_subsets' (e.g. 'compare_subsets = 10 20')")
        if cfg.noise_level == 0.0:
            bad("compare mode needs noise_level > 0")
    try:
        cfg.phantom.check_on(cfg.pixel_grid())
        subsets = cfg.compare_subsets if cfg.mode == "compare" else ()
        for N in (cfg.n_blocks, *subsets):
            cfg.sino_grid(N)
        _check_margin(cfg.pixel_grid(), SmoothingKernel(cfg.n_r, cfg.K))
        # max_sim_nodes caps every grid: the reconstruction grid, the
        # oversampled one of simulated data, its circle points and the sinogram
        oversample = 1
        if cfg.noise_level != 0.0:
            cfg.noise_spec()
            oversample = cfg.oversample
        n_t = _simulation_grid(cfg.pixel_grid(), oversample, cfg.max_sim_nodes).n_t
        samples = cfg.n_angle * (cfg.n_r + 1)
        points = _circle_point_bound(n_t, cfg.n_r)
        if max(samples, points) > cfg.max_sim_nodes:
            bad(f"the sinogram's {samples} samples and the up to {points} circle "
                f"points of the n_t = {n_t} grid must each stay within max_sim_nodes "
                f"= {cfg.max_sim_nodes}; lower n_angle, n_r or n_t, or raise the cap")
        # and the entries the cached forward rows of each system run builds hold
        rows = max(_row_point_bound(cfg.pixel_grid(), cfg.sino_grid(N))
                   for N in subsets or (cfg.n_blocks,))
        if rows > cfg.max_sim_nodes:
            bad(f"the cached forward rows of a system hold {rows} entries, padding "
                f"included, more than max_sim_nodes = {cfg.max_sim_nodes}; lower "
                "n_angle, n_r or n_t, or raise the cap")
        cfg.solver_config(cfg.gamma)
    except ValueError as e:
        bad(str(e))


def load_config(path, seed: int | None = None) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, str(path), base_dir=path.parent, seed=seed)
