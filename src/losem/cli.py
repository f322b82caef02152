"""Command line front end.

Subcommands:

  losem run CONFIG      simulate data per the config and run the solver
  losem verify CONFIG   check the method's preconditions on this setup
  losem phantom CONFIG  render the phantom and write its images

Exit codes: 0 success, 2 bad configuration, 3 violated mathematical
precondition, 4 numerical degeneration (a FAILED marker file is left in
the output directory in that case).  Any other exception is a bug and
ends as a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import AssumptionError, ConfigError, RunConfig, load_config
from .experiment import (
    add_poisson_noise,
    consistent_data,
    oracle_stopped_osem,
    realized_deltas,
    reblock,
    render_phantom,
    simulate_clean_base,
    simulate_data,
)
from .kl_core import save_matrix_csv, save_pgm, save_rows, uniform_density
from .operators import effective_bounds, kernel_floor
from .solvers import SolverConfig, block_residuals, loping_osem_run, osem_run

__all__ = ["main"]


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _outdir(args, cfg: RunConfig) -> Path:
    path = Path(args.out or cfg.out or "losem_out")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e
    return path


# ---------------------------------------------------------------------------
# set-up: the systems a command runs on, each with its data


class SolverData(NamedTuple):
    """Shifted data a solver sees, with the noise bounds of its blocks.

    ``raw_deltas`` bound the unshifted data and ``deltas`` the shifted
    system's; ``sinogram`` is the noisy realization ``run`` writes: the
    system's blocks stacked, or the unsplit data every compare block count
    shares.  For exact data the deltas are zero and the noise fields None.
    """

    values: list
    deltas: np.ndarray
    raw_deltas: np.ndarray | None = None
    noisy: list | None = None
    info: dict | None = None
    sinogram: np.ndarray | None = None


def _add_noise(cfg: RunConfig, clean, sample_weight: float, quiet: bool):
    """Poisson noise on clean blocks of the given sample weight at the
    configured level, scale and seed."""
    noisy, info = add_poisson_noise(clean, sample_weight, cfg.noise_spec())
    _say(
        quiet,
        f"noise: counts_scale={info['counts_scale']:.6g} realized "
        f"{info['aggregate_error']:.4f} (target {info['target']})",
    )
    return noisy, info


def _shifted(cfg: RunConfig, system, clean, noisy, info, sinogram) -> SolverData:
    """Shift noisy blocks for the system, with their L1 noise bounds."""
    raw = realized_deltas(clean, noisy, system.sino_grid.sample_weight)
    return SolverData(system.shift_data(noisy), system.shifted_deltas(raw), raw,
                      noisy, info, sinogram)


def _solver_data(cfg: RunConfig, system, x_star, quiet: bool) -> SolverData:
    """Data of a single run: exact, or simulated with noise drawn per block."""
    if cfg.noise_level == 0.0:
        # exact data: the rendered phantom solves the discrete system
        _say(quiet, "data: exact (consistent with the discrete system)")
        return SolverData(consistent_data(x_star, system), np.zeros(system.n_blocks))
    _say(quiet, f"simulating data (oversample {cfg.oversample}) ...")
    clean = simulate_data(cfg.phantom, system, cfg.oversample, cfg.max_sim_nodes)
    noisy, info = _add_noise(cfg, clean, system.sino_grid.sample_weight, quiet)
    return _shifted(cfg, system, clean, noisy, info, np.vstack(noisy))


def _label(cfg: RunConfig, N: int) -> str:
    """Suffix of a block count's keys in ``verify``: ``_N<count>`` in compare mode."""
    return f"_N{N}" if cfg.mode == "compare" else ""


def _systems(cfg: RunConfig, quiet: bool, verify: bool = False):
    """The rendered phantom with each system ``run`` solves on and its data.

    Each system is built when its turn comes, so one system's circle
    geometry and cached rows are alive at a time.  The kernel floor of
    every block count is checked first, so an unusable lambda is rejected
    before anything is simulated: a configuration error to ``run``, and a
    violated assumption to ``verify``, which prints each floor.  Compare
    block counts share one noise realization, drawn on the unsplit angle
    set, so their data differ only in the grouping.
    """
    compare = cfg.mode == "compare"
    counts = cfg.compare_subsets if compare else (cfg.n_blocks,)
    for N in counts:
        m = kernel_floor(cfg.lam, cfg.sino_grid(N).block_measure)
        if verify:
            print(f"kernel_floor_m{_label(cfg, N)}={m!r}")
        if not m > 0.0:
            raise (AssumptionError if verify else ConfigError)(
                f"the effective kernel floor is zero at lambda = {cfg.lam!r}: the "
                "shift parameter lambda must be positive, with 1 + lambda*b finite"
            )
    grid = cfg.pixel_grid()
    x_star = render_phantom(cfg.phantom, grid)
    if not compare:
        system = cfg.build_system()
        yield x_star, system, _solver_data(cfg, system, x_star, quiet)
        return
    _say(quiet, f"simulating shared data (oversample {cfg.oversample}) ...")
    clean_base = simulate_clean_base(
        cfg.phantom, grid, cfg.n_angle, cfg.n_r, cfg.K, cfg.oversample,
        cfg.max_sim_nodes,
    )
    # the unsplit data's sample weight, that of a single-block grid
    (noisy_base,), info = _add_noise(cfg, [clean_base],
                                     cfg.sino_grid(1).sample_weight, quiet)
    for N in counts:
        system = cfg.build_system(N)
        sg = system.sino_grid
        yield x_star, system, _shifted(
            cfg, system, reblock(clean_base, sg), reblock(noisy_base, sg), info,
            noisy_base,
        )


def _solver_config(cfg: RunConfig, system, data: SolverData) -> SolverConfig:
    """The loping config of one system, with the threshold constant of the
    configured gamma mode."""
    if cfg.gamma_mode == "explicit":
        return cfg.solver_config(cfg.gamma, data.deltas)
    gamma = effective_bounds(system, data.values).gamma()
    if not 0.0 < gamma < math.inf:
        raise ConfigError(
            f"gamma_mode = bounds gives gamma = {gamma!r} at lambda = {cfg.lam!r}, "
            "where a positive finite gamma is needed; use gamma_mode = explicit"
        )
    return cfg.solver_config(gamma, data.deltas)


def _noise_pairs(data: SolverData) -> list:
    """The noise record ``noise_meta.txt`` holds, as (key, value) pairs."""
    if data.info is None:
        return [("noise", "none")]
    pairs = [(key, data.info[key]) for key in
             ("algorithm", "seed", "counts_scale", "target", "aggregate_error")]
    for j, (dr, du) in enumerate(zip(data.raw_deltas, data.deltas)):
        pairs += [(f"delta_raw_{j}", float(dr)), (f"delta_shifted_{j}", float(du))]
    return pairs


def _write_summary(path: Path, cfg: RunConfig, pairs: list) -> None:
    """``summary.txt``: the configured problem, then ``pairs``."""
    save_rows(path, [
        ("mode", cfg.mode), ("n_t", cfg.n_t), ("n_r", cfg.n_r),
        ("n_angle", cfg.n_angle), ("n_blocks", cfg.n_blocks), ("epsilon", cfg.epsilon),
        ("K", cfg.K), ("lambda", cfg.lam), ("noise_level", cfg.noise_level), *pairs,
    ], "=")


# ---------------------------------------------------------------------------
# run


def _solve(cfg: RunConfig, system, data: SolverData, x_star, quiet: bool):
    """Run the configured solver on one system from the uniform start:
    ``osem_run`` for a fixed cycle count in em and osem mode, otherwise
    ``loping_osem_run``.  Returns the iterate, the trace, the stop report
    (None for a fixed cycle count) and the wall seconds of the call."""
    x0 = uniform_density(system.pixel_grid)
    if cfg.mode in ("em", "osem"):
        _say(quiet, f"running {cfg.mode} for {cfg.cycles} cycles ...")
        t0 = time.perf_counter()
        vals, trace = osem_run(x0, system, data.values, cfg.cycles, x_star=x_star)
        return vals, trace, None, time.perf_counter() - t0
    solver_cfg = _solver_config(cfg, system, data)
    _say(quiet, f"N={system.n_blocks}: loping run ..." if cfg.mode == "compare" else
         f"running loping-osem (tau={solver_cfg.tau:.4g}, "
         f"gamma={solver_cfg.gamma:.4g}) ...")
    t0 = time.perf_counter()
    vals, trace, report = loping_osem_run(
        x0, system, data.values, solver_cfg, x_star=x_star
    )
    return vals, trace, report, time.perf_counter() - t0


def cmd_run(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out = _outdir(args, cfg)
    try:
        if cfg.mode == "compare":
            return _run_compare(cfg, out, args.quiet)
        return _run_single(cfg, out, args.quiet)
    except FloatingPointError as e:
        (out / "FAILED").write_text(f"{e}\n")
        raise


def _run_single(cfg: RunConfig, out: Path, quiet: bool) -> int:
    [(x_star, system, data)] = _systems(cfg, quiet)
    save_pgm(out / "phantom.pgm", x_star)
    if data.sinogram is not None:
        save_pgm(out / "sinogram.pgm", data.sinogram)
    save_matrix_csv(out / "data.csv", np.vstack(data.values))
    save_rows(out / "noise_meta.txt", _noise_pairs(data), "=")

    values, trace, report, wall = _solve(cfg, system, data, x_star, quiet)
    summary = []
    if report is not None:
        save_rows(out / "stop_report.txt", report.pairs(), "=")
        summary.append(("k_star", report.k_star_text))
    trace.write_csv(out / "trace.csv")
    save_pgm(out / "reconstruction.pgm", values)
    save_matrix_csv(out / "reconstruction.csv", values)
    _write_summary(out / "summary.txt", cfg, summary + [
        ("cycles_run", trace.n_cycles), ("final_kl_error", trace.final_error),
        ("wall_seconds", f"{wall:.3f}"),
    ])
    _say(
        quiet,
        f"done: cycles={trace.n_cycles} final_kl_error={trace.final_error:.6g} "
        f"({wall:.3f}s) -> {out}",
    )
    return 0


def _run_compare(cfg: RunConfig, out: Path, quiet: bool) -> int:
    """Loping runs against oracle-stopped runs over several block counts,
    on one shared noise realization (see :func:`_systems`)."""
    rows = []
    for x_star, system, data in _systems(cfg, quiet):
        if not rows:  # the inputs every block count shares, written once
            save_pgm(out / "phantom.pgm", x_star)
            save_pgm(out / "sinogram.pgm", data.sinogram)
        N = system.n_blocks
        values, trace, report, wall = _solve(cfg, system, data, x_star, quiet)
        _say(quiet, f"N={N}: oracle run ({cfg.max_cycles} cycles) ...")
        x0 = uniform_density(system.pixel_grid)
        t0 = time.perf_counter()
        oracle = oracle_stopped_osem(x0, system, data.values, x_star, cfg.max_cycles)
        oracle_wall = time.perf_counter() - t0
        trace.write_csv(out / f"trace_loping_N{N}.csv")
        save_rows(out / f"stop_report_N{N}.txt", report.pairs(), "=")
        save_pgm(out / f"reconstruction_loping_N{N}.pgm", values)
        save_pgm(out / f"reconstruction_oracle_N{N}.pgm", oracle.values)
        err_oracle = float(oracle.errors[oracle.best_cycle])
        rows.append(("loping-osem", N, trace.n_cycles, f"{wall:.3f}",
                     trace.final_error))
        rows.append(("oracle-osem", N, oracle.best_cycle, f"{oracle_wall:.3f}",
                     err_oracle))
        _say(
            quiet,
            f"N={N}: loping stopped after {trace.n_cycles} cycles "
            f"(error {trace.final_error:.6g}), oracle best at {oracle.best_cycle} "
            f"(error {err_oracle:.6g})",
        )

    save_rows(out / "table.csv",
              [("method", "N", "cycles", "wall_seconds", "final_kl_error"), *rows])
    _write_summary(out / "summary.txt", cfg, [
        ("subsets", " ".join(str(s) for s in cfg.compare_subsets)),
        ("counts_scale", data.info["counts_scale"]),
    ])
    _say(quiet, f"done -> {out / 'table.csv'}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    for _, system, data in _systems(cfg, args.quiet, verify=True):
        _verify_system(cfg, system, data)
    print("verify: ok")
    return 0


def _verify_system(cfg: RunConfig, system, data: SolverData) -> None:
    """Print the geometry, kernel, data and threshold checks of one system
    and its data; every key ends in the system's :func:`_label`."""
    label = _label(cfg, system.n_blocks)
    # backprojection of flat data must be one on the domain, zero outside
    mask = system.pixel_grid.mask
    ones = np.ones(system.sino_grid.block_shape)
    dev = max(float(np.abs(op.backproject(ones) - mask).max()) for op in system.ops)
    print(f"adjoint_of_ones_max_dev{label}={dev!r}")
    if dev > 1e-12:
        raise AssumptionError(
            f"backprojection of flat data deviates from flat by {dev}"
        )

    if data.noisy is not None:
        w = system.sino_grid.sample_weight
        mass_dev = max(abs(float(np.sum(b) * w) - 1.0) for b in data.noisy)
        print(f"block_mass_max_dev{label}={mass_dev!r}")
    bounds = effective_bounds(system, data.values)
    print(f"kernel_sup_M{label}={bounds.M!r}")
    print(f"data_floor_m1{label}={bounds.m1!r}")
    print(f"data_sup_M1{label}={bounds.M1!r}")
    print(f"gamma_bounds{label}={bounds.gamma()!r}")
    # the kernel sup above built every block's rows
    sizes = [op.row_size() for op in system.ops]
    print(f"forward_row_points{label}={sum(points for points, _ in sizes)}")
    print(f"forward_row_bytes{label}={sum(nbytes for _, nbytes in sizes)}")
    # the check of ones above built every block's plan; the blocks share
    # the grid's domain index
    plan = sum(op.plan_bytes() for op in system.ops)
    print(f"adjoint_plan_bytes{label}={plan + system.pixel_grid.domain_nodes.nbytes}")
    # interpolation error keeps the defect nonzero; the bounds above make
    # both sides positive
    x0 = uniform_density(system.pixel_grid)
    print(f"pairing_defect{label}={_pairing_defect(system, x0, data.values)!r}")

    solver_cfg = _solver_config(cfg, system, data)
    tau = solver_cfg.tau
    print(f"tau{label}={tau!r}")
    print(f"delta_min{label}={float(data.deltas.min())!r}")
    print(f"delta_max{label}={float(data.deltas.max())!r}")
    if np.all(data.deltas == 0.0):
        print("warning: exact data; loping performs every step and only "
              "max_cycles ends the run")
        return
    residuals, thresholds = block_residuals(x0, system, data.values, solver_cfg)
    print(f"threshold_max{label}={float(thresholds.max())!r}")
    print(f"initial_residual_min{label}={float(residuals.min())!r}")
    if np.all(thresholds >= residuals):
        print(f"warning{label}: every threshold exceeds its initial residual; "
              "the loping run would stop immediately")


def _pairing_defect(system, x, data) -> float:
    """Largest relative gap |<A_j x, y_j>_w - <x, A_j* y_j>_w| / <A_j x, y_j>_w
    over the blocks j of the shifted system, with y_j = ``data[j]``."""
    defect = 0.0
    for j, y in enumerate(data):
        lhs = float(np.sum(system.forward(x, j) * y) * system.block_weight)
        rhs = float(np.sum(x * system.adjoint(y, j) * system.node_weights))
        defect = max(defect, abs(lhs - rhs) / lhs)
    return defect


# ---------------------------------------------------------------------------
# phantom


def cmd_phantom(args) -> int:
    cfg = load_config(args.config)
    out = _outdir(args, cfg)
    grid = cfg.pixel_grid()
    x = render_phantom(cfg.phantom, grid)
    save_pgm(out / "phantom.pgm", x)
    save_matrix_csv(out / "phantom.csv", x)
    _say(
        args.quiet,
        f"phantom: {len(cfg.phantom.discs)} discs on {cfg.n_t + 1}x{cfg.n_t + 1} "
        f"nodes, mass={float(np.sum(grid.node_weights * x))!r} -> {out}",
    )
    return 0


# ---------------------------------------------------------------------------
# entry


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="losem",
        description="EM-type iteration with block skipping for circular-mean data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("run", cmd_run, "simulate data and run the configured solver"),
        ("verify", cmd_verify, "check the method's preconditions on this setup"),
        ("phantom", cmd_phantom, "render the configured phantom"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(func=fn)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssumptionError as e:
        print(f"assumption violated: {e}", file=sys.stderr)
        return 3
    except FloatingPointError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
