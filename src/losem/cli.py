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
import datetime
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
from .kl_core import (
    DensityGrid,
    save_matrix_csv,
    save_pgm,
    uniform_density,
)
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
# data assembly, on a system the command has built


class SolverData(NamedTuple):
    """Shifted data a solver sees, with the noise bounds of its blocks.

    ``raw_deltas`` bound the unshifted data and ``deltas`` the shifted
    system's; for exact data the deltas are zero and the noise fields None.
    """

    values: list
    deltas: np.ndarray
    raw_deltas: np.ndarray | None = None
    noisy: list | None = None
    info: dict | None = None


def _add_noise(cfg: RunConfig, clean, quiet: bool):
    """Poisson noise on clean blocks at the configured level, scale and seed."""
    noisy, info = add_poisson_noise(clean, cfg.noise_spec())
    _say(
        quiet,
        f"noise: counts_scale={info['counts_scale']:.6g} realized "
        f"{info['aggregate_error']:.4f} (target {info['target']})",
    )
    return noisy, info


def _shifted(cfg: RunConfig, system, clean, noisy, info) -> SolverData:
    """Shift noisy blocks for the system; the noise bounds are measured in
    the norm of the configured gamma mode."""
    raw = realized_deltas(clean, noisy, ord=2 if cfg.gamma_mode == "l2" else 1)
    return SolverData(
        system.shift_data([b.values for b in noisy]),
        system.shifted_deltas(raw), raw, noisy, info,
    )


def _solver_data(cfg: RunConfig, system, x_star, quiet: bool) -> SolverData:
    """Data of a single run: exact, or simulated with noise drawn per block."""
    if cfg.noise_level == 0.0:
        # exact data: the rendered phantom solves the discrete system
        _say(quiet, "data: exact (consistent with the discrete system)")
        return SolverData(consistent_data(x_star, system), np.zeros(system.n_blocks))
    _say(quiet, f"simulating data (oversample {cfg.oversample}) ...")
    clean = simulate_data(cfg.phantom, system, cfg.oversample, cfg.max_sim_nodes)
    return _shifted(cfg, system, clean, *_add_noise(cfg, clean, quiet))


def _shared_data(cfg: RunConfig, pixel_grid, quiet: bool):
    """Clean and noisy single-block data on the unsplit angle set, with the
    noise info: the one realization every compare block count shares."""
    _say(quiet, f"simulating shared data (oversample {cfg.oversample}) ...")
    clean_base = simulate_clean_base(
        cfg.phantom, pixel_grid, cfg.n_angle, cfg.n_r, cfg.K, cfg.oversample,
        cfg.max_sim_nodes,
    )
    (noisy_base,), info = _add_noise(cfg, [clean_base], quiet)
    return clean_base, noisy_base, info


def _compare_systems(cfg: RunConfig, systems: list, clean_base, noisy_base, info):
    """Each system of ``systems`` with its grouping of the shared data.

    The systems are built before simulating, so an unusable lambda is
    rejected first; their rows are built at first use, and each is taken
    out of ``systems`` when its turn comes, so one set of cached rows is
    alive."""
    while systems:
        system = systems.pop(0)
        sg = system.sino_grid
        yield system, _shifted(
            cfg, system, reblock(clean_base, sg), reblock(noisy_base, sg), info
        )


def _gamma(cfg: RunConfig, system, data, bounds=None) -> float | None:
    """The threshold constant of the configured gamma mode (None: adaptive),
    from ``bounds`` when the caller has computed the system's already."""
    if cfg.gamma_mode == "explicit":
        return cfg.gamma
    if cfg.gamma_mode == "l2":
        return None
    if bounds is None:
        bounds = effective_bounds(system, data)
    gamma = bounds.gamma()
    if not 0.0 < gamma < math.inf:
        raise ConfigError(
            f"gamma_mode = bounds gives gamma = {gamma!r} at lambda = {cfg.lam!r}, "
            "where a positive finite gamma is needed; use gamma_mode = explicit"
        )
    return gamma


def _solver_config(cfg: RunConfig, system, data: SolverData,
                   bounds=None) -> SolverConfig:
    return cfg.solver_config(_gamma(cfg, system, data.values, bounds), data.deltas)


def _write_noise_meta(path: Path, data: SolverData) -> None:
    with open(path, "w") as fh:
        if data.info is None:
            fh.write("noise=none\n")
            return
        info = data.info
        fh.write(f"algorithm={info['algorithm']}\n")
        fh.write(f"seed={info['seed']}\n")
        fh.write(f"counts_scale={info['counts_scale']!r}\n")
        fh.write(f"target={info['target']!r}\n")
        fh.write(f"aggregate_error={info['aggregate_error']!r}\n")
        for j, (dr, du) in enumerate(zip(data.raw_deltas, data.deltas)):
            fh.write(f"delta_raw_{j}={dr!r}\n")
            fh.write(f"delta_shifted_{j}={du!r}\n")


def _write_summary(path: Path, cfg: RunConfig, lines: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"timestamp={datetime.datetime.now().isoformat()}\n")
        fh.write(f"mode={cfg.mode}\n")
        fh.write(
            f"n_t={cfg.n_t}\nn_r={cfg.n_r}\nn_angle={cfg.n_angle}\n"
            f"n_blocks={cfg.n_blocks}\nepsilon={cfg.epsilon!r}\nK={cfg.K}\n"
            f"lambda={cfg.lam!r}\nnoise_level={cfg.noise_level!r}\n"
        )
        for k, v in lines.items():
            fh.write(f"{k}={v}\n")


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out = _outdir(args, cfg)
    try:
        if cfg.mode == "compare":
            return _run_compare(cfg, out, args.quiet)
        return _run_single(cfg, out, args.quiet)
    except FloatingPointError as e:
        (out / "FAILED").write_text(f"{e}\n")
        raise


def _run_single(cfg: RunConfig, out: Path, quiet: bool) -> int:
    system = cfg.build_system()
    x_star = render_phantom(cfg.phantom, system.pixel_grid)
    x0 = uniform_density(system.pixel_grid).values
    data = _solver_data(cfg, system, x_star, quiet)

    x_star.to_pgm(out / "phantom.pgm")
    if data.noisy is not None:
        save_pgm(out / "sinogram.pgm", np.vstack([b.values for b in data.noisy]))
    save_matrix_csv(out / "data.csv", np.vstack(data.values))
    _write_noise_meta(out / "noise_meta.txt", data)

    summary: dict = {}
    t0 = time.perf_counter()
    if cfg.mode in ("em", "osem"):
        _say(quiet, f"running {cfg.mode} for {cfg.cycles} cycles ...")
        vals, trace = osem_run(
            x0, system, data.values, cfg.cycles, x_star=x_star.values
        )
    else:
        solver_cfg = _solver_config(cfg, system, data)
        gamma = solver_cfg.gamma
        _say(
            quiet,
            f"running loping-osem (tau={solver_cfg.tau:.4g}, "
            f"gamma={'adaptive' if gamma is None else format(gamma, '.4g')}) ...",
        )
        vals, trace, report = loping_osem_run(
            x0, system, data.values, solver_cfg, x_star=x_star.values
        )
        report.write_text(out / "stop_report.txt")
        summary["k_star"] = (
            report.k_star if report.k_star is not None else "max_cycles_reached"
        )
    wall = time.perf_counter() - t0

    trace.write_csv(out / "trace.csv")
    recon = DensityGrid(system.pixel_grid, vals)
    recon.to_pgm(out / "reconstruction.pgm")
    recon.to_csv(out / "reconstruction.csv")
    summary["cycles_run"] = trace.n_cycles
    summary["final_kl_error"] = repr(trace.final_error)
    summary["wall_seconds"] = f"{wall:.3f}"
    _write_summary(out / "summary.txt", cfg, summary)
    _say(
        quiet,
        f"done: cycles={trace.n_cycles} final_kl_error={trace.final_error:.6g} "
        f"({wall:.3f}s) -> {out}",
    )
    return 0


def _run_compare(cfg: RunConfig, out: Path, quiet: bool) -> int:
    """Loping runs against oracle-stopped runs over several block counts.

    One noise realization is drawn on the unsplit angle set and shared by
    every block count, so rows differ only in the grouping.
    """
    systems = [cfg.build_system(n_blocks=N) for N in cfg.compare_subsets]
    pixel_grid = cfg.pixel_grid()
    x_star = render_phantom(cfg.phantom, pixel_grid)
    x0 = uniform_density(pixel_grid).values
    clean_base, noisy_base, info = _shared_data(cfg, pixel_grid, quiet)

    x_star.to_pgm(out / "phantom.pgm")
    save_pgm(out / "sinogram.pgm", noisy_base.values)

    rows = []
    summary: dict = {}
    for system, data in _compare_systems(cfg, systems, clean_base, noisy_base, info):
        N = system.n_blocks
        solver_cfg = _solver_config(cfg, system, data)
        _say(quiet, f"N={N}: loping run ...")
        t0 = time.perf_counter()
        vals, trace, report = loping_osem_run(
            x0, system, data.values, solver_cfg, x_star=x_star.values
        )
        wall_loping = time.perf_counter() - t0
        err_loping = trace.final_error
        trace.write_csv(out / f"trace_loping_N{N}.csv")
        report.write_text(out / f"stop_report_N{N}.txt")
        DensityGrid(pixel_grid, vals).to_pgm(out / f"reconstruction_loping_N{N}.pgm")
        rows.append(("loping-osem", N, trace.n_cycles, wall_loping, err_loping))

        _say(quiet, f"N={N}: oracle run ({cfg.max_cycles} cycles) ...")
        t0 = time.perf_counter()
        oracle = oracle_stopped_osem(
            x0, system, data.values, x_star.values, cfg.max_cycles
        )
        wall_oracle = time.perf_counter() - t0
        err_oracle = float(oracle.errors[oracle.best_cycle])
        DensityGrid(pixel_grid, oracle.values).to_pgm(
            out / f"reconstruction_oracle_N{N}.pgm"
        )
        rows.append(("oracle-osem", N, oracle.best_cycle, wall_oracle, err_oracle))
        _say(
            quiet,
            f"N={N}: loping stopped after {trace.n_cycles} cycles "
            f"(error {err_loping:.6g}), oracle best at {oracle.best_cycle} "
            f"(error {err_oracle:.6g})",
        )

    with open(out / "table.csv", "w") as fh:
        fh.write("method,N,cycles,wall_seconds,final_kl_error\n")
        for method, N, cycles, wall, err in rows:
            fh.write(f"{method},{N},{cycles},{wall:.3f},{err!r}\n")
    summary["subsets"] = " ".join(str(s) for s in cfg.compare_subsets)
    summary["counts_scale"] = repr(info["counts_scale"])
    _write_summary(out / "summary.txt", cfg, summary)
    _say(quiet, f"done -> {out / 'table.csv'}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    quiet = args.quiet

    # the block counts ``run`` solves on, each with the label of its keys
    compare = cfg.mode == "compare"
    labels = ({N: f"_N{N}" for N in cfg.compare_subsets} if compare
              else {cfg.n_blocks: ""})
    for N, label in labels.items():
        m = kernel_floor(cfg.lam, cfg.sino_grid(N).block_measure)
        print(f"kernel_floor_m{label}={m!r}")
        if not m > 0.0:
            raise AssumptionError(
                f"the effective kernel floor is zero at lambda = {cfg.lam!r}; the "
                "multiplicative iteration needs lambda > 0 with 1 + lambda*b finite"
            )
    systems = [cfg.build_system(n_blocks=N) for N in labels]
    if compare:
        shared = _shared_data(cfg, cfg.pixel_grid(), quiet)
        checked = _compare_systems(cfg, systems, *shared)
    else:
        system = systems[0]
        x_star = render_phantom(cfg.phantom, system.pixel_grid)
        checked = [(system, _solver_data(cfg, system, x_star, quiet))]
    for system, data in checked:
        _verify_system(cfg, system, data, labels[system.n_blocks])
    print("verify: ok")
    return 0


def _verify_system(cfg: RunConfig, system, data: SolverData, label: str) -> None:
    """Print the geometry, kernel, data and threshold checks of one system
    and its data, with ``label`` appended to every key."""
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
        mass_dev = max(abs(bl.mass - 1.0) for bl in data.noisy)
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
    # interpolation error keeps the defect nonzero; the bounds above make
    # both sides positive
    x0 = uniform_density(system.pixel_grid).values
    print(f"pairing_defect{label}={_pairing_defect(system, x0, data.values)!r}")

    solver_cfg = _solver_config(cfg, system, data, bounds)
    tau = solver_cfg.tau
    print(f"tau{label}={tau!r}")
    print(f"delta_min{label}={float(data.deltas.min())!r}")
    print(f"delta_max{label}={float(data.deltas.max())!r}")
    if np.all(data.deltas == 0.0):
        print("warning: exact data; loping performs every step and only "
              "max_cycles ends the run")
        return
    residuals, thresholds = block_residuals(
        x0, system, data.values, tau, solver_cfg.gamma, data.deltas
    )
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
    x = render_phantom(cfg.phantom, cfg.pixel_grid())
    x.to_pgm(out / "phantom.pgm")
    x.to_csv(out / "phantom.csv")
    _say(
        args.quiet,
        f"phantom: {len(cfg.phantom.discs)} discs on {cfg.n_t + 1}x{cfg.n_t + 1} "
        f"nodes, mass={x.mass!r} -> {out}",
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
