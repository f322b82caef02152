"""Multiplicative EM-type solvers over block operator systems.

A system is anything with the small surface used below: ``n_blocks``,
``node_weights``, ``block_weight``, ``forward(x, j)`` and ``adjoint(y, j)``.
The iterates live on the density simplex of the node quadrature: every step
multiplies the current iterate by the adjoint of the data/forward ratio and
renormalizes to unit mass.  Iterates, starting points and ground truths are
float arrays of node values.

The loping variant evaluates, before each step, whether the block residual
still exceeds its noise threshold; if not, the step is skipped.  The run
stops at the start of the first cycle in which every block was skipped, so
the stopping index is a multiple of the block count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kl_core import kl_distance, save_rows

__all__ = [
    "SolverConfig",
    "IterationTrace",
    "StopReport",
    "em_step",
    "osem_run",
    "loping_osem_run",
    "block_residuals",
]

# the fields of a trace row, in order, as trace.csv writes them
TRACE_FIELDS = ("step", "cycle", "block", "performed", "residual", "step_kl",
                "error_kl", "drift")


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of a loping run.

    ``gamma`` is the resolved threshold constant: a step on block j is
    skipped while its residual is at or below tau * gamma * delta_j.

    ``delta`` holds one L1 noise bound per block of the system it runs on;
    ``None`` or zeros mean exact data, in which case every step is performed
    and the run only ends at ``max_cycles``.  Only exact data may leave
    ``gamma`` None: a nonzero bound needs a gamma.
    """

    tau: float = 1.5
    gamma: float | None = None
    delta: np.ndarray | None = None
    max_cycles: int = 200

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.delta is not None:
            d = np.asarray(self.delta, dtype=np.float64)
            # a NaN or infinite bound would skip every step and forge a stop
            if not np.all((d >= 0.0) & (d < math.inf)):
                raise ValueError("noise bounds must be nonnegative and finite")
            if self.gamma is None and np.any(d != 0.0):
                raise ValueError("a nonzero noise bound needs a gamma")
            object.__setattr__(self, "delta", d)

    def thresholds(self) -> np.ndarray:
        """The threshold tau * gamma * delta_j of every block, fixed for a
        run, of a config with its block bounds set; zeros on exact data,
        which needs no gamma."""
        return self.tau * (self.gamma or 0.0) * self.delta


@dataclass
class IterationTrace:
    """Per-step record of a run: one row per step, with the
    ``TRACE_FIELDS``, each of which reads as a list (``trace.residual``).

    ``residual`` is the block residual before the step, ``step_kl`` the KL
    distance from the previous to the new iterate (zero for skipped steps)
    and ``error_kl`` the KL distance from the ground truth to the iterate
    before the step (nan when no ground truth was supplied).  ``drift`` is
    the iterate's mass before renormalization minus one (zero for skipped
    steps).  The error of the final iterate is kept in ``final_error``.
    """

    n_blocks: int
    rows: list = field(default_factory=list)
    final_error: float = math.nan

    def append(self, k, j, performed, residual, step_kl, error_kl, drift=0.0):
        self.rows.append((k, k // self.n_blocks, j, bool(performed), float(residual),
                          float(step_kl), float(error_kl), float(drift)))

    def __getattr__(self, name):
        if name not in TRACE_FIELDS:
            raise AttributeError(name)
        i = TRACE_FIELDS.index(name)
        return [row[i] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_cycles(self) -> int:
        return 0 if not self.rows else self.rows[-1][1] + 1

    def write_csv(self, path) -> None:
        save_rows(path, [TRACE_FIELDS, *self.rows])


@dataclass(frozen=True)
class StopReport:
    """Outcome of a loping run."""

    stopped_by_rule: bool
    k_star: int | None
    cycles: int
    final_residuals: np.ndarray
    thresholds: np.ndarray
    gamma: float | None
    tau: float
    step_bound: float   # bound on k_star when it applies, else nan

    @property
    def k_star_text(self) -> str:
        """``k_star`` as the run's artifacts write it."""
        return "max_cycles_reached" if self.k_star is None else str(self.k_star)

    def pairs(self) -> list:
        """The report as (key, value) pairs, in the order
        ``stop_report.txt`` holds them."""
        pairs = [("stopped_by_rule", "true" if self.stopped_by_rule else "false"),
                 ("k_star", self.k_star_text), ("cycles", self.cycles),
                 ("tau", self.tau)]
        if self.gamma is not None:
            pairs.append(("gamma", self.gamma))
        pairs.append(("step_bound", self.step_bound))
        for j, (r, t) in enumerate(zip(self.final_residuals, self.thresholds)):
            pairs += [(f"final_residual_{j}", float(r)), (f"threshold_{j}", float(t))]
        return pairs


# ---------------------------------------------------------------------------
# steps and runs


def _update(x, system, j, y_j, fx):
    """One multiplicative update from precomputed forward values.

    Returns the renormalized iterate and the pre-normalization mass.
    """
    ratio = y_j / fx
    factor = system.adjoint(ratio, j)
    raw = x * factor
    mass = float(np.sum(system.node_weights * raw))
    if not (math.isfinite(mass) and mass > 0.0):
        raise FloatingPointError(f"iterate mass degenerated to {mass} at block {j}")
    return raw / mass, mass


def em_step(x, system, j, y_j):
    """One multiplicative step on block j followed by renormalization, of
    an iterate ``x`` on the system's node quadrature."""
    return _update(x, system, j, y_j, system.forward(x, j))[0]


def osem_run(x0, system, data, cycles, x_star=None):
    """Cyclic multiplicative iteration over all blocks for a fixed cycle count.

    This is the loping loop with zero noise bounds, which performs every
    step (tau and gamma are then never read).  Returns the final iterate
    values and the :class:`IterationTrace`.
    """
    config = SolverConfig(delta=np.zeros(system.n_blocks), max_cycles=cycles)
    return _run_loop(x0, system, data, config, x_star)[:2]


def loping_osem_run(x0, system, data, config: SolverConfig, x_star=None):
    """Loping variant: steps whose block residual is at or below the noise
    threshold are skipped, and the run stops after the first fully skipped
    cycle.

    Returns (values, trace, stop_report).
    """
    N = system.n_blocks
    config = _with_block_deltas(config, N)
    delta, tau, g = config.delta, config.tau, config.gamma
    x, trace, skipped = _run_loop(x0, system, data, config, x_star)
    stopped = skipped is not None
    # a fully skipped cycle left the iterate as it was, so its residuals
    # and thresholds are those of the final iterate
    final_res, final_thr = (skipped if stopped else
                            block_residuals(x, system, data, config))
    d_min = float(np.min(delta))
    step_bound = math.nan
    # a positive bound has a gamma (see SolverConfig)
    if x_star is not None and tau > 1.0 and d_min > 0.0:
        # trace.error_kl[0] is KL(x*, x0)
        step_bound = N * trace.error_kl[0] / ((tau - 1.0) * g * d_min)
    report = StopReport(
        stopped_by_rule=stopped,
        k_star=(trace.n_cycles - 1) * N if stopped else None,
        cycles=trace.n_cycles,
        final_residuals=final_res,
        thresholds=final_thr,
        gamma=g,
        tau=tau,
        step_bound=step_bound,
    )
    return x, trace, report


def _with_block_deltas(config: SolverConfig, N: int) -> SolverConfig:
    """``config`` with its noise bounds checked for an N-block system, one
    per block; without bounds, with zeros (exact data)."""
    if config.delta is None:
        return replace(config, delta=np.zeros(N))
    if config.delta.shape != (N,):
        raise ValueError(
            f"delta must have one entry per block, got shape {config.delta.shape} "
            f"for {N} blocks"
        )
    return config


def block_residuals(x, system, data, config: SolverConfig):
    """Residual KL(y_j, A_j x) of every block at the iterate ``x``, and the
    threshold tau * gamma * delta_j a loping step on it must exceed, for the
    tau, gamma and delta of ``config``; the thresholds do not depend on
    ``x``.  Returns two arrays."""
    config = _with_block_deltas(config, system.n_blocks)
    res = np.array([kl_distance(data[j], system.forward(x, j), system.block_weight)
                    for j in range(system.n_blocks)])
    return res, config.thresholds()


def _run_loop(x0, system, data, config: SolverConfig, x_star):
    """Cycle the blocks under the skip rule of ``config``: a step is
    performed when its block's bound is zero or its residual exceeds the
    threshold.  Returns the final iterate, the trace and, when the run
    stopped on a fully skipped cycle, that cycle's residuals and thresholds
    (else None)."""
    N = system.n_blocks
    if len(data) != N:
        raise ValueError(f"expected {N} data blocks, got {len(data)}")
    data = [np.asarray(b, dtype=np.float64) for b in data]
    x = np.array(x0, dtype=np.float64)
    delta, thr = config.delta, config.thresholds()
    w_nodes = system.node_weights
    w_block = system.block_weight

    trace = IterationTrace(N)
    res = np.empty(N)
    skipped = None
    # the ground-truth error of the current iterate: a skipped step leaves
    # the iterate, and so its error, as it was
    err = math.nan if x_star is None else kl_distance(x_star, x, w_nodes)
    k = 0
    for _ in range(config.max_cycles):
        any_performed = False
        for j in range(N):
            fx = system.forward(x, j)
            res[j] = f = kl_distance(data[j], fx, w_block)
            if delta[j] == 0.0 or f > thr[j]:
                any_performed = True
                x_new, mass = _update(x, system, j, data[j], fx)
                trace.append(k, j, True, f, kl_distance(x_new, x, w_nodes), err,
                             mass - 1.0)
                x = x_new
                err = math.nan if x_star is None else kl_distance(x_star, x, w_nodes)
            else:
                trace.append(k, j, False, f, 0.0, err)
            k += 1
        if not any_performed:
            skipped = res, thr
            break
    trace.final_error = err
    return x, trace, skipped
