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
from dataclasses import dataclass, field

import numpy as np

from .kl_core import kl_distance

__all__ = [
    "SolverConfig",
    "IterationTrace",
    "StopReport",
    "AuditReport",
    "em_step",
    "osem_run",
    "loping_osem_run",
    "skip_threshold",
    "tau_schedule",
    "monotonicity_audit",
]

TRACE_HEADER = "step,cycle,block,performed,residual,step_kl,error_kl"


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of a loping run.

    ``gamma`` is the resolved threshold constant: a step on block j is
    skipped while its residual is at or below tau * gamma * delta_j.  With
    ``gamma`` None the adaptive rule applies instead, with threshold
    tau * delta_j * ||log(y_j / A_j x)||_2 and delta_j a weighted-L2 noise
    bound (see :func:`skip_threshold`).

    ``delta`` holds one noise bound per block; ``None`` or zeros mean exact
    data, in which case every step is performed and the run only ends at
    ``max_cycles``.
    """

    n_blocks: int
    tau: float = 1.5
    gamma: float | None = None
    delta: np.ndarray | None = None
    max_cycles: int = 200

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.delta is not None:
            d = np.asarray(self.delta, dtype=np.float64)
            if d.shape != (self.n_blocks,):
                raise ValueError(
                    f"delta must have one entry per block, got shape {d.shape}"
                )
            if np.any(d < 0):
                raise ValueError("noise bounds must be nonnegative")
            object.__setattr__(self, "delta", d)


@dataclass
class IterationTrace:
    """Per-step record of a run.

    ``residual`` is the block residual before the step, ``step_kl`` the KL
    distance from the previous to the new iterate (zero for skipped steps)
    and ``error_kl`` the KL distance from the ground truth to the iterate
    before the step (nan when no ground truth was supplied).  The error of
    the final iterate is kept in ``final_error``.  ``residual_after`` is
    filled only when the run audits post-step residuals.
    """

    n_blocks: int
    step: list = field(default_factory=list)
    cycle: list = field(default_factory=list)
    block: list = field(default_factory=list)
    performed: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    step_kl: list = field(default_factory=list)
    error_kl: list = field(default_factory=list)
    residual_after: list = field(default_factory=list)
    drift: list = field(default_factory=list)
    final_error: float = math.nan

    def append(self, k, j, performed, residual, step_kl, error_kl,
               residual_after=math.nan, drift=0.0):
        self.step.append(k)
        self.cycle.append(k // self.n_blocks)
        self.block.append(j)
        self.performed.append(bool(performed))
        self.residual.append(float(residual))
        self.step_kl.append(float(step_kl))
        self.error_kl.append(float(error_kl))
        self.residual_after.append(float(residual_after))
        self.drift.append(float(drift))

    def __len__(self) -> int:
        return len(self.step)

    @property
    def n_cycles(self) -> int:
        return 0 if not self.step else self.cycle[-1] + 1

    def errors(self) -> np.ndarray:
        """Ground-truth errors per step plus the final iterate's error."""
        return np.asarray(self.error_kl + [self.final_error])

    def cycle_errors(self) -> np.ndarray:
        """Error at the end of cycle c = error before step c*n_blocks, for
        c = 0..n_cycles, ending with the final error."""
        N = self.n_blocks
        out = [self.error_kl[c * N] for c in range(self.n_cycles)]
        out.append(self.final_error)
        return np.asarray(out)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(TRACE_HEADER + "\n")
            for i in range(len(self.step)):
                fh.write(
                    f"{self.step[i]},{self.cycle[i]},{self.block[i]},"
                    f"{1 if self.performed[i] else 0},{self.residual[i]!r},"
                    f"{self.step_kl[i]!r},{self.error_kl[i]!r}\n"
                )


@dataclass
class StopReport:
    """Outcome of a loping run."""

    stopped_by_rule: bool
    k_star: int | None
    cycles: int
    final_residuals: np.ndarray
    thresholds: np.ndarray
    gamma: float | None = None
    tau: float = math.nan
    step_bound: float = math.nan   # bound on k_star when it applies, else nan

    def write_text(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"stopped_by_rule={'true' if self.stopped_by_rule else 'false'}\n")
            fh.write(
                f"k_star={self.k_star if self.k_star is not None else 'max_cycles_reached'}\n"
            )
            fh.write(f"cycles={self.cycles}\n")
            fh.write(f"tau={self.tau!r}\n")
            if self.gamma is not None:
                fh.write(f"gamma={self.gamma!r}\n")
            fh.write(f"step_bound={self.step_bound!r}\n")
            for j, (r, t) in enumerate(zip(self.final_residuals, self.thresholds)):
                fh.write(f"final_residual_{j}={float(r)!r}\n")
                fh.write(f"threshold_{j}={float(t)!r}\n")


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


def osem_run(x0, system, data, cycles, x_star=None, audit=False):
    """Cyclic multiplicative iteration over all blocks for a fixed cycle count.

    Returns the final iterate values and the :class:`IterationTrace`.
    ``audit`` additionally records the same-block residual after each step.
    """
    return _run_loop(x0, system, data, cycles, x_star, audit)[:2]


def loping_osem_run(x0, system, data, config: SolverConfig, x_star=None,
                    audit=False):
    """Loping variant: steps whose block residual is at or below the noise
    threshold are skipped, and the run stops after the first fully skipped
    cycle.

    Returns (values, trace, stop_report).
    """
    delta = config.delta
    if delta is None:
        delta = np.zeros(config.n_blocks)
    g = config.gamma
    vals, trace, report = _run_loop(
        x0, system, data, config.max_cycles, x_star, audit,
        rule=(config.tau, g, delta),
    )
    report.gamma = g
    report.tau = config.tau
    if (
        x_star is not None
        and g is not None
        and config.tau > 1.0
        and float(np.min(delta)) > 0.0
    ):
        d0 = kl_distance(x_star, x0, system.node_weights)
        report.step_bound = (
            config.n_blocks * d0 / ((config.tau - 1.0) * g * float(np.min(delta)))
        )
    return vals, trace, report


def _run_loop(x0, system, data, max_cycles, x_star, audit, rule=None):
    """Cycle the blocks; ``rule`` is the (tau, gamma, delta) of the skip
    rule, or None to perform every step."""
    N = system.n_blocks
    if len(data) != N:
        raise ValueError(f"expected {N} data blocks, got {len(data)}")
    data = [np.asarray(b, dtype=np.float64) for b in data]
    x = np.array(x0, dtype=np.float64)
    w_nodes = system.node_weights
    w_block = system.block_weight
    loping = rule is not None
    if loping:
        tau, gamma, delta = rule

    def threshold(j, fx):
        return skip_threshold(tau, gamma, delta[j], data[j], fx, w_block)

    trace = IterationTrace(N)
    stopped = False
    k = 0
    for cycle in range(max_cycles):
        any_performed = False
        for j in range(N):
            fx = system.forward(x, j)
            f = kl_distance(data[j], fx, w_block)
            err = math.nan if x_star is None else kl_distance(x_star, x, w_nodes)
            perform = not loping or delta[j] == 0.0 or f > threshold(j, fx)
            if perform:
                any_performed = True
                x_new, mass = _update(x, system, j, data[j], fx)
                step_kl = kl_distance(x_new, x, w_nodes)
                f_after = math.nan
                if audit:
                    f_after = kl_distance(data[j], system.forward(x_new, j), w_block)
                trace.append(k, j, True, f, step_kl, err, f_after, mass - 1.0)
                x = x_new
            else:
                trace.append(k, j, False, f, 0.0, err, f if audit else math.nan, 0.0)
            k += 1
        if loping and not any_performed:
            stopped = True
            break
    trace.final_error = math.nan if x_star is None else kl_distance(x_star, x, w_nodes)

    if not loping:
        return x, trace, None

    # residuals and thresholds at the final iterate, for the report
    final_res = np.empty(N)
    final_thr = np.empty(N)
    for j in range(N):
        fx = system.forward(x, j)
        final_res[j] = kl_distance(data[j], fx, w_block)
        final_thr[j] = threshold(j, fx)
    cycles_run = trace.n_cycles
    report = StopReport(
        stopped_by_rule=stopped,
        k_star=(cycles_run - 1) * N if stopped else None,
        cycles=cycles_run,
        final_residuals=final_res,
        thresholds=final_thr,
    )
    return x, trace, report


def skip_threshold(tau, gamma, delta, y=None, fx=None, weight=None):
    """Noise threshold tau * gamma * delta of a block step.

    A loping step is performed while its block residual exceeds this.  With
    ``gamma`` None (the adaptive rule) gamma is the weighted L2 norm of
    log(y / fx) for the block's data ``y`` and forward values ``fx``.
    ``delta`` may be an array of block bounds when gamma is given.
    """
    if gamma is None:
        return tau * delta * _log_ratio_norm(y, fx, weight)
    return tau * gamma * delta


def _log_ratio_norm(y, fx, weight) -> float:
    """Weighted L2 norm of log(y / fx); requires strictly positive inputs."""
    if np.any(y <= 0.0) or np.any(fx <= 0.0):
        raise ValueError(
            "adaptive threshold needs strictly positive data and forward values"
        )
    logs = np.log(y / fx)
    return float(math.sqrt(np.sum(weight * logs * logs)))


def tau_schedule(delta_level: float, tau_infinity: float) -> float:
    """Noise-dependent threshold factor tau(delta) = tau_inf / (1 + c*delta).

    ``delta_level`` is the relative noise level (e.g. 0.05 for five percent).
    The slope c = 25 / tau_inf pushes the factor below one for large noise,
    trading the per-step guarantee for far fewer skipped updates.
    """
    if not tau_infinity > 1.0:
        raise ValueError(
            "tau_infinity, the zero-noise limit of tau, must exceed 1, "
            f"got {tau_infinity}"
        )
    if delta_level < 0.0:
        raise ValueError("delta_level must be nonnegative")
    c = 25.0 / tau_infinity
    return tau_infinity / (1.0 + c * delta_level)


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class AuditReport:
    """Monotonicity findings over a trace."""

    violations: np.ndarray          # step indices where the error increased
    max_increase: float             # largest per-step error increase observed
    k_star: int | None = None
    step_bound: float = math.nan
    bound_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0 and self.bound_ok is not False


def monotonicity_audit(trace: IterationTrace, tol: float = 1e-8,
                       stop: StopReport | None = None) -> AuditReport:
    """Flag steps where the ground-truth error increased beyond ``tol``.

    The trace must come from a run that was given the ground truth.  When a
    stop report with a finite ``step_bound`` is supplied, the stopping index
    is checked against it.  The default tolerance suits exact-data runs; use
    a looser one (e.g. 1e-6) for noisy runs.
    """
    errs = trace.errors()
    if np.any(np.isnan(errs)):
        raise ValueError("trace has no ground-truth errors to audit")
    inc = np.diff(errs)
    bad = np.flatnonzero(inc > tol)
    max_inc = float(inc.max()) if len(inc) else 0.0
    k_star = None
    bound = math.nan
    bound_ok = None
    if stop is not None:
        k_star = stop.k_star
        bound = stop.step_bound
        if k_star is not None and math.isfinite(bound):
            bound_ok = bool(k_star <= bound)
    return AuditReport(
        violations=bad, max_increase=max_inc, k_star=k_star,
        step_bound=bound, bound_ok=bound_ok,
    )
