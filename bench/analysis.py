"""Metrics of one run, computed from the spans ``child.py`` records.

A span is ``[name, start, end, parent, note]``; ``parent`` indexes the span
that was open when it started (-1 for the root, ``cli.main``).  A span's
self time is its duration minus the durations of its direct children, so
the self times of all spans of a run add up to the root's duration.  Every
span name maps to exactly one per-layer metric, which makes the per-layer
self times plus ``cli.self_s`` a partition of the traced ``run_s``.
"""

from __future__ import annotations

import math
import statistics

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_kl_error": "nat",
}

# self-time metrics, in the order they are printed
SELF_TIME_METRICS = (
    "cli.self_s",
    "config.load_s",
    "operators.build_s",
    "operators.forward_solve_s",
    "operators.forward_sim_s",
    "operators.adjoint_s",
    "kl_core.kl_distance_s",
    "kl_core.write_s",
    "solvers.self_s",
    "experiment.simulate_s",
    "experiment.noise_s",
    "experiment.render_s",
    "experiment.oracle_s",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "operators.forward_calls": "count",
    "operators.forward_first_s": "s",
    "operators.forward_points": "count",
    "operators.forward_bytes": "bytes",
    "operators.forward_ns_per_point": "ns",
    "operators.forward_solve_ns_per_point": "ns",
    "operators.forward_sim_ns_per_point": "ns",
    "operators.adjoint_calls": "count",
    "kl_core.kl_distance_calls": "count",
    "solvers.steps": "count",
    "solvers.performed_frac": "ratio",
    "solvers.forward_per_step": "ratio",
    "cli.artifact_bytes": "bytes",
    "bench.traced_run_s": "s",
    "bench.trace_overhead_s": "s",
}

# figures computed from the geometry of each forward call, not measured
COMPUTED_METRICS = ("operators.forward_points", "operators.forward_bytes")

# counts that must repeat exactly between traced runs of one workload and seed
COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u in ("count", "bytes"))

ROOT = "cli.main"
FORWARD = "operators.RadonBlockOperator.forward"
SOLVER_SPANS = frozenset(
    ("solvers.osem_run", "solvers.loping_osem_run", "experiment.oracle_stopped_osem")
)

BUCKETS = {
    ROOT: "cli.self_s",
    "config.load_config": "config.load_s",
    "operators.RadonSystem.__init__": "operators.build_s",
    "operators.RadonBlockOperator.adjoint": "operators.adjoint_s",
    "kl_core.kl_distance": "kl_core.kl_distance_s",
    "kl_core.save_matrix_csv": "kl_core.write_s",
    "kl_core.save_pgm": "kl_core.write_s",
    "solvers.osem_run": "solvers.self_s",
    "solvers.loping_osem_run": "solvers.self_s",
    "experiment.render_phantom": "experiment.render_s",
    "experiment.simulate_data": "experiment.simulate_s",
    "experiment.simulate_clean_base": "experiment.simulate_s",
    "experiment.reblock": "experiment.simulate_s",
    "experiment.consistent_data": "experiment.simulate_s",
    "experiment.add_poisson_noise": "experiment.noise_s",
    "experiment.realized_deltas": "experiment.noise_s",
    "experiment.oracle_stopped_osem": "experiment.oracle_s",
}

# Bytes one quadrature point of a forward call reads, computed from array
# sizes and ignoring temporaries and cache misses: four float64 corner
# values of the bilinear gather plus its plan (two int32 cell indices and
# two float64 offsets).
BYTES_PER_POINT = 4 * 8 + 2 * 4 + 2 * 8


def points_per_forward(n_t: int, n_phi: int, n_r: int) -> int:
    """Quadrature points of one forward call, computed from the geometry.

    n_phi * sum over radii r_i = 2 i / n_r, i = 1..n_r, of
    max(8, ceil(3 * r_i * n_t)): the samples at r = 0 need no points.
    """
    return n_phi * sum(
        max(8, math.ceil(3.0 * (2.0 * i / n_r) * n_t)) for i in range(1, n_r + 1)
    )


def scale_spans(spans, factor: float) -> list:
    """Spans timed from the root's start, with every time multiplied by
    ``factor``; durations, self times and their sums scale alike."""
    t0 = spans[0][1]
    return [[s[0], (s[1] - t0) * factor, (s[2] - t0) * factor, s[3], s[4]]
            for s in spans]


def self_times(spans) -> list[float]:
    dur = [s[2] - s[1] for s in spans]
    out = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            out[s[3]] -= dur[i]
    return out


def _under_solver(spans, i) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in SOLVER_SPANS:
            return True
        p = spans[p][3]
    return False


def _outermost_solver_spans(spans):
    return [i for i, s in enumerate(spans)
            if s[0] in SOLVER_SPANS and not _under_solver(spans, i)]


def end_to_end(spans) -> dict:
    """run_s, setup_s, solve_s and the evaluated steps of one run.

    ``setup_s`` ends at the first solver call; a run that stopped there
    (``setup`` mode) has no solve figures.
    """
    root = spans[0]
    if root[0] != ROOT:
        raise ValueError(f"first span is {root[0]!r}, expected {ROOT!r}")
    outer = _outermost_solver_spans(spans)
    if not outer:
        raise ValueError("the run made no solver call")
    out = {"run_s": root[2] - root[1], "setup_s": spans[outer[0]][1] - root[1]}
    notes = [spans[i][4] for i in outer]
    if all(n is not None for n in notes):
        out["solve_s"] = sum(spans[i][2] - spans[i][1] for i in outer)
        out["steps"] = sum(n[0] for n in notes)
        out["steps_per_s"] = out["steps"] / out["solve_s"]
    return out


def per_layer(spans) -> dict:
    """Per-layer self times and counts of one traced run."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in SELF_TIME_METRICS}
    fwd_calls = adj_calls = kl_calls = 0
    points = {"solve": 0, "sim": 0}
    fwd_solver = 0
    per_op: dict[int, list[float]] = {}
    for i, s in enumerate(spans):
        name = s[0]
        if name == FORWARD:
            where = "solve" if _under_solver(spans, i) else "sim"
            serial, n_t, n_phi, n_r = s[4]
            fwd_calls += 1
            fwd_solver += where == "solve"
            points[where] += points_per_forward(n_t, n_phi, n_r)
            per_op.setdefault(serial, []).append(selfs[i])
            out[f"operators.forward_{where}_s"] += selfs[i]
            continue
        out[BUCKETS[name]] += selfs[i]
        adj_calls += name == "operators.RadonBlockOperator.adjoint"
        kl_calls += name == "kl_core.kl_distance"

    notes = [spans[i][4] for i in _outermost_solver_spans(spans)]
    steps = sum(n[0] for n in notes)
    total_points = points["solve"] + points["sim"]
    fwd_solve_s = out["operators.forward_solve_s"]
    fwd_sim_s = out["operators.forward_sim_s"]
    out.update({
        "operators.forward_calls": fwd_calls,
        # a block's first forward call builds its plan; later calls reuse it
        "operators.forward_first_s": sum(
            t[0] - statistics.median(t[1:]) for t in per_op.values() if len(t) > 1
        ),
        "operators.forward_points": total_points,
        "operators.forward_bytes": total_points * BYTES_PER_POINT,
        "operators.forward_ns_per_point": _ns(fwd_solve_s + fwd_sim_s, total_points),
        "operators.forward_solve_ns_per_point": _ns(fwd_solve_s, points["solve"]),
        "operators.forward_sim_ns_per_point": _ns(fwd_sim_s, points["sim"]),
        "operators.adjoint_calls": adj_calls,
        "kl_core.kl_distance_calls": kl_calls,
        "solvers.steps": steps,
        "solvers.performed_frac": sum(n[1] for n in notes) / steps,
        "solvers.forward_per_step": fwd_solver / steps,
    })
    return out


def _ns(seconds: float, points: int) -> float:
    return seconds * 1e9 / points if points else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3
