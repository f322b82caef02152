"""Run one ``losem`` command in this interpreter with spans around it.

Usage::

    python3 child.py RESULT.json MODE -- run CONFIG --seed N --out DIR --quiet

MODE is one of

  * ``coarse``: spans around ``losem.cli.main`` and the three solver entry
    points as ``losem.cli`` binds them, nothing finer;
  * ``setup``: as ``coarse``, but the run ends at the first solver call, so
    only the set-up phase is paid;
  * ``trace``: spans around the public functions of every module, rebound
    in every ``losem`` module that refers to them.

Spans live in memory as ``[name, start, end, parent, note]`` and are written
to RESULT.json, with the exit code, the peak resident set size and the
run's speed scale, when the run ends.  A run in which ``losem.cli.main``
raises, rather than returning an exit code, writes no result.

The speed scale is ``REFERENCE_PASS_S`` over the time of one pass of a fixed
reference kernel, timed in this process as the mean of two medians: of the
passes that fill ``REFERENCE_BEFORE_S`` just before the run, and of those
that fill ``REFERENCE_SHARE`` of the run's length just after it (at least
one each).  On a shared host the speed of a CPU drifts by a quarter over
seconds and minutes.  Passes timed in the run's own process, on its CPU,
slow down with it, so times multiplied by the scale, seconds at the
reference speed, hold still while raw times drift: over ten seeds on a
2-core Xeon the spread (IQR over median) of em-exact-64's scaled ``run_s``
was 0.03 where the unscaled one was 0.06.  The kernel's work is fixed,
allocates no array and does not depend on the program, so a change to the
program moves scaled and raw times alike.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import statistics
import sys
import time
import weakref

SOLVER_ENTRIES = (
    ("losem.solvers", "osem_run"),
    ("losem.solvers", "loping_osem_run"),
    ("losem.experiment", "oracle_stopped_osem"),
)
COARSE = (("losem.cli", "main"),) + SOLVER_ENTRIES
TRACED = COARSE + (
    ("losem.config", "load_config"),
    ("losem.operators", "RadonSystem.__init__"),
    ("losem.operators", "RadonBlockOperator.forward"),
    ("losem.operators", "RadonBlockOperator.adjoint"),
    ("losem.kl_core", "kl_distance"),
    ("losem.kl_core", "save_matrix_csv"),
    ("losem.kl_core", "save_pgm"),
    ("losem.experiment", "render_phantom"),
    ("losem.experiment", "simulate_data"),
    ("losem.experiment", "simulate_clean_base"),
    ("losem.experiment", "reblock"),
    ("losem.experiment", "consistent_data"),
    ("losem.experiment", "add_poisson_noise"),
    ("losem.experiment", "realized_deltas"),
)


# Time of one reference pass taken as the reference speed: about its median
# on the 2-core Xeon the benchmark was defined on, so scaled times stay near
# the seconds measured there.
REFERENCE_PASS_S = 0.034
REFERENCE_BEFORE_S = 0.25
REFERENCE_SHARE = 0.2


def reference_inputs():
    """Arrays of the reference kernel: small enough to stay in cache, made
    without ``numpy.random`` (which a run need not load), and with every
    buffer the kernel writes, so that a pass allocates no array and its
    speed does not depend on the heap the run leaves behind."""
    import numpy as np

    n = 12_000
    k = np.arange(n)
    frac = (k * 0.6180339887) % 1.0
    flat = ((k * 37) % 64) * 65 + (k * 53) % 64  # cells of a 65 x 65 grid
    corners = [flat, flat + 65, flat + 1, flat + 66]
    weights = [(1 - frac) * frac, frac * frac, (1 - frac) ** 2, frac * (1 - frac)]
    return (np.sin(np.arange(65 * 65.0)), corners, weights, np.arange(0, n, 50),
            np.empty(n), np.empty(n), np.empty(n // 50))


def reference_pass(x, corners, weights, offsets, vals, tmp, sums) -> float:
    """Seconds of one pass of fixed work: weighted four-corner gathers and
    segment sums in numpy, as in a forward projection, then a pure-Python
    loop."""
    import numpy as np

    start = time.perf_counter()
    for _ in range(100):
        vals.fill(0.0)
        for idx, w in zip(corners, weights):
            np.take(x, idx, out=tmp)
            np.multiply(tmp, w, out=tmp)
            np.add(vals, tmp, out=vals)
        np.add.reduceat(vals, offsets, out=sums)
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return time.perf_counter() - start


def reference_passes(inputs, seconds: float) -> float:
    """Median time of the reference passes that fill ``seconds`` (at least one)."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(reference_pass(*inputs))
    return statistics.median(times)


class SetupReached(Exception):
    """Raised at the first solver call of a ``setup`` run."""


def _stop_at_solver(*args, **kwargs):
    raise SetupReached


def _solver_note(args, out):
    """[steps evaluated, steps performed] of a solver call."""
    if hasattr(out, "errors"):
        # oracle result: one error per cycle end plus the start, every step performed
        steps = (len(out.errors) - 1) * args[1].n_blocks
        return [steps, steps]
    trace = out[1]
    return [len(trace), sum(trace.performed)]


class Recorder:
    """Spans of one run, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._ops = weakref.WeakKeyDictionary()
        self._serials = itertools.count()

    def _op_serial(self, op) -> int:
        serial = self._ops.get(op)
        if serial is None:
            serial = self._ops[op] = next(self._serials)
        return serial

    def _forward_note(self, args, out):
        """[operator serial, n_t, n_phi, n_r] of a forward call."""
        op = args[0]
        return [self._op_serial(op), op.pixel_grid.n_t, op.sino_grid.n_phi,
                op.sino_grid.n_r]

    def wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, out)
            return out

        return wrapper

    def install(self, mode: str) -> None:
        """Rebind the targets of ``mode`` to span-recording wrappers."""
        import losem.cli  # noqa: F401  (loads every losem module)

        if mode == "trace":
            targets = TRACED
            scope = [m for name, m in sys.modules.items()
                     if name == "losem" or name.startswith("losem.")]
        else:
            # coarse marks are the names losem.cli binds, and nothing below them
            targets = COARSE
            scope = [sys.modules["losem.cli"]]
        for module_name, qualname in targets:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            name = module_name.removeprefix("losem.") + "." + qualname
            note = None
            if (module_name, qualname) in SOLVER_ENTRIES:
                note = _solver_note
            elif qualname == "RadonBlockOperator.forward":
                note = self._forward_note
            inner = fn
            if mode == "setup" and (module_name, qualname) in SOLVER_ENTRIES:
                inner = _stop_at_solver
            wrapper = self.wrap(name, inner, note)
            if path:
                setattr(owner, attr, wrapper)
                continue
            for module in scope:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("coarse", "setup", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result_path, mode, losem_argv = argv[0], argv[1], argv[3:]
    recorder = Recorder()
    recorder.install(mode)
    import losem.cli

    inputs = reference_inputs()
    before = reference_passes(inputs, REFERENCE_BEFORE_S)
    start = time.perf_counter()
    try:
        code = losem.cli.main(losem_argv)
    except SetupReached:
        code = 0
    after = reference_passes(inputs, REFERENCE_SHARE * (time.perf_counter() - start))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump({"exit_code": code, "mode": mode, "peak_rss_kb": peak_kb,
                   "scale": REFERENCE_PASS_S / ((before + after) / 2),
                   "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
