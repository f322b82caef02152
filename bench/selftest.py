"""Self-test of the benchmark harness on a tiny inline config.

Usage, from the root of a source checkout::

    python3 bench/selftest.py

In a few seconds it checks that

  1. both modes report every metric ``BENCHMARK.json`` names, with its unit;
  2. the golden value a run produced passes the gate, and the same value
     off by one part in a million is reported as a failed run;
  3. the per-layer self times plus ``cli.self_s`` add up to the traced
     ``run_s``, and every count repeats exactly between two traced runs.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import analysis
import run

TINY_CONFIG = """\
mode = loping-osem
n_t = 16
n_r = 16
n_angle = 16
n_blocks = 4
K = 1
lambda = 0.01
noise_level = 0.05
seed = 0
oversample = 2
tau = 1.5
gamma_mode = explicit
gamma = 0.2
max_cycles = 50
disc = 0.1 0.0 0.4 1.0
disc = -0.2 0.2 0.2 2.0
"""


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    def units(result) -> dict:
        return {k: v["unit"] for k, v in result["metrics"].items()}

    def measure(trace: bool, expected: dict | None) -> dict:
        """One harness run of the tiny config; its printout is dropped."""
        with contextlib.redirect_stdout(io.StringIO()):
            return run.run(root, config, "selftest", 0, 0.0, trace, expected)

    e2e = measure(False, None)
    expect(e2e["correct"], "untraced run passes the stop-certificate gate")
    expect(units(e2e) == {m["name"]: m["unit"] for m in spec["end_to_end"]},
           "untraced run reports every end-to-end metric with its unit")

    layers = measure(True, None)
    expect(layers["correct"], "traced run passes the gate")
    expect(units(layers) == {m["name"]: m["unit"] for m in spec["per_layer"]},
           "traced run reports every per-layer metric with its unit")

    golden_error = e2e["metrics"]["final_kl_error"]["value"]
    right = measure(False, {"final_kl_error": golden_error})
    expect(right["correct"] and right["failed"] == 0,
           "the produced golden value passes")
    wrong = measure(False, {"final_kl_error": golden_error * (1.0 + 1e-6)})
    expect(not wrong["correct"] and wrong["failed"] >= 1,
           "a golden value off by 1e-6 relative is reported as a failed run")

    h = run.Harness(root, config, 0, None)
    spans = [h.rep("trace")[0]["spans"] for _ in range(2)]
    per = [analysis.per_layer(s) for s in spans]
    total = sum(per[0][k] for k in analysis.SELF_TIME_METRICS)
    run_s = analysis.end_to_end(spans[0])["run_s"]
    expect(abs(total - run_s) <= 1e-9,
           f"self times add up to the traced run_s ({total!r} vs {run_s!r})")
    expect(all(per[0][k] == per[1][k] for k in analysis.COUNT_METRICS
               if k in per[0]),
           "counts repeat exactly between two traced runs")

    shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
