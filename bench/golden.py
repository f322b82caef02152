"""Correctness gate: a run's artifacts against golden values.

The gate reads ``summary.txt``, every ``stop_report*.txt`` and ``table.csv``
from a run's output directory.  Where golden values exist for the workload
and seed, integers must match exactly and floats within ``REL_TOL``.  Every
stop report present must carry the stop certificate: ``stopped_by_rule=true``
and each final residual at or below its threshold.  A seed without golden
values is checked by the certificate alone, so its run must write at least
one stop report.
"""

from __future__ import annotations

from pathlib import Path

# One performed step moves the ground-truth KL error by at least 0.6%
# relative in the seed-0 traces of the bundled configs, so 1e-9 catches a
# single changed step and leaves room only for last-digit differences
# between numpy builds.
REL_TOL = 1e-9

# (workload, seed) -> expected values; seed None means any seed, for
# exact-data workloads whose inputs do not depend on the seed.
GOLDEN = {
    ("em-exact-64", None): {
        "cycles_run": 25,
        "final_kl_error": 0.13617457176662007,
    },
    ("compare-oracle", 0): {
        "loping-osem/10/cycles": 6,
        "loping-osem/10/final_kl_error": 0.057467874509784064,
        "oracle-osem/10/cycles": 6,
        "oracle-osem/10/final_kl_error": 0.05529729159039605,
        "loping-osem/20/cycles": 4,
        "loping-osem/20/final_kl_error": 0.054463704564911605,
        "oracle-osem/20/cycles": 2,
        "oracle-osem/20/final_kl_error": 0.05423878379520146,
    },
}


def expected_for(workload: str, seed: int) -> dict | None:
    return GOLDEN.get((workload, seed), GOLDEN.get((workload, None)))


def _key_values(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_results(out_dir: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Flat results of a run, and its stop reports.

    Results hold the keys of ``summary.txt``, those of ``stop_report.txt``
    (which win) and, per row of ``table.csv``, ``<method>/<N>/<column>``.
    """
    results: dict[str, str] = {}
    summary = out_dir / "summary.txt"
    if summary.is_file():
        results.update(_key_values(summary))
    table = out_dir / "table.csv"
    if table.is_file():
        header, *rows = table.read_text().splitlines()
        columns = header.split(",")
        for row in rows:
            fields = dict(zip(columns, row.split(",")))
            for column, value in fields.items():
                results[f"{fields['method']}/{fields['N']}/{column}"] = value
    reports = [_key_values(p) for p in sorted(out_dir.glob("stop_report*.txt"))]
    single = out_dir / "stop_report.txt"
    if single.is_file():
        results.update(_key_values(single))
    return results, reports


def final_kl_error(results: dict[str, str]) -> float:
    """The run's ground-truth error; for a table, its worst loping row."""
    if "final_kl_error" in results:
        return float(results["final_kl_error"])
    loping = [float(v) for k, v in results.items()
              if k.startswith("loping-osem/") and k.endswith("/final_kl_error")]
    if not loping:
        raise ValueError("run reported no final KL error")
    return max(loping)


def _matches(expected, text: str) -> bool:
    try:
        if isinstance(expected, int):
            return int(text) == expected
        return abs(float(text) - expected) <= REL_TOL * abs(expected)
    except ValueError:
        return False


def check(out_dir: Path, expected: dict | None) -> tuple[list[str], float | None]:
    """Problems with a finished run's artifacts (empty when it passes), and
    the run's final KL error."""
    results, reports = read_results(out_dir)
    problems = []
    for key, want in (expected or {}).items():
        got = results.get(key)
        if got is None or not _matches(want, got):
            problems.append(f"{key}: got {got}, golden {want!r}")
    if expected is None and not reports:
        problems.append("no golden values for this seed and no stop report to certify")
    for i, report in enumerate(reports):
        if report.get("stopped_by_rule") != "true":
            problems.append(f"stop report {i}: stopped_by_rule is not true")
        j = 0
        while f"final_residual_{j}" in report:
            res = float(report[f"final_residual_{j}"])
            thr = float(report[f"threshold_{j}"])
            if not res <= thr:
                problems.append(f"stop report {i}: residual {j} {res!r} > threshold {thr!r}")
            j += 1
        if j == 0:
            problems.append(f"stop report {i}: no final residuals")
    try:
        error = final_kl_error(results)
    except ValueError as e:
        problems.append(str(e))
        error = None
    return problems, error
