"""End-to-end checks of the guarantees the package advertises.

Each test covers one guarantee and prints a single [PASS]/[FAIL] line with
the measured numbers, so a verbose run doubles as a checklist.  Tolerances
are pinned on purpose; loosening one is a behavior change, not a test fix.
"""

import importlib.resources

import numpy as np
import pytest

from conftest import kl_l1_bound_check, replay_residuals, trace_errors
from losem.cli import main
from losem.config import load_config
from losem.experiment import (
    Disc,
    NoiseSpec,
    PhantomSpec,
    add_poisson_noise,
    consistent_data,
    oracle_stopped_osem,
    realized_deltas,
    render_phantom,
    simulate_data,
)
from losem.kl_core import (
    PixelGrid,
    SinogramGrid,
    kl_distance,
    normalize_to_simplex,
    uniform_density,
    weighted_l1,
)
from losem.operators import RadonSystem
from losem.solvers import (
    SolverConfig,
    em_step,
    loping_osem_run,
    osem_run,
)

TWO_DISCS = PhantomSpec((Disc(0.0, 0.0, 0.4, 1.0), Disc(0.45, 0.3, 0.18, 2.0)))

# the bundled ten-block run: 100x100 pixels, 100 angles, five discs,
# five percent Poisson noise, calibrated explicit gamma
CALIBRATED = load_config(
    importlib.resources.files("losem") / "configs" / "loping_n10.cfg"
)

NOISE_SEEDS = range(10)
TARGET_ERROR = 0.022          # ground-truth KL a well-stopped run reaches here
ERROR_BAND = (TARGET_ERROR / 3.0, TARGET_ERROR * 3.0)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def exact_runs():
    """25 exact-data cycles at 64x64 with 60 angles, for 1, 5 and 10 blocks."""
    pixel = PixelGrid(64, 2.0 / 64.0)
    x_star = render_phantom(TWO_DISCS, pixel)
    x0 = uniform_density(pixel)
    out = {}
    for n in (1, 5, 10):
        system = RadonSystem(pixel, SinogramGrid(n, 60 // n, 64), 0.01, 1)
        data = consistent_data(x_star, system)
        _, trace = osem_run(x0, system, data, cycles=25, x_star=x_star)
        out[n] = x0, system, data, trace
    return out


@pytest.fixture(scope="module")
def noisy_runs():
    """Loping and oracle runs of the bundled setup over ten noise seeds."""
    cfg = CALIBRATED
    system = cfg.build_system()
    x_star = render_phantom(cfg.phantom, system.pixel_grid)
    x0 = uniform_density(system.pixel_grid)
    clean = simulate_data(cfg.phantom, system, cfg.oversample)
    w = system.sino_grid.sample_weight
    results = []
    for seed in NOISE_SEEDS:
        noisy, _ = add_poisson_noise(clean, w, NoiseSpec(cfg.noise_level, seed=seed))
        data = system.shift_data(noisy)
        solver = SolverConfig(
            tau=cfg.tau, gamma=cfg.gamma,
            delta=system.shifted_deltas(realized_deltas(clean, noisy, w)),
            max_cycles=cfg.max_cycles,
        )
        _, trace, report = loping_osem_run(
            x0, system, data, solver, x_star=x_star
        )
        oracle = oracle_stopped_osem(x0, system, data, x_star, max_cycles=25)
        results.append({"seed": seed, "trace": trace, "report": report,
                        "oracle": oracle})
    return results


# ---------------------------------------------------------------------------
# criteria


def test_01_kl_distance_properties():
    rng = np.random.default_rng(20260815)
    min_d = np.inf
    bound_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        w = rng.uniform(0.1, 2.0, n)
        v = normalize_to_simplex(rng.uniform(0.01, 1.0, n), w)
        u = normalize_to_simplex(rng.uniform(0.01, 1.0, n), w)
        d = kl_distance(v, u, w)
        min_d = min(min_d, d)
        if kl_distance(v, v, w) > 1e-12:
            min_d = -np.inf
        bound_ok = bound_ok and kl_l1_bound_check(v, u, w, slack=1e-10)
    ok = min_d >= -1e-12 and bound_ok
    verdict(
        "01 divergence is nonnegative and dominates squared L1 distance",
        ok, f"min divergence {min_d:.3e} over 1000 seeded simplex pairs",
    )


def test_02_shifted_backprojection_of_ones():
    pixel = PixelGrid(100, 2.0 / 100.0)
    worst = 0.0
    outside_clean = True
    for n in (1, 5, 10, 20):
        system = RadonSystem(pixel, SinogramGrid(n, 100 // n, 100), 0.01, 1)
        for j in range(n):
            a = system.adjoint(np.ones(system.sino_grid.block_shape), j)
            worst = max(worst, float(np.max(np.abs(a[pixel.mask] - 1.0))))
            outside_clean = outside_clean and bool(np.all(a[~pixel.mask] == 0.0))
    ok = worst <= 5e-14 and outside_clean
    verdict(
        "02 every shifted block adjoint maps ones to ones",
        ok, f"max deviation {worst:.3e} over 1, 5, 10, 20 blocks (atol 5e-14)",
    )


def test_03_exact_data_error_decreases_every_step(exact_runs):
    worst_inc = -np.inf
    worst_res = -np.inf
    for x0, system, data, trace in exact_runs.values():
        worst_inc = max(worst_inc, float(np.max(np.diff(trace_errors(trace)))))
        before, after = replay_residuals(x0, system, data, trace)
        worst_res = max(worst_res, float(np.max(after - before)))
    ok = worst_inc <= 1e-10 and worst_res <= 1e-10
    verdict(
        "03 exact data: ground-truth error and block residual fall each step",
        ok, f"max error increase {worst_inc:.3e}, max residual increase "
            f"{worst_res:.3e} over 25 cycles at 1, 5, 10 blocks",
    )


def test_04_exact_data_residuals_fall_tenfold(exact_runs):
    worst = 0.0
    for n, (*_, trace) in exact_runs.items():
        res = np.asarray(trace.residual)
        blocks = np.asarray(trace.block)
        for j in range(n):
            r = res[blocks == j]
            worst = max(worst, float(r[-1] / r[0]))
    ok = worst <= 0.10
    verdict(
        "04 exact data: 25 cycles cut every block residual by at least 10x",
        ok, f"worst final/first residual ratio {worst:.4f} (cap 0.10)",
    )


def test_05_block_splitting_accelerates_early_cycles():
    pixel = PixelGrid(100, 2.0 / 100.0)
    x_star = render_phantom(TWO_DISCS, pixel)
    x0 = uniform_density(pixel)
    em_sys = RadonSystem(pixel, SinogramGrid(1, 100, 100), 0.01, 1)
    _, em_trace = osem_run(
        x0, em_sys, consistent_data(x_star, em_sys), cycles=3, x_star=x_star
    )
    os_sys = RadonSystem(pixel, SinogramGrid(5, 20, 100), 0.01, 1)
    _, os_trace = osem_run(
        x0, os_sys, consistent_data(x_star, os_sys), cycles=1, x_star=x_star
    )
    ok = os_trace.final_error < em_trace.final_error
    verdict(
        "05 one cycle over five blocks beats three unsplit cycles",
        ok, f"split error {os_trace.final_error:.4f} < unsplit {em_trace.final_error:.4f}",
    )


def test_06_loping_stop_certificate(noisy_runs):
    report = noisy_runs[0]["report"]
    checks = {
        "stopped by rule": report.stopped_by_rule,
        "before cycle cap": report.cycles < CALIBRATED.max_cycles,
        "stop index on a cycle boundary": report.k_star is not None
        and report.k_star % 10 == 0,
        "final residuals under thresholds": bool(
            np.all(report.final_residuals <= report.thresholds)
        ),
        "stop index within bound": report.k_star is not None
        and report.k_star <= report.step_bound,
    }
    failed = [k for k, v in checks.items() if not v]
    verdict(
        "06 noisy run stops itself and certifies the stop",
        not failed,
        f"k*={report.k_star}, cycles={report.cycles}, "
        f"bound={report.step_bound:.0f}"
        + (f", failed: {', '.join(failed)}" if failed else ""),
    )


def test_07_loping_accuracy_across_seeds(noisy_runs):
    lo, hi = ERROR_BAND
    good = 0
    details = []
    for r in noisy_runs:
        cycles = r["report"].cycles
        err = r["trace"].final_error
        o_err = float(r["oracle"].errors[r["oracle"].best_cycle])
        ok = (
            2 <= cycles <= 10
            and lo <= err <= hi
            and 2 <= r["oracle"].best_cycle <= 6
            and lo <= o_err <= hi
        )
        good += ok
        details.append(f"s{r['seed']}:{cycles}cyc/{err:.4f}")
    verdict(
        "07 automatic stop lands in the oracle's accuracy band (8+ of 10 seeds)",
        good >= 8, f"{good}/10 seeds ok; " + " ".join(details),
    )


def test_08_noisy_iteration_semi_converges(noisy_runs):
    good = 0
    ratios = []
    for r in noisy_runs:
        errs = r["oracle"].errors
        ratio = float(errs[25] / np.min(errs[1:]))
        ratios.append(ratio)
        good += ratio >= 1.2
    verdict(
        "08 running past the best cycle degrades the noisy reconstruction",
        good >= 8,
        f"{good}/10 seeds with cycle-25/best error ratio >= 1.2; "
        f"ratios {', '.join(f'{x:.2f}' for x in ratios)}",
    )


def test_09_degenerate_cases_reduce_bitwise(identity_system):
    pixel = PixelGrid(32, 2.0 / 32.0)
    x_star = render_phantom(TWO_DISCS, pixel)
    x0 = uniform_density(pixel)

    system = RadonSystem(pixel, SinogramGrid(4, 8, 32), 0.01, 1)
    data = consistent_data(x_star, system)
    plain, _ = osem_run(x0, system, data, cycles=5)
    solver = SolverConfig(tau=1.5, max_cycles=5)
    loping, _, report = loping_osem_run(x0, system, data, solver)
    zero_delta_ok = np.array_equal(plain, loping) and report.k_star is None

    em_sys = RadonSystem(pixel, SinogramGrid(1, 32, 32), 0.01, 1)
    em_data = consistent_data(x_star, em_sys)
    stepped = x0
    for _ in range(4):
        stepped = em_step(stepped, em_sys, 0, em_data[0])
    cyclic, _ = osem_run(x0, em_sys, em_data, cycles=4)
    single_block_ok = np.array_equal(stepped, cyclic)

    y = np.array([0.5, 1.5])
    one_step = em_step(np.array([1.0, 1.0]), identity_system, 0, y)
    identity_ok = np.array_equal(one_step, y)

    ok = zero_delta_ok and single_block_ok and identity_ok
    verdict(
        "09 zero noise bound, one block and identity kernel all reduce exactly",
        ok, f"zero-delta bitwise {zero_delta_ok}, one-block bitwise "
            f"{single_block_ok}, identity one-step {identity_ok}",
    )


def test_10_simulated_data_matches_closed_form():
    R = 0.6
    pixel = PixelGrid(200, 2.0 / 200.0)
    sino = SinogramGrid(1, 8, 200)
    system = RadonSystem(pixel, sino, 0.01, 1)
    block = simulate_data(PhantomSpec((Disc(0.0, 0.0, R, 1.0),)), system, 4)[0]

    # arc of the circle of radius r around a boundary point inside the disc
    r = sino.radii[1:]
    alpha = np.arccos(np.clip((1.0 + r * r - R * R) / (2.0 * r), -1.0, 1.0))
    closed = np.zeros(sino.block_shape)
    closed[:, 1:] = r * alpha
    closed = normalize_to_simplex(closed, sino.sample_weight)

    rel = weighted_l1(block, closed, sino.sample_weight)
    verdict(
        "10 oversampled simulation reproduces the centered-disc closed form",
        rel <= 0.02, f"relative L1 mismatch {rel:.5f} (cap 0.02)",
    )


def test_11_command_line_runs_are_reproducible(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode = loping-osem\nn_t = 32\nn_r = 32\nn_angle = 32\nn_blocks = 4\n"
        "K = 1\nlambda = 0.01\nnoise_level = 0.05\nseed = 3\noversample = 1\n"
        "tau = 1.5\ngamma_mode = explicit\ngamma = 0.045\nmax_cycles = 30\n"
        "disc = 0.0 0.0 0.4 1.0\ndisc = 0.45 0.3 0.18 2.0\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        outs.append((out / "trace.csv").read_bytes())
    trace_ok = outs[0] == outs[1]

    cmp_cfg = tmp_path / "cmp.cfg"
    cmp_cfg.write_text(
        cfg.read_text().replace("mode = loping-osem", "mode = compare")
        .replace("max_cycles = 30", "max_cycles = 10")
        + "compare_subsets = 2 4\n"
    )
    tables = []
    for name in ("ca", "cb"):
        out = tmp_path / name
        assert main(["run", str(cmp_cfg), "--out", str(out), "--quiet"]) == 0
        rows = (out / "table.csv").read_text().splitlines()
        tables.append([",".join(p if i != 3 else "-" for i, p in
                                enumerate(line.split(","))) for line in rows])
    table_ok = tables[0] == tables[1] and len(tables[0]) == 5
    # (method, N) -> (cycles, final_kl_error) of this seed-3 comparison
    golden = {
        ("loping-osem", "2"): (10, 0.07769491571017148),
        ("oracle-osem", "2"): (10, 0.07769491571017148),
        ("loping-osem", "4"): (8, 0.0596295328998699),
        ("oracle-osem", "4"): (10, 0.04386236480801024),
    }
    got = {}
    for line in tables[0][1:]:
        method, n, cycles, _, err = line.split(",")
        got[(method, n)] = (int(cycles), float(err))
    golden_ok = got.keys() == golden.keys() and all(
        got[k][0] == c and got[k][1] == pytest.approx(e, rel=1e-9)
        for k, (c, e) in golden.items()
    )
    verdict(
        "11 repeated runs are byte-identical apart from wall time",
        trace_ok and table_ok and golden_ok,
        f"trace bytes equal {trace_ok}, comparison table equal {table_ok}, "
        f"table matches golden values {golden_ok}",
    )
