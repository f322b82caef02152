import contextlib
import importlib.resources
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losem.cli import main
from losem.config import (
    GAMMA_MODES,
    MODES,
    TAU_MODES,
    ConfigError,
    load_config,
    parse_config_text,
    parse_phantom_file,
)
from losem.kl_core import load_matrix_csv

BASE = """
mode = loping-osem
n_t = 32
n_r = 32
n_angle = 32
n_blocks = 4
K = 1
lambda = 0.01
noise_level = 0.05
seed = 1
oversample = 1
tau = 1.5
gamma_mode = explicit
gamma = 0.045
max_cycles = 30
disc = 0.0 0.0 0.4 1.0
disc = 0.45 0.3 0.18 2.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# parsing


def test_parse_roundtrip_of_base_config():
    cfg = parse_config_text(BASE, "<test>")
    assert cfg.mode == "loping-osem"
    assert cfg.n_phi == 8 and cfg.n_blocks == 4 and cfg.n_angle == 32
    assert cfg.K == 1 and cfg.epsilon == pytest.approx(2.0 / 32.0)
    assert cfg.gamma == pytest.approx(0.045)
    assert len(cfg.phantom.discs) == 2


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"<x>:3: unknown key 'frob'"):
        parse_config_text("mode = em\nn_t = 8\nfrob = 1\n", "<x>")


def test_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError, match="duplicate key 'n_t'"):
        parse_config_text("n_t = 8\nn_t = 9\n", "<x>")
    with pytest.raises(ConfigError, match=r"<x>:1: expected 'key = value'"):
        parse_config_text("what is this\n", "<x>")
    with pytest.raises(ConfigError, match=r"<x>:2: bad value for 'n_t'"):
        parse_config_text("mode = em\nn_t = eight\n", "<x>")


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required key 'mode'"):
        parse_config_text("n_t = 8\n", "<x>")
    with pytest.raises(ConfigError, match="'n_angle' or 'n_phi'"):
        parse_config_text(
            "mode = em\nn_t = 8\nn_r = 8\ndisc = 0 0 0.3 1\n", "<x>"
        )


def test_angle_block_divisibility():
    bad = BASE.replace("n_angle = 32", "n_angle = 30")
    with pytest.raises(ConfigError, match="not divisible"):
        parse_config_text(bad, "<x>")
    both = BASE.replace("n_angle = 32", "n_angle = 32\nn_phi = 8")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_text(both, "<x>")


def test_epsilon_and_kernel_width_tied():
    # epsilon alone must be a whole half-width
    cfg = parse_config_text(BASE.replace("K = 1", "epsilon = 0.0625"), "<x>")
    assert cfg.K == 1
    with pytest.raises(ConfigError, match="integer half-width"):
        parse_config_text(BASE.replace("K = 1", "epsilon = 0.07"), "<x>")
    # both given: margin must cover the kernel
    with pytest.raises(ConfigError, match="smaller than the smoothing"):
        parse_config_text(BASE.replace("K = 1", "K = 2\nepsilon = 0.0625"), "<x>")
    ok = parse_config_text(BASE.replace("K = 1", "K = 1\nepsilon = 0.125"), "<x>")
    assert ok.epsilon == pytest.approx(0.125) and ok.K == 1


def test_phantom_sources_are_exclusive(tmp_path):
    with pytest.raises(ConfigError, match="no phantom"):
        parse_config_text(BASE.replace("disc = 0.0 0.0 0.4 1.0", "")
                          .replace("disc = 0.45 0.3 0.18 2.0", ""), "<x>")
    ph = tmp_path / "ph.txt"
    ph.write_text("0 0 0.3 1\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(BASE + f"phantom = {ph}\n", "<x>")


def test_phantom_file_parsing(tmp_path):
    ph = tmp_path / "ph.txt"
    ph.write_text("# a comment\n0 0 0.3 1\n0.2, 0.1, 0.1, 2.0\n")
    spec = parse_phantom_file(ph)
    assert len(spec.discs) == 2 and spec.discs[1].amplitude == 2.0
    ph.write_text("0 0 0.3\n")
    with pytest.raises(ConfigError, match=r"ph.txt:1"):
        parse_phantom_file(ph)
    ph.write_text("# nothing\n")
    with pytest.raises(ConfigError, match="no discs"):
        parse_phantom_file(ph)


def test_phantom_path_resolved_relative_to_config(tmp_path):
    (tmp_path / "ph.txt").write_text("0 0 0.3 1\n")
    cfg_path = write_cfg(
        tmp_path,
        BASE.replace("disc = 0.0 0.0 0.4 1.0", "phantom = ph.txt")
        .replace("disc = 0.45 0.3 0.18 2.0", ""),
    )
    cfg = load_config(cfg_path)
    assert len(cfg.phantom.discs) == 1


def test_compare_subset_validation():
    cmp_base = BASE.replace("mode = loping-osem", "mode = compare")
    with pytest.raises(ConfigError, match="compare_subsets"):
        parse_config_text(cmp_base, "<x>")
    with pytest.raises(ConfigError, match="does not divide"):
        parse_config_text(cmp_base + "compare_subsets = 3\n", "<x>")
    cfg = parse_config_text(cmp_base + "compare_subsets = 2, 4\n", "<x>")
    assert cfg.compare_subsets == (2, 4)


def test_lambda_zero_parses_but_cannot_build():
    cfg = parse_config_text(BASE.replace("lambda = 0.01", "lambda = 0"), "<x>")
    assert cfg.lam == 0.0
    with pytest.raises(ConfigError, match="lambda must be positive"):
        cfg.build_system()


def test_gamma_mode_validation():
    with pytest.raises(ConfigError, match="gamma_mode must be one of"):
        parse_config_text(BASE.replace("gamma_mode = explicit", "gamma_mode = nope"),
                          "<x>")
    with pytest.raises(ConfigError, match="explicit requires a positive gamma"):
        parse_config_text(BASE.replace("gamma = 0.045\n", ""), "<x>")


NUMERIC_KEYS = (
    "n_t", "n_r", "n_angle", "n_phi", "n_blocks", "K", "oversample",
    "max_cycles", "cycles", "seed", "max_sim_nodes",
    "epsilon", "lambda", "tau", "gamma", "noise_level", "counts_scale",
)


def _with_values(text, values):
    """``text`` with the lines of the given keys replaced by new values."""
    lines = [ln for ln in text.splitlines() if ln.split("=")[0].strip() not in values]
    lines += [
        f"{k} = {v if isinstance(v, str) else repr(v)}" for k, v in values.items()
    ]
    return "\n".join(lines) + "\n"


@given(
    st.dictionaries(
        st.sampled_from(NUMERIC_KEYS),
        st.one_of(
            st.integers(-4, 4), st.integers(),
            st.sampled_from([0.0, math.nan, math.inf, -math.inf]), st.floats(),
        ),
        min_size=1, max_size=3,
    ),
    st.sampled_from(MODES), st.sampled_from(TAU_MODES), st.sampled_from(GAMMA_MODES),
)
@settings(max_examples=300, deadline=None)
def test_any_numeric_value_parses_or_is_a_config_error(values, mode, tau_mode,
                                                       gamma_mode):
    modes = {"mode": mode, "tau_mode": tau_mode, "gamma_mode": gamma_mode}
    text = _with_values(BASE + "compare_subsets = 2 4\n", {**values, **modes})
    try:
        cfg = parse_config_text(text, "<x>")
    except ConfigError:
        return
    # a config that parses builds the objects that read its values
    if cfg.noise_level != 0.0:
        cfg.noise_spec()
    cfg.solver_config(cfg.n_blocks, cfg.gamma if gamma_mode == "explicit" else None)


def test_resolved_tau_schedule():
    cfg = parse_config_text(BASE + "tau_mode = scheduled\n", "<x>")
    assert cfg.resolved_tau() == pytest.approx(1.5 / (1 + 25 / 1.5 * 0.05))
    fixed = parse_config_text(BASE, "<x>")
    assert fixed.resolved_tau() == 1.5


def test_bundled_configs_parse():
    root = importlib.resources.files("losem") / "configs"
    for name in ("exact_em_64.cfg", "loping_n10.cfg", "compare_table.cfg"):
        cfg = load_config(root / name)
        assert cfg.phantom is not None


# ---------------------------------------------------------------------------
# command line, in process


def test_run_loping_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    for name in (
        "trace.csv", "stop_report.txt", "reconstruction.pgm",
        "reconstruction.scale", "reconstruction.csv", "phantom.pgm",
        "sinogram.pgm", "data.csv", "noise_meta.txt", "summary.txt",
    ):
        assert (out / name).exists(), name
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "step,cycle,block,performed,residual,step_kl,error_kl"
    assert "k_star=" in (out / "stop_report.txt").read_text()
    assert "algorithm=numpy-philox" in (out / "noise_meta.txt").read_text()
    recon = load_matrix_csv(out / "reconstruction.csv")
    assert recon.shape == (33, 33)
    assert np.all(recon >= 0.0)


def test_run_is_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(a), "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(b), "--quiet"]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()


def test_run_exact_em(tmp_path):
    text = (
        BASE.replace("mode = loping-osem", "mode = em")
        .replace("n_blocks = 4", "n_blocks = 1")
        .replace("noise_level = 0.05", "noise_level = 0")
        + "cycles = 3\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert not (out / "stop_report.txt").exists()
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 3  # header + one block * three cycles
    assert "noise=none" in (out / "noise_meta.txt").read_text()


# rules checked when the config loads, before anything is printed or written
@pytest.mark.parametrize("command", ["run", "verify", "phantom"])
@pytest.mark.parametrize("text", [
    BASE.replace("mode = loping-osem", "mode = em"),
    BASE.replace("mode = loping-osem", "mode = compare")
    .replace("noise_level = 0.05", "noise_level = 0") + "compare_subsets = 2 4\n",
    BASE + "max_sim_nodes = 100\n",
], ids=["em-with-4-blocks", "compare-on-exact-data", "simulation-over-node-cap"])
def test_mode_rules_hold_for_every_command(tmp_path, capsys, text, command):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


def test_run_compare_writes_table(tmp_path):
    text = (
        BASE.replace("mode = loping-osem", "mode = compare")
        .replace("max_cycles = 30", "max_cycles = 10")
        + "compare_subsets = 2 4\n"
    )
    cfg = write_cfg(tmp_path, text)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(a), "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(b), "--quiet"]) == 0
    rows = (a / "table.csv").read_text().splitlines()
    assert rows[0] == "method,N,cycles,wall_seconds,final_kl_error"
    assert len(rows) == 5
    methods = [r.split(",")[0] for r in rows[1:]]
    assert methods == ["loping-osem", "oracle-osem"] * 2
    for n, fname in ((2, "trace_loping_N2.csv"), (4, "trace_loping_N4.csv")):
        assert (a / fname).exists()

    def strip_wall(path):
        out = []
        for line in path.read_text().splitlines():
            parts = line.split(",")
            parts[3] = "-"
            out.append(",".join(parts))
        return out

    assert strip_wall(a / "table.csv") == strip_wall(b / "table.csv")


def test_compare_rejects_lambda_before_simulating(tmp_path, capsys):
    text = (
        BASE.replace("mode = loping-osem", "mode = compare")
        .replace("lambda = 0.01", "lambda = 0")
        + "compare_subsets = 2 4\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "lambda must be positive" in captured.err
    assert list(out.iterdir()) == []


def test_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, "mode = em\nfrob = 1\n", "bad.cfg")
    assert main(["run", str(bad), "--quiet"]) == 2
    lam0 = write_cfg(tmp_path, BASE.replace("lambda = 0.01", "lambda = 0"), "l0.cfg")
    assert main(["run", str(lam0), "--quiet", "--out", str(tmp_path / "o")]) == 2
    assert main(["verify", str(lam0), "--quiet"]) == 3
    # finite, but 1 + lambda*b overflows and the kernel floor vanishes
    huge = write_cfg(tmp_path, BASE.replace("lambda = 0.01", "lambda = 1e308"), "lh.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(huge), "--quiet", "--out", str(tmp_path / "h")]) == 2
    capsys.readouterr()
    assert main(["verify", str(huge), "--quiet"]) == 3
    assert "kernel_floor_m=0.0" in capsys.readouterr().out
    missing = tmp_path / "nope.cfg"
    assert main(["run", str(missing), "--quiet"]) == 2


@pytest.mark.parametrize("old,new", [
    ("n_r = 32", "n_r = 0"),
    ("K = 1", "epsilon = inf"),
    ("K = 1", "epsilon = nan"),
    ("tau = 1.5", "tau = nan"),
    ("gamma = 0.045", "gamma = nan"),
    ("gamma = 0.045", "gamma = inf"),
    ("lambda = 0.01", "lambda = inf"),
])
def test_unusable_values_are_config_errors(tmp_path, capsys, old, new):
    cfg = write_cfg(tmp_path, BASE.replace(old, new))
    assert main(["run", str(cfg), "--quiet", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(cfg), "--quiet", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err and "Traceback" not in err


def test_lost_signal_is_a_numerical_failure(tmp_path, capsys):
    # at this counts scale every Poisson draw is zero, so no data survives
    cfg = write_cfg(tmp_path, BASE + "counts_scale = 1e-6\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 4
    assert (out / "FAILED").exists()
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


# a tiny noisy run whose noise calibration cannot reach its target
UNCALIBRATED = """
mode = loping-osem
n_t = 8
n_r = 8
n_angle = 4
n_blocks = 2
K = 1
lambda = 0.01
noise_level = 0.5
seed = 0
oversample = 1
gamma_mode = explicit
gamma = 0.045
max_cycles = 5
disc = 0.0 0.0 0.4 1.0
"""


@pytest.mark.parametrize("text", [
    UNCALIBRATED,
    _with_values(UNCALIBRATED, {"n_t": 4, "n_r": 4, "noise_level": 0.95, "seed": 1}),
], ids=["8x8", "4x4"])
def test_failed_noise_calibration_is_a_numerical_failure(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 4
    assert (out / "FAILED").exists()
    assert main(["verify", str(cfg), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err.count("numerical failure: noise target") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value,message", [
    ("oversample", 0, "oversample must be >= 1"),
    ("max_sim_nodes", 100, "exceeding the cap"),
])
def test_only_simulated_data_check_the_simulation_grid(key, value, message):
    exact = BASE.replace("noise_level = 0.05", "noise_level = 0")
    parse_config_text(_with_values(exact, {key: value}), "<x>")
    with pytest.raises(ConfigError, match=message):
        parse_config_text(_with_values(BASE, {key: value}), "<x>")


@given(
    st.fixed_dictionaries({
        "mode": st.sampled_from(MODES),
        "tau_mode": st.sampled_from(TAU_MODES),
        "gamma_mode": st.sampled_from(GAMMA_MODES),
        "n_t": st.integers(2, 8),
        "n_r": st.integers(2, 8),
        "n_angle": st.sampled_from([4, 8]),
        "n_blocks": st.sampled_from([1, 2, 4]),
        "lambda": st.one_of(
            st.sampled_from([0.0, 1e308]), st.floats(0.0, 1e308), st.floats(1e-3, 1.0)
        ),
        "noise_level": st.one_of(
            st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        ),
        "seed": st.integers(0, 3),
        "oversample": st.integers(1, 2),
        "disc": st.floats(0.05, 0.45).map(lambda r: f"0.0 0.0 {r!r} 1.0"),
    }),
)
@example({  # UNCALIBRATED itself
    "mode": "loping-osem", "tau_mode": "fixed", "gamma_mode": "explicit",
    "n_t": 8, "n_r": 8, "n_angle": 4, "n_blocks": 2, "lambda": 0.01,
    "noise_level": 0.5, "seed": 0, "oversample": 1, "disc": "0.0 0.0 0.4 1.0",
})
@example({  # a noise level no finite counts scale reaches
    "mode": "loping-osem", "tau_mode": "fixed", "gamma_mode": "explicit",
    "n_t": 8, "n_r": 8, "n_angle": 4, "n_blocks": 2, "lambda": 0.01,
    "noise_level": 5e-324, "seed": 0, "oversample": 1, "disc": "0.0 0.0 0.4 1.0",
})
@settings(max_examples=100, deadline=None)
def test_every_command_exits_with_a_documented_code(values):
    """Tiny configs through every command: exit 0, 2, 3 or 4, no traceback,
    and a FAILED marker exactly when ``run`` fails numerically."""
    text = _with_values(UNCALIBRATED + "compare_subsets = 1 2\ncycles = 2\n", values)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp), text)
        for command in ("run", "verify", "phantom"):
            out, err = Path(tmp) / command, io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, str(cfg), "--out", str(out), "--quiet"])
            assert code in (0, 2, 3, 4), (command, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert (out / "FAILED").exists() == (command == "run" and code == 4)


def test_verify_ok_and_warnings(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["verify", str(cfg), "--quiet"]) == 0
    text = capsys.readouterr().out
    assert "adjoint_of_ones_max_dev=0.0" in text
    assert "gamma_bounds=" in text
    assert "verify: ok" in text
    exact = write_cfg(
        tmp_path, BASE.replace("noise_level = 0.05", "noise_level = 0"), "e.cfg"
    )
    assert main(["verify", str(exact), "--quiet"]) == 0
    text = capsys.readouterr().out
    assert "exact data" in text


def test_phantom_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "ph"
    assert main(["phantom", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "phantom.pgm").exists()
    assert (out / "phantom.csv").exists()
    assert (out / "phantom.scale").exists()


def _summary(path):
    return dict(
        line.split("=", 1) for line in path.read_text().splitlines() if "=" in line
    )


# seed-0 results of the bundled configs; floats at the tolerance of the
# benchmark's golden gate, which catches a single changed solver step
GOLDEN_RUNS = {
    "exact_em_64.cfg": {"cycles_run": 25, "final_kl_error": 0.13617457176662007},
    "loping_n10.cfg": {
        "k_star": 50, "cycles_run": 6, "final_kl_error": 0.05830524873768009,
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_bundled_runs_match_golden_values(tmp_path, name):
    cfg = importlib.resources.files("losem") / "configs" / name
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--seed", "0", "--out", str(out), "--quiet"]) == 0
    summary = _summary(out / "summary.txt")
    for key, want in GOLDEN_RUNS[name].items():
        if isinstance(want, int):
            assert int(summary[key]) == want, key
        else:
            assert float(summary[key]) == pytest.approx(want, rel=1e-9), key


def test_seed_override_changes_noise(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(a), "--seed", "1", "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(b), "--seed", "2", "--quiet"]) == 0
    assert (a / "data.csv").read_bytes() != (b / "data.csv").read_bytes()
