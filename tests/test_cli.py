import contextlib
import importlib.resources
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_matrix_csv
import losem
from losem import cli, operators
from losem.cli import main
from losem.config import (
    GAMMA_MODES,
    MODES,
    ConfigError,
    load_config,
    parse_config_text,
    parse_phantom_file,
)

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
    assert cfg.sino_grid().n_phi == 8 and cfg.n_blocks == 4 and cfg.n_angle == 32
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


def test_n_phi_gives_the_angles_of_one_block():
    # 8 angles on each of 4 blocks are BASE's n_angle = 32
    per_block = parse_config_text(BASE.replace("n_angle = 32", "n_phi = 8"), "<x>")
    assert per_block == parse_config_text(BASE, "<x>")


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


def test_without_k_and_epsilon_the_kernel_is_the_identity():
    # K = 1, and the margin 2K/n_r follows from it
    cfg = parse_config_text(BASE.replace("K = 1\n", ""), "<x>")
    assert cfg == parse_config_text(BASE, "<x>")
    assert cfg.K == 1 and cfg.epsilon == 2.0 / 32.0


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
    with pytest.raises(ConfigError, match="repeats a block count"):
        parse_config_text(cmp_base + "compare_subsets = 2 2\n", "<x>")
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
    st.sampled_from(MODES), st.sampled_from(GAMMA_MODES),
)
@settings(max_examples=300, deadline=None)
def test_any_numeric_value_parses_or_is_a_config_error(values, mode, gamma_mode):
    modes = {"mode": mode, "gamma_mode": gamma_mode}
    text = _with_values(BASE + "compare_subsets = 2 4\n", {**values, **modes})
    try:
        cfg = parse_config_text(text, "<x>")
    except ConfigError:
        return
    # a config that parses builds the objects that read its values
    if cfg.noise_level != 0.0:
        cfg.noise_spec()
    cfg.solver_config(cfg.gamma if gamma_mode == "explicit" else None)


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
    assert header == "step,cycle,block,performed,residual,step_kl,error_kl,drift"
    assert "k_star=" in (out / "stop_report.txt").read_text()
    assert "algorithm=numpy-philox" in (out / "noise_meta.txt").read_text()
    recon = load_matrix_csv(out / "reconstruction.csv")
    assert recon.shape == (33, 33)
    assert np.all(recon >= 0.0)
    # every key=value line holds a float or a word, whatever numpy's version
    words = {*MODES, "true", "false", "max_cycles_reached", "numpy-philox"}
    for name in ("noise_meta.txt", "stop_report.txt", "summary.txt"):
        for key, value in _summary(out / name).items():
            if value not in words:
                float(value)


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


# rules checked when the config loads, before anything is printed or written
@pytest.mark.parametrize("command", ["run", "verify", "phantom"])
@pytest.mark.parametrize("text", [
    BASE.replace("mode = loping-osem", "mode = em"),
    BASE.replace("mode = loping-osem", "mode = compare")
    .replace("noise_level = 0.05", "noise_level = 0") + "compare_subsets = 2 4\n",
    BASE + "max_sim_nodes = 100\n",
    # domain radius 1/3, nearest node at distance 0.47
    "mode = osem\nn_t = 3\nn_r = 3\nn_angle = 4\nK = 1\nnoise_level = 0\n"
    "disc = 0 0 0.3 1\n",
    # the domain radius is 0.75
    _with_values(UNCALIBRATED, {"disc": "0.0 0.0 0.9 1.0"}),
    # no node of the 6x6 grid lies inside the disc; the simulation renders
    # on the oversampled grid only, where one does
    _with_values(UNCALIBRATED, {
        "mode": "compare", "n_t": 6, "n_r": 8, "n_angle": 8,
        "compare_subsets": "1 2", "noise_level": 0.05, "counts_scale": 1e6,
        "seed": 2, "oversample": 2, "disc": "0.35 0.49 0.07 1.0",
    }),
    # four disjoint discs whose mass overflows
    BASE.replace("disc = 0.0 0.0 0.4 1.0\ndisc = 0.45 0.3 0.18 2.0\n", "".join(
        f"disc = {cx} {cy} 0.3 1.7e308\n" for cx in (-0.32, 0.32) for cy in (-0.32, 0.32)
    )),
], ids=["em-with-4-blocks", "compare-on-exact-data", "simulation-over-node-cap",
        "empty-domain", "disc-leaves-domain", "no-node-in-a-disc", "mass-overflows"])
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


@pytest.mark.parametrize("text,calls", [
    (_with_values(BASE, {"mode": "em", "n_blocks": 1, "noise_level": 0, "cycles": 2}),
     {"osem_run": 1}),
    (_with_values(BASE, {"max_cycles": 3}), {"loping_osem_run": 1}),
    (_with_values(BASE, {"mode": "compare", "compare_subsets": "2 4", "max_cycles": 3}),
     {"loping_osem_run": 2, "oracle_stopped_osem": 2}),
], ids=["em", "loping-osem", "compare"])
def test_runs_reach_the_solvers_through_the_names_cli_binds(tmp_path, monkeypatch,
                                                            text, calls):
    # the benchmark times the solvers by rebinding these names in losem.cli,
    # and reads the system as the second positional argument; a run that
    # reached them another way would show no solver call to it
    seen = {}
    # a clock only the solver calls advance: each wall written must be the
    # seconds of its own call
    clock = [0.0]
    seconds = {"osem_run": 1.0, "loping_osem_run": 1.0, "oracle_stopped_osem": 2.0}
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            assert args[1].n_blocks >= 1
            seen[name] = seen.get(name, 0) + 1
            clock[0] += seconds[name]
            return fn(*args, **kwargs)
        return wrapper

    for name in seconds:
        monkeypatch.setattr(f"losem.cli.{name}", wrap(name, getattr(cli, name)))
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert seen == calls
    if "oracle_stopped_osem" in calls:
        rows = (out / "table.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["1.000", "2.000"] * 2
    else:
        assert "wall_seconds=1.000" in (out / "summary.txt").read_text().splitlines()


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


def test_a_value_error_in_a_command_is_a_bug(tmp_path, monkeypatch):
    # main maps ConfigError, AssumptionError and FloatingPointError to exit
    # codes; any other exception ends as a traceback
    def broken(*args):
        raise ValueError("a bug")

    monkeypatch.setattr("losem.cli.render_phantom", broken)
    cfg = write_cfg(tmp_path, BASE)
    with pytest.raises(ValueError, match="a bug"):
        main(["phantom", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])


@pytest.mark.parametrize("old,new", [
    ("n_r = 32", "n_r = 0"),
    ("K = 1", "epsilon = inf"),
    ("K = 1", "epsilon = nan"),
    ("tau = 1.5", "tau = nan"),
    ("gamma = 0.045", "gamma = nan"),
    ("gamma = 0.045", "gamma = inf"),
    ("lambda = 0.01", "lambda = inf"),
    ("mode = loping-osem", "mode = bogus"),
    ("tau = 1.5", "tau_mode = bogus"),
    ("tau = 1.5", "tau_mode = scheduled"),
    ("gamma_mode = explicit", "gamma_mode = l2"),
    ("mode = loping-osem", "mode = compare\ncompare_subsets = 0"),
    ("disc = 0.0 0.0 0.4 1.0", "disc = 0.0 0.0 -0.4 1.0"),
    ("disc = 0.0 0.0 0.4 1.0\ndisc = 0.45 0.3 0.18 2.0", "phantom = missing.txt"),
    # the block count divides zero angles, and SinogramGrid needs n_phi >= 1
    ("n_angle = 32", "n_angle = 0"),
])
def test_unusable_values_are_config_errors(tmp_path, capsys, old, new):
    cfg = write_cfg(tmp_path, BASE.replace(old, new))
    assert main(["run", str(cfg), "--quiet", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert RETIRED.get(new, "") in err


# the values of the retired threshold rules (scheduled tau, the adaptive l2
# threshold) and what rejects them
RETIRED = {"tau_mode = scheduled": "unknown key 'tau_mode'",
           "gamma_mode = l2": "gamma_mode must be one of bounds, explicit"}


@pytest.mark.parametrize("command", ["run", "verify", "phantom"])
@pytest.mark.parametrize("text", [
    # beyond the float range
    BASE.replace("n_t = 32", "n_t = 1" + "0" * 320),
    # a float, but no array holds (n_t + 1)^2 nodes
    BASE.replace("n_t = 32", "n_t = 1" + "0" * 300),
    # each amplitude is finite, their sum at the shared nodes is not
    BASE.replace("disc = 0.0 0.0 0.4 1.0\ndisc = 0.45 0.3 0.18 2.0",
                 "disc = 0 0 0.01 1.7e308\ndisc = 0 0 0.02 1.7e308"),
    # exact data simulate nothing, but the 10^12 nodes of the grid itself
    # exceed max_sim_nodes
    _with_values(BASE, {"n_t": 1000000, "noise_level": 0}),
], ids=["n_t-1e320", "n_t-1e300", "overlapping-amplitudes", "exact-n_t-1e6"])
def test_unbuildable_grids_and_phantoms_are_config_errors(tmp_path, capsys, command,
                                                          text):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("values", [
    {"n_angle": 10**12},
    {"n_r": 10**12},
    # 10^7 + 1 samples are within the cap, the circle points are not
    {"n_angle": 1, "n_r": 10**7},
    # samples and circle points are within the cap; the 59.6 M points the
    # cached rows would hold (2.4 GB) are not
    {"n_angle": 20000},
], ids=["n_angle-1e12", "n_r-1e12", "circle-points-only", "cached-rows-only"])
def test_huge_sinograms_are_config_errors(tmp_path, capsys, command, values):
    # max_sim_nodes caps the sinogram's samples and the circle points in
    # O(1), and the cached rows in O(n_r), at load, before --out exists and
    # before any array is allocated
    root = importlib.resources.files("losem") / "configs"
    text = _with_values((root / "exact_em_64.cfg").read_text(),
                        {"phantom": str(root / "phantom_default.txt"), **values})
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "max_sim_nodes" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify", "phantom"])
@pytest.mark.parametrize("bad", ["config", "phantom file"])
def test_a_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command, bad):
    # one stray 0xff byte, in the config or in the phantom file it names
    (tmp_path / "ph.txt").write_bytes(
        b"0 0 0.3 1\n" + (b"# \xff\n" if bad == "phantom file" else b""))
    text = BASE.replace("disc = 0.0 0.0 0.4 1.0\ndisc = 0.45 0.3 0.18 2.0",
                        "phantom = ph.txt")
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text.encode() + (b"# \xff\n" if bad == "config" else b""))
    out = tmp_path / "o"
    assert main([command, str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad} ") and "Traceback" not in err
    assert not out.exists()


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(cfg), "--quiet", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, command):
    # from the file or from --seed, rejected before anything is printed or
    # created
    negative = write_cfg(tmp_path, BASE.replace("seed = 1", "seed = -1"), "neg.cfg")
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "o"
    for argv in ([str(negative)], [str(cfg), "--seed", "-1"]):
        assert main([command, *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must be nonnegative" in captured.err
        assert not out.exists()
    # exact data draw no noise, so their seed is never read
    exact = write_cfg(tmp_path, BASE.replace("noise_level = 0.05", "noise_level = 0"),
                      "exact.cfg")
    assert main([command, str(exact), "--seed", "-1", "--out", str(out), "--quiet"]) == 0


def test_lost_signal_is_a_numerical_failure(tmp_path, capsys):
    # at this counts scale every Poisson draw is zero, so no data survives
    cfg = write_cfg(tmp_path, BASE + "counts_scale = 1e-6\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 4
    assert (out / "FAILED").exists()
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err



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
    # the 3 x 3 nodes of n_t = 2, its 4 x 5 sinogram samples and its at most
    # 66 circle points are within the cap, the 11 x 11 nodes of the
    # simulation grid are not
    values = {"n_t": 2, "n_r": 4, "n_angle": 4, "disc": "0 0 0.4 1", "oversample": 5,
              key: value}
    exact = BASE.replace("noise_level = 0.05", "noise_level = 0")
    parse_config_text(_with_values(exact, values), "<x>")
    with pytest.raises(ConfigError, match=message):
        parse_config_text(_with_values(BASE, values), "<x>")


@given(
    st.fixed_dictionaries({
        "mode": st.sampled_from(MODES),
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
        "seed": st.integers(-2, 3),
        "oversample": st.integers(1, 2),
        "disc": st.tuples(
            st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.01, 0.45)
        ).map(lambda d: "{!r} {!r} {!r} 1.0".format(*d)),
    }),
)
@example({  # UNCALIBRATED itself
    "mode": "loping-osem", "gamma_mode": "explicit",
    "n_t": 8, "n_r": 8, "n_angle": 4, "n_blocks": 2, "lambda": 0.01,
    "noise_level": 0.5, "seed": 0, "oversample": 1, "disc": "0.0 0.0 0.4 1.0",
})
@example({  # a negative seed on simulated data
    "mode": "compare", "gamma_mode": "explicit",
    "n_t": 8, "n_r": 8, "n_angle": 4, "n_blocks": 2, "lambda": 0.01,
    "noise_level": 0.5, "seed": -1, "oversample": 1, "disc": "0.0 0.0 0.4 1.0",
})
@example({  # a noise level no finite counts scale reaches
    "mode": "loping-osem", "gamma_mode": "explicit",
    "n_t": 8, "n_r": 8, "n_angle": 4, "n_blocks": 2, "lambda": 0.01,
    "noise_level": 5e-324, "seed": 0, "oversample": 1, "disc": "0.0 0.0 0.4 1.0",
})
@example({  # no circle meets the phantom, so the simulated data have no mass
    "mode": "loping-osem", "gamma_mode": "explicit",
    "n_t": 6, "n_r": 3, "n_angle": 4, "n_blocks": 4, "lambda": 0.9,
    "noise_level": 0.3, "seed": 3, "oversample": 1, "disc": "0.0 0.0 0.26 1.0",
})
@example({  # one block of four has no data mass
    "mode": "loping-osem", "gamma_mode": "explicit",
    "n_t": 8, "n_r": 4, "n_angle": 4, "n_blocks": 4, "lambda": 0.01,
    "noise_level": 0.2, "seed": 0, "oversample": 1,
    "disc": "-0.027 -0.145 0.109 1.0",
})
@example({  # the shift flattens kernel and data: gamma_mode = bounds gives 0
    "mode": "loping-osem", "gamma_mode": "bounds",
    "n_t": 8, "n_r": 6, "n_angle": 4, "n_blocks": 4, "lambda": 3.6e307,
    "noise_level": 0.0, "seed": 0, "oversample": 1, "disc": "0.0 0.0 0.35 1.0",
})
@example({  # at the smallest shift the data floor over the kernel sup
    # underflows: gamma_mode = bounds gives inf
    "mode": "loping-osem", "gamma_mode": "bounds",
    "n_t": 8, "n_r": 4, "n_angle": 4, "n_blocks": 4, "lambda": 5e-324,
    "noise_level": 0.0, "seed": 0, "oversample": 1, "disc": "0.0 0.0 0.4 1.0",
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
    strict = write_cfg(tmp_path, BASE.replace("tau = 1.5", "tau = 1e6"), "t.cfg")
    assert main(["verify", str(strict), "--quiet"]) == 0
    text = capsys.readouterr().out
    assert "warning: every threshold exceeds its initial residual" in text


def test_verify_rejects_a_backprojection_of_ones_that_is_not_flat(tmp_path, capsys,
                                                                   monkeypatch):
    backproject = operators.RadonBlockOperator.backproject

    def tilted(self, y, shift=0.0, scale=1.0):
        return backproject(self, y, shift, scale) * (1.0 + 1e-9)

    monkeypatch.setattr(operators.RadonBlockOperator, "backproject", tilted)
    cfg = write_cfg(tmp_path, BASE)
    assert main(["verify", str(cfg), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("assumption violated: backprojection of flat data deviates")


def test_gamma_mode_bounds_runs_on_the_gamma_verify_prints(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("gamma_mode = explicit", "gamma_mode = bounds"))
    assert main(["verify", str(cfg), "--quiet"]) == 0
    printed = dict(ln.split("=", 1) for ln in capsys.readouterr().out.splitlines()
                   if "=" in ln)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    gamma = _summary(out / "stop_report.txt")["gamma"]
    assert gamma == printed["gamma_bounds"]
    assert 0.0 < float(gamma) < math.inf


def test_compare_builds_each_system_once(tmp_path, monkeypatch):
    # run and verify build one system per subset, and no block operator
    # besides the systems' own
    built = {operators.RadonSystem: [], operators.RadonBlockOperator: []}
    for cls, record in built.items():
        def init(self, *args, _init=cls.__init__, _record=record, **kwargs):
            _init(self, *args, **kwargs)
            _record.append(self)
        monkeypatch.setattr(cls, "__init__", init)
    text = (
        BASE.replace("mode = loping-osem", "mode = compare")
        .replace("max_cycles = 30", "max_cycles = 3")
        + "compare_subsets = 2 4\n"
    )
    cfg = write_cfg(tmp_path, text)
    for argv in (["run", "--out", str(tmp_path / "out")], ["verify"]):
        for record in built.values():
            record.clear()
        assert main([argv[0], str(cfg), "--quiet", *argv[1:]]) == 0
        systems, ops = built.values()
        assert [s.n_blocks for s in systems] == [2, 4]
        own = {id(op) for s in systems for op in s.ops}
        assert len(ops) == 6 and {id(op) for op in ops} == own


def test_one_compare_system_is_alive_while_rows_are_built(tmp_path, monkeypatch):
    # run and verify build each system when its turn comes: while the N = 2
    # rows are built the N = 4 system does not exist yet, and while the
    # N = 4 rows are built the N = 2 system is gone
    systems, builds = [], []

    def init(self, *args, _init=operators.RadonSystem.__init__, **kwargs):
        _init(self, *args, **kwargs)
        systems.append(weakref.ref(self))

    def windows(n_t, angles, geometry, cells=None, _windows=operators._windows):
        # the simulation's windows come before any system; a block's come
        # from its system's geometry, which one live system holds
        live = [s for s in (ref() for ref in systems) if s is not None]
        owners = [s.n_blocks for s in live if geometry is s.ops[0]._geometry]
        others = [s.n_blocks for s in live if geometry is not s.ops[0]._geometry
                  and any("_chunks" in vars(op) for op in s.ops)]
        builds.append((owners, [s.n_blocks for s in live], others))
        return _windows(n_t, angles, geometry, cells)

    monkeypatch.setattr(operators.RadonSystem, "__init__", init)
    monkeypatch.setattr(operators, "_windows", windows)
    text = (
        BASE.replace("mode = loping-osem", "mode = compare")
        .replace("max_cycles = 30", "max_cycles = 3")
        + "compare_subsets = 2 4\n"
    )
    cfg = write_cfg(tmp_path, text)
    for argv in (["run", "--out", str(tmp_path / "out")], ["verify"]):
        systems.clear()
        builds.clear()
        assert main([argv[0], str(cfg), "--quiet", *argv[1:]]) == 0
        # one simulation, then one row build per block of each system
        assert builds == [([], [], [])] + [([2], [2], [])] * 2 + [([4], [4], [])] * 4


def test_verify_checks_every_compare_system(tmp_path, capsys):
    # no n_blocks, as in compare_table.cfg: the configured system has one
    # block, and only the compare subsets are solved on
    text = (
        BASE.replace("mode = loping-osem", "mode = compare")
        .replace("n_angle = 32", "n_angle = 40").replace("n_blocks = 4\n", "")
        + "compare_subsets = 10 20\n"
    )
    cfg = write_cfg(tmp_path, text)
    assert main(["verify", str(cfg), "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split("=")[0] for ln in lines if ln.startswith("delta_min")] == [
        "delta_min_N10", "delta_min_N20",
    ]
    values = dict(ln.split("=", 1) for ln in lines if "=" in ln)
    for N in (10, 20):
        assert float(values[f"delta_min_N{N}"]) < float(values[f"delta_max_N{N}"])
        for key in ("adjoint_of_ones_max_dev", "kernel_floor_m", "kernel_sup_M",
                    "data_floor_m1", "data_sup_M1", "gamma_bounds", "threshold_max",
                    "initial_residual_min", "pairing_defect", "forward_row_points",
                    "forward_row_bytes"):
            assert f"{key}_N{N}" in values
        # a cell index and four weights per point, at least
        points = int(values[f"forward_row_points_N{N}"])
        assert 0 < 40 * points <= int(values[f"forward_row_bytes_N{N}"])
    lam0 = write_cfg(tmp_path, text.replace("lambda = 0.01", "lambda = 0"), "l0.cfg")
    assert main(["verify", str(lam0), "--quiet"]) == 3
    assert "kernel_floor_m_N10=0.0" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["exact_em_64.cfg", "loping_n10.cfg",
                                  "compare_table.cfg"])
def test_verify_prints_the_bytes_of_the_backprojection_plans(name, capsys):
    # an index and a fraction per angle and domain node, and one domain
    # index the blocks share
    path = importlib.resources.files("losem") / "configs" / name
    assert main(["verify", str(path), "--seed", "0", "--quiet"]) == 0
    values = dict(ln.split("=", 1) for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("adjoint_plan_bytes"))
    cfg = load_config(path)
    n_dom = int(cfg.pixel_grid().mask.sum())
    want = str(16 * cfg.n_angle * n_dom + 8 * n_dom)
    assert values == {f"adjoint_plan_bytes{cli._label(cfg, N)}": want
                      for N in cfg.compare_subsets or (cfg.n_blocks,)}


def test_phantom_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "ph"
    # without --quiet, the command reports what it rendered
    assert main(["phantom", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    head, mass = printed.removesuffix(f" -> {out}\n").split(", mass=")
    assert head == "phantom: 2 discs on 33x33 nodes"
    assert float(mass) == pytest.approx(1.0, abs=1e-12)
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


def test_bundled_runs_do_not_import_numpy_ma(tmp_path):
    # a float np.unique imports numpy.ma, about 20 ms of a small run's
    # set-up; the test session may have imported it already, so the
    # commands run in a fresh interpreter
    root = importlib.resources.files("losem") / "configs"
    commands = [["run", str(root / "exact_em_64.cfg"), "--out", str(tmp_path / "em")],
                ["verify", str(root / "exact_em_64.cfg")],
                ["run", str(root / "loping_n10.cfg"), "--out", str(tmp_path / "lop")]]
    script = ("import json, sys\n"
              "from losem.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv + ['--seed', '0', '--quiet']) == 0, argv\n"
              "    assert 'numpy.ma' not in sys.modules, argv\n")
    src = os.path.dirname(os.path.dirname(losem.__file__))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_seed_override_changes_noise(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(a), "--seed", "1", "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(b), "--seed", "2", "--quiet"]) == 0
    assert (a / "data.csv").read_bytes() != (b / "data.csv").read_bytes()
