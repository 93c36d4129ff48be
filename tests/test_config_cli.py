import os
import subprocess
import sys
from pathlib import Path

import pytest

import ris_nfloc
from ris_nfloc.cli import main
from ris_nfloc.config import ConfigError, config_template, load_config

DESK_INI = """
[scene]
tile_count = 16

[waveform]
subcarriers = 256
spacing_hz = 1.5625e6

[assignment]
frames = 8

[experiment]
trials = 5
seed = 7
"""


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.ini"
    path.write_text(DESK_INI)
    return str(path)


def test_defaults_match_reference_setup():
    cfg = load_config(None)
    assert cfg.tile_count == 64
    assert cfg.subcarriers == 3200
    assert cfg.spacing_hz == pytest.approx(120e3)
    assert cfg.bandwidth_hz == pytest.approx(384e6)
    assert cfg.carrier_hz == pytest.approx(28e9)
    assert cfg.power_dbm == 20.0
    assert cfg.noise_dbm == -8.0
    assert cfg.oversampling == 4
    assert cfg.clock_uncertainty_s == 1e-6
    assert cfg.exclusive_tiles == 4


def test_load_config_overrides(desk_config):
    cfg = load_config(desk_config)
    assert cfg.tile_count == 16
    assert cfg.subcarriers == 256
    assert cfg.frames == 8
    assert cfg.trials == 5
    assert cfg.seed == 7


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scene]\nnot_a_key = 3\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    missing = tmp_path / "nothere.ini"
    with pytest.raises(ConfigError):
        load_config(str(missing))


def test_wall_margin_without_floor_rejected(tmp_path):
    # the RIS wall is y=10 and the floor spans y in [0, 10]: no floor point
    # lies 12 m from the wall, so UE draws could never succeed
    path = tmp_path / "margin.ini"
    path.write_text("[scene]\nwall_margin_m = 12\n")
    with pytest.raises(ConfigError, match="wall_margin_m"):
        load_config(str(path))
    # exit 2 from the command line; a subprocess so a hang fails, not stalls
    src = str(Path(ris_nfloc.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
    argv = [sys.executable, "-m", "ris_nfloc.cli", "--config", str(path),
            "--trials", "1", "--out", str(tmp_path / "out"), "simulate"]
    done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert done.returncode == 2


def test_config_template_round_trips(tmp_path):
    path = tmp_path / "template.ini"
    path.write_text(config_template())
    cfg = load_config(str(path))
    assert cfg == load_config(None)


def test_cli_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scene]\nwat = 1\n")
    assert main(["--config", str(bad), "simulate"]) == 2


BAD_CONFIGS = {
    # too few anchors to bootstrap a position fix
    "two_exclusive_tiles": "[scene]\ntile_count = 16\n[assignment]\nframes = 8\n"
    "exclusive_tiles = 2\n",
    # every tile exclusive, but too few of them
    "two_tiles": "[scene]\ntile_count = 2\n[assignment]\nframes = 8\n",
    # no slope left over for the shared groups
    "frames_equal_exclusive": "[scene]\ntile_count = 16\n[assignment]\nframes = 4\n"
    "exclusive_tiles = 4\n",
    # groups of 3 tiles, beyond the residual labeler's cap
    "group_above_residual_cap": "[scene]\ntile_count = 16\n[assignment]\nframes = 8\n"
    "[experiment]\nresidual_cap = 2\n",
    # no bandwidth
    "zero_spacing": "[waveform]\nspacing_hz = 0\n",
    # nothing to run
    "zero_trials": "[experiment]\ntrials = 0\n",
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_invalid_assignment_rejected_at_load(name, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(BAD_CONFIGS[name])
    with pytest.raises(ConfigError):
        load_config(str(bad))
    # peb runs no trial, so only the load check can reject it
    for command in (["simulate"], ["peb"]):
        args = ["--config", str(bad), "--out", str(tmp_path / "out")] + command
        assert main(args) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_assignment_from_override_exits_2(desk_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["--config", desk_config, "--out", out, "--frames", "4", "peb"]) == 2
    assert main(["--config", desk_config, "--out", out, "--frames", "16", "peb"]) == 0


BAD_ARGUMENTS = {
    "bandwidth_override": ["--bandwidth-hz", "0", "simulate"],
    "trials_override": ["--trials", "0", "simulate"],
    # sweep points no trial can run with: no shared-group slope left, too
    # few exclusive-slope tiles, no bandwidth
    "sweep_L": ["sweep", "--var", "L", "--values", "8,4"],
    "sweep_K": ["sweep", "--var", "K", "--values", "2"],
    "sweep_B": ["sweep", "--var", "B", "--values", "0"],
    "peb_bandwidth": ["peb", "--values", "4e8,0"],
    "heatmap_resolution": ["heatmap", "--resolution-m", "0"],
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_bad_command_line_value_exits_2(name, desk_config, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--config", desk_config, "--out", str(out)] + BAD_ARGUMENTS[name]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err
    # rejected before the first trial: no result file is written
    assert not out.exists() or not any(out.iterdir())


def test_cli_simulate_writes_trials(desk_config, tmp_path):
    out = tmp_path / "out"
    assert main(["--config", desk_config, "--out", str(out), "simulate"]) == 0
    lines = (out / "trials.csv").read_text().strip().splitlines()
    assert len(lines) == 6


def test_cli_sweep_row_count(desk_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "--config", desk_config, "--out", str(out), "--trials", "3",
            "sweep", "--var", "L", "--values", "8,16",
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_peb_bandwidth_ratio(desk_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "--config", desk_config, "--out", str(out),
            "peb", "--values", "5e7,4e8",
        ]
    )
    assert code == 0
    lines = (out / "peb.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep_value,peb"
    low = float(lines[1].split(",")[1])
    high = float(lines[2].split(",")[1])
    # the per-tile SNRs do not depend on bandwidth, so the 1/B law is exact
    assert low / high == pytest.approx(8.0, rel=1e-9)


def test_cli_cdf_and_heatmap(desk_config, tmp_path):
    out = tmp_path / "out"
    assert main(["--config", desk_config, "--out", str(out), "cdf"]) == 0
    assert (out / "cdf.csv").exists()
    code = main(
        [
            "--config", desk_config, "--out", str(out), "--trials", "1",
            "heatmap", "--resolution-m", "5",
        ]
    )
    assert code == 0
    lines = (out / "heatmap.csv").read_text().strip().splitlines()
    assert len(lines) == 5


def test_cli_print_config(capsys):
    assert main(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert "[scene]" in out and "tile_count" in out
