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
    # no bandwidth
    "zero_spacing": "[waveform]\nspacing_hz = 0\n",
    # nothing to run
    "zero_trials": "[experiment]\ntrials = 0\n",
    # trial seeds are drawn from a non-negative entropy
    "negative_seed": "[experiment]\nseed = -1\n",
    # the room must contain the BS and the RIS
    "bs_outside_room": "[scene]\nbs_position_m = -1,5,2\n",
    "ris_center_outside_room": "[scene]\nris_center_m = 5,10.5,2\n",
    # every UE stands on the floor z = 0, which this room lies above
    "floor_below_room": "[scene]\nroom_min_m = 0,0,1\n",
    # 128 tiles at 0.1 m span 12.7 m along a 10 m wall
    "tiles_overhang_wall": "[scene]\ntile_count = 128\n[assignment]\nframes = 32\n",
    # a point needs three coordinates, and the RIS axis must be a unit vector
    "bs_two_components": "[scene]\nbs_position_m = 1,5\n",
    "ris_axis_not_unit": "[scene]\nris_axis = 1,1,0\n",
    # values the constructors of a trial's waveform, layout and multipath
    # model reject, and values no trial can draw or transform with
    "zero_oversampling": "[experiment]\noversampling = 0\n",
    "zero_carrier": "[waveform]\ncarrier_hz = 0\n",
    "zero_subcarriers": "[waveform]\nsubcarriers = 0\n",
    "zero_tile_spacing": "[scene]\ntile_spacing_m = 0\n",
    "negative_multipath_paths": "[multipath]\npaths = -1\n",
    "zero_excess_min": "[multipath]\nexcess_min_m = 0\n",
    "negative_clock_uncertainty": "[experiment]\nclock_uncertainty_s = -1\n",
    # non-finite values ran to NaN or inf results, and a zero gain reference
    # censored every trial
    "nan_noise": "[waveform]\nnoise_dbm = nan\n",
    "inf_power": "[waveform]\npower_dbm = inf\n",
    "zero_gain_reference": "[experiment]\ngain_reference = 0\n",
    # one subcarrier gives every slope column a flat delay profile without a
    # peak, which censored every trial
    "one_subcarrier": "[waveform]\nsubcarriers = 1\n",
    # files configparser cannot parse
    "key_before_section": "tile_count = 16\n[scene]\n",
    "key_without_value": "[scene]\ntile_count\n",
    "repeated_section": "[scene]\ntile_count = 16\n[scene]\nelements_x = 2\n",
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
    "seed_override": ["--seed", "-2", "simulate"],
    # sweep points no trial can run with: no shared-group slope left, too
    # few exclusive-slope tiles, no bandwidth
    "sweep_L": ["sweep", "--var", "L", "--values", "8,4"],
    "sweep_K": ["sweep", "--var", "K", "--values", "2"],
    "sweep_B": ["sweep", "--var", "B", "--values", "0"],
    # K and L count tiles and frames; a fraction would be truncated
    "sweep_K_fraction": ["sweep", "--var", "K", "--values", "16.7"],
    "sweep_L_fraction": ["sweep", "--var", "L", "--values", "8.5"],
    "peb_bandwidth": ["peb", "--values", "4e8,0"],
    "heatmap_resolution": ["heatmap", "--resolution-m", "0"],
    # a cell center at 12.5 m lies beyond the 10 m floor: no cell at all
    "heatmap_no_cell": ["heatmap", "--resolution-m", "25"],
    # the UE of the bound must stand on the room floor
    "peb_ue_outside_room": ["peb", "--ue", "50,5"],
    "peb_ue_not_finite": ["peb", "--ue", "nan,5"],
    # bench sizes count subcarriers, and the growth exponent needs two
    "bench_size_zero": ["bench", "--sizes", "0"],
    "bench_size_negative": ["bench", "--sizes", "-4"],
    "bench_size_fraction": ["bench", "--sizes", "2.5"],
    "bench_single_size": ["bench", "--sizes", "256"],
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_bad_command_line_value_exits_2(name, desk_config, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--config", desk_config, "--out", str(out)] + BAD_ARGUMENTS[name]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err
    # rejected before the first trial: no result file is written
    assert not out.exists() or not any(out.iterdir())


def test_config_does_not_import_harness():
    # config owns every run check because it needs nothing that runs trials;
    # the harness imports config, never the other way round
    src = str(Path(ris_nfloc.__file__).resolve().parents[1])
    code = ("import sys, ris_nfloc.config; "
            "sys.exit('ris_nfloc.harness' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


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
